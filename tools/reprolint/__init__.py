"""reprolint — AST-based invariant checks for this repository.

Callers import the submodules: :mod:`reprolint.cli` (the
``python -m reprolint`` entry point), :mod:`reprolint.driver` (the
analysis pipeline) and :mod:`reprolint.rules` (the rule catalogue).
"""
