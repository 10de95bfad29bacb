"""Entry shim: makes ``python -m reprolint`` work from the repo root.

``python -m`` puts the current directory on ``sys.path``, so this tiny
package is importable from a fresh checkout with nothing installed. It
points its search path at the real implementation in
``tools/reprolint``, so every submodule (``reprolint.cli``,
``reprolint.rules``, ...) resolves there.
"""

from __future__ import annotations

import os

__path__ = [
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools",
        "reprolint",
    )
]
