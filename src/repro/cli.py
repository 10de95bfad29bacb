"""Command-line interface: regenerate any paper table or figure.

Usage::

    repro list
    repro table1
    repro fig7 --platform xgene2
    repro table3 --duration 600 --seed 7
    repro report --duration 3600
    repro run-all --jobs 4 --cache-dir ~/.cache/repro-vmin
    repro run-all --summary-json manifest.json
    repro run-all --platform xgene3-xl
    repro run-all --policy ed2p --platform xgene3-xl
    repro telemetry check manifest.json --min-hit-rate 0.5
    repro platform list
    repro platform validate
    repro policy list
    repro policy compare ed2p daemon --platform xgene2

Each experiment prints the same rows/series the paper reports. An
experiment command and ``run-all`` both go through
:func:`repro.experiments.orchestrator.run_experiments`: a command also
runs the experiment's inputs (``repro report`` runs ``table3`` and
``table4`` first) but prints only the experiment it names. ``run-all``
fans the whole registry out over a process pool (with
``--cache-dir``, reusing earlier runs' Vmin characterization
campaigns): experiment output goes to stdout (in canonical
registry order, byte-identical for any ``--jobs`` value) and the
per-experiment timing/cache-hit summary table goes to stderr.
``--summary-json PATH`` additionally collects telemetry and writes the
run manifest there; the ``repro telemetry`` subcommand family
(``dump``/``summarize``/``diff``/``check``) inspects and gates those
manifests (see :mod:`repro.telemetry.cli`). The ``repro platform``
family (``list``/``show``/``validate``) inspects the declarative
platform registry (see :mod:`repro.platform.cli`); ``--platform``
accepts any registered key, including platforms defined purely as spec
files. The ``repro policy`` family (``list``/``show``/``compare``)
inspects the policy registry (see :mod:`repro.policies.cli`);
``--policy`` threads a registry key through every policy-aware
experiment (the default, ``None``, reproduces the paper byte-for-byte).

A failing experiment leaves stdout empty and prints one
``repro: error: <experiment>: ...`` line: exit 2 for a configuration
error, 1 for any other error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from .errors import ConfigurationError, ExperimentError, ReproError
from .experiments import orchestrator
from .experiments.registry import experiment_names
from .workloads.generator import MAX_DURATION_S


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def positive_duration(text: str) -> float:
    """A ``--duration``: finite and positive seconds, at most
    :data:`~repro.workloads.generator.MAX_DURATION_S`.

    ``nan`` and ``inf`` parse as floats, but no workload can be drawn
    over them, and a huge finite value would size the generator's
    occupancy array in terabytes; refusing them here exits 2 before
    anything runs.
    """
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}"
        )
    if value > MAX_DURATION_S:
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_DURATION_S:.0f} s, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    from .platform.registry import platform_keys
    from .policies.registry import policy_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the HPCA'19 DVFS paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(experiment_names()) + ["list", "run-all"],
        help="experiment to regenerate ('list' shows the catalogue, "
        "'run-all' batches the registry through the orchestrator)",
    )
    parser.add_argument(
        "--platform",
        choices=platform_keys(),
        default=None,
        help="platform override (default: the paper's platform)",
    )
    parser.add_argument(
        "--policy",
        choices=sorted(policy_names()),
        default=None,
        help="policy registry key threaded through the policy-aware "
        "experiments (default: the paper's own configurations)",
    )
    parser.add_argument(
        "--duration",
        type=positive_duration,
        # A string default is parsed by ``type`` like a given value.
        default="600",
        help="workload duration in seconds for evaluation runs",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload generator seed"
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="directory of the Vmin characterization cache, which "
        "lets later invocations reuse this run's campaigns "
        "(default: nothing is cached)",
    )
    parser.add_argument(
        "--summary-json",
        default=None,
        metavar="PATH",
        help="for 'run-all': collect telemetry and write the run "
        "manifest (schema-validated JSON) to PATH",
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    """One experiment, or the registry for ``run-all``, through the
    orchestrator: output on stdout; for ``run-all`` also the summary
    table on stderr and the optional manifest."""
    batch = args.experiment == "run-all"
    summary_json = args.summary_json if batch else None
    if summary_json is not None:
        # Refuse before the run, not after minutes of output.
        directory = os.path.dirname(summary_json) or "."
        if not os.path.isdir(directory):
            raise ConfigurationError(
                f"--summary-json: {directory!r} is not a directory"
            )
    summary = orchestrator.run_experiments(
        names=list(experiment_names()) if batch else [args.experiment],
        jobs=args.jobs,
        platform=args.platform,
        duration_s=args.duration,
        seed=args.seed,
        cache_dir=args.cache_dir,
        collect_telemetry=summary_json is not None,
        policy=args.policy,
    )
    sys.stdout.write(summary.merged_output())
    sys.stdout.flush()
    if not batch:
        return 0
    print(summary.format_table(), file=sys.stderr)
    if summary_json is not None:
        from . import telemetry

        manifest = telemetry.build_manifest(
            summary,
            platform=args.platform,
            duration_s=args.duration,
            seed=args.seed,
            cache_dir=args.cache_dir,
        )
        errors = telemetry.validate_manifest(manifest)
        if errors:  # pragma: no cover - guards schema drift
            for error in errors:
                print(f"repro: manifest invalid: {error}", file=sys.stderr)
            return 1
        telemetry.write_manifest(manifest, summary_json)
        print(f"run manifest written to {summary_json}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "telemetry":
        # Manifest tooling has its own subcommand tree; dispatch before
        # the experiment parser so its choices stay experiment-shaped.
        from .telemetry.cli import telemetry_main

        return telemetry_main(argv[1:])
    if argv and argv[0] == "platform":
        # Registry tooling, same pattern as the telemetry family.
        from .platform.cli import platform_main

        return platform_main(argv[1:])
    if argv and argv[0] == "policy":
        # Control-plane registry tooling, same pattern.
        from .policies.cli import policy_main

        return policy_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("\n".join(sorted(experiment_names())))
        return 0
    try:
        return _run(args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, ExperimentError) else exc
        return 2 if isinstance(cause, ConfigurationError) else 1


if __name__ == "__main__":
    sys.exit(main())
