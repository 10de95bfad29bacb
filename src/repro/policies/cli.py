"""Policy registry tooling: ``repro policy list|show|compare``.

Usage::

    repro policy list
    repro policy show ed2p
    repro policy compare --platform xgene2 --duration 600
    repro policy compare ed2p daemon-powercap --platform xgene3

``list`` prints the registered policy keys one per line; ``show`` dumps
one bundle's descriptor rows (class, rail mode, monitor cadence, the
ED²P clock plan where one exists); ``compare`` replays one generated
workload under several policies and tabulates energy, makespan, ED²P,
undervolting violations and each policy's decision counters.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..analysis.tables import format_table
from ..errors import ConfigurationError
from ..platform.specs import get_spec
from .registry import (
    describe_policy,
    get_policy_descriptor,
    policy_keys,
    resolve_policy,
)

#: Default policies of ``repro policy compare``: the paper's Baseline
#: and Optimal bracketed by the two composable extensions.
DEFAULT_COMPARE_KEYS = (
    "baseline-ondemand",
    "safe-vmin",
    "daemon",
    "ed2p",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro policy",
        description="Inspect and compare control-plane policy bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="registered policy keys, one per line")
    show = sub.add_parser("show", help="describe one policy bundle")
    show.add_argument("key", help="policy key or configuration alias")
    show.add_argument(
        "--platform",
        default="xgene2",
        help="platform to instantiate the bundle for (default: xgene2)",
    )
    compare = sub.add_parser(
        "compare",
        help="replay one workload under several policies and tabulate",
    )
    compare.add_argument(
        "keys",
        nargs="*",
        metavar="KEY",
        help="policy keys to compare (default: "
        + " ".join(DEFAULT_COMPARE_KEYS)
        + ")",
    )
    compare.add_argument(
        "--platform",
        default="xgene2",
        help="platform to replay on (default: xgene2)",
    )
    compare.add_argument(
        "--duration",
        type=float,
        default=600.0,
        help="workload duration in seconds (default: 600)",
    )
    compare.add_argument(
        "--seed", type=int, default=0, help="workload generator seed"
    )
    return parser


def _cmd_list() -> int:
    for key in policy_keys():
        descriptor = get_policy_descriptor(key)
        print(f"{key:<18} {descriptor.summary}")
    return 0


def _cmd_show(key: str, platform: str) -> int:
    spec = get_spec(platform)
    rows = describe_policy(key, spec)
    width = max(len(field) for field, _ in rows)
    for field, value in rows:
        print(f"{field:<{width}}  {value}")
    return 0


def _cmd_compare(
    keys: List[str], platform: str, duration_s: float, seed: int
) -> int:
    from ..core.policy import VminPolicyTable
    from ..platform.chip import Chip
    from ..power.energy import savings_percent
    from ..sim.system import ServerSystem
    from ..workloads.generator import ServerWorkloadGenerator

    # Canonical keys: fails fast on unknown names and dedups aliases.
    requested = [
        get_policy_descriptor(k).key for k in (keys or DEFAULT_COMPARE_KEYS)
    ]
    configs = list(dict.fromkeys(["baseline-ondemand", *requested]))
    spec = get_spec(platform)
    workload = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=seed
    ).generate(duration_s)
    # One characterization sweep shared by every resolved bundle.
    table = VminPolicyTable.from_characterization(spec)
    runs = {}
    for key in configs:
        policy = resolve_policy(key, spec, table=table)
        result = ServerSystem(
            Chip(spec), workload, policy=policy
        ).run()
        runs[key] = (result, policy)
    base = runs["baseline-ondemand"][0]
    rows = []
    for key in configs:
        result, policy = runs[key]
        decisions = ", ".join(
            f"{name.split('.')[-1]}={count}"
            for name, count in policy.decision_counters().items()
        ) or "-"
        rows.append(
            (
                key,
                round(result.makespan_s, 0),
                round(result.energy_j, 1),
                f"{savings_percent(base.energy_j, result.energy_j):.1f}%",
                f"{result.ed2p:.3e}",
                f"{savings_percent(base.ed2p, result.ed2p):.1f}%",
                len(result.violations),
                decisions,
            )
        )
    print(
        format_table(
            (
                "policy",
                "time(s)",
                "energy(J)",
                "E save",
                "ED2P",
                "ED2P save",
                "viol",
                "decisions",
            ),
            rows,
            title=f"policy comparison ({spec.name}, "
            f"{duration_s:g} s, seed {seed})",
        )
    )
    return 0


def policy_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro policy`` subcommand family."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "show":
            return _cmd_show(args.key, args.platform)
        return _cmd_compare(
            args.keys, args.platform, args.duration, args.seed
        )
    except ConfigurationError as exc:
        print(f"repro policy: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(policy_main())
