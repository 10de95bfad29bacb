"""The four evaluation configurations of Section VI.B.

* **baseline** — default machine: spread scheduler, ``ondemand``
  governor, nominal voltage;
* **safe_vmin** — baseline plus the rail trimmed to the characterized
  safe Vmin of the moment (guardband exposure only);
* **placement** — the daemon drives core allocation and per-PMD clocks,
  rail pinned at nominal (placement value only);
* **optimal** — the full daemon: placement, clocks and voltage.

The names are aliases into the policy registry
(:mod:`repro.policies.registry`); any registry key is accepted wherever
a configuration name is, so ``run_configuration(..., "ed2p")`` works the
same way the four paper configurations do.

:func:`run_evaluation` replays one generated workload under all four and
summarises them the way the paper's Tables III and IV do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..platform.chip import Chip
from ..platform.specs import get_spec
from ..policies.registry import CONFIG_POLICY_KEYS, resolve_policy
from ..power.energy import penalty_percent, savings_percent
from ..sim.system import ServerSystem, SystemResult
from ..workloads.generator import ServerWorkloadGenerator, Workload
from .policy import VminPolicyTable

#: Configuration names in the paper's table order.
CONFIG_NAMES: Tuple[str, ...] = tuple(CONFIG_POLICY_KEYS)


def run_configuration(
    platform: str,
    workload: Workload,
    config: str,
    silicon_seed: int = 0,
    policy: Optional[VminPolicyTable] = None,
    trace_period_s: Optional[float] = 1.0,
) -> SystemResult:
    """Replay one workload under one configuration on a fresh chip.

    ``config`` is a paper configuration name or any policy registry
    key; ``policy`` optionally shares a prebuilt safe-Vmin table.
    """
    spec = get_spec(platform)
    chip = Chip(spec, silicon_seed=silicon_seed)
    system = ServerSystem(
        chip,
        workload,
        policy=resolve_policy(config, spec, table=policy),
        trace_period_s=trace_period_s,
    )
    return system.run()


@dataclass(frozen=True)
class ConfigurationRow:
    """One column of Tables III/IV."""

    config: str
    time_s: float
    average_power_w: float
    energy_j: float
    energy_savings_pct: float
    ed2p: float
    ed2p_savings_pct: float
    time_penalty_pct: float
    violations: int


@dataclass
class EvaluationResult:
    """All four configurations on one workload (one paper table)."""

    platform: str
    workload: Workload
    results: Dict[str, SystemResult]

    def row(self, config: str) -> ConfigurationRow:
        """Summary row for one configuration, relative to the baseline."""
        if config not in self.results:
            raise ConfigurationError(f"no result for {config!r}")
        base = self.results["baseline"]
        res = self.results[config]
        return ConfigurationRow(
            config=config,
            time_s=res.makespan_s,
            average_power_w=res.average_power_w,
            energy_j=res.energy_j,
            energy_savings_pct=savings_percent(base.energy_j, res.energy_j),
            ed2p=res.ed2p,
            ed2p_savings_pct=savings_percent(base.ed2p, res.ed2p),
            time_penalty_pct=penalty_percent(
                base.makespan_s, res.makespan_s
            ),
            violations=len(res.violations),
        )

    def rows(self) -> List[ConfigurationRow]:
        """All rows: the paper's column order, then extra policy keys."""
        ordered = [c for c in CONFIG_NAMES if c in self.results]
        ordered += [c for c in self.results if c not in CONFIG_NAMES]
        return [self.row(c) for c in ordered]


def run_evaluation(
    platform: str,
    duration_s: float = 3600.0,
    seed: int = 0,
    silicon_seed: int = 0,
    configs: Sequence[str] = CONFIG_NAMES,
    trace_period_s: Optional[float] = 1.0,
    workload: Optional[Workload] = None,
    replayed: Optional[EvaluationResult] = None,
) -> EvaluationResult:
    """Generate one workload and replay it under several configurations.

    This regenerates the paper's Tables III (X-Gene 2) and IV (X-Gene 3):
    one random server workload per machine, executed under every
    configuration with identical job arrivals. ``replayed`` hands over
    an evaluation made on the same chip with the same silicon seed and
    trace period (Fig. 14's runs, for the tables): its workload and
    replays are taken as they are, and only the configurations it
    lacks are replayed.
    """
    spec = get_spec(platform)
    done: Dict[str, SystemResult] = {}
    if replayed is not None:
        if replayed.platform != spec.name:
            raise ConfigurationError(
                f"replays of {replayed.platform} cannot evaluate "
                f"{spec.name}"
            )
        workload = replayed.workload
        done = replayed.results
    if workload is None:
        generator = ServerWorkloadGenerator(max_cores=spec.n_cores, seed=seed)
        workload = generator.generate(duration_s)
    if "baseline" not in configs:
        raise ConfigurationError(
            "the evaluation needs the baseline for relative savings"
        )
    policy = VminPolicyTable.from_characterization(spec)
    results = {
        config: done[config]
        if config in done
        else run_configuration(
            platform,
            workload,
            config,
            silicon_seed=silicon_seed,
            policy=policy,
            trace_period_s=trace_period_s,
        )
        for config in configs
    }
    return EvaluationResult(
        platform=spec.name, workload=workload, results=results
    )
