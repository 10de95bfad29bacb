"""Vmin characterization campaigns (Section III).

Implements the paper's measurement protocol against the simulated
silicon:

* **safe-Vmin search** — starting from nominal voltage, descend in fixed
  steps (10 mV, the granularity of the paper's figures); a level is the
  *safe Vmin* when all 1000 executions of the program complete correctly
  (Section III.A);
* **unsafe-region scan** — below the safe Vmin, run each level 60 times
  and record the outcome mix (SDC / crash / hang / timeout) down to the
  system crash point (Section III.B, Figs. 4 and 5).

Each execution mode has one path:

* ``analytic`` short-circuits to the underlying failure probabilities
  and rounds them to expected outcome counts. Every analytic call, one
  point or many, runs as one batched :mod:`repro.kernels` sweep over
  the whole voltage axis (:meth:`VminCampaign.measure_safe_vmin_batch`,
  :meth:`VminCampaign.scan_unsafe_region_batch`), memoized in the Vmin
  cache when it has a directory (``--cache-dir``);
* ``trials`` is the per-run protocol: it draws each level's failures
  binomially and splits them into failure types with one multinomial
  draw, level by level on the campaign's sequential RNG stream
  (exactly what the hardware campaign does, minus the weeks of machine
  time). Its results consume RNG state, so they are never cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..allocation import Allocation, cores_for
from ..errors import CharacterizationError
from ..kernels.faults import (
    MIX_ORDER,
    analytic_failure_counts,
    analytic_outcome_counts,
    outcome_mix_grid,
    pfail_grid,
)
from ..kernels.vmin import VminGrid, evaluate_grid
from ..platform.specs import ChipSpec
from .cache import (
    VminCache,
    cache_key_producer,
    fault_fingerprint,
    get_default_cache,
    make_key,
    model_fingerprint,
    occupancy_of,
    spec_fingerprint,
)
from .faults import FAULT_OUTCOMES, OUTCOME_PASS, FaultModel
from .model import VminModel


@dataclass(frozen=True)
class CharacterizationPoint:
    """One (workload, threads, allocation, frequency) configuration."""

    workload: str
    nthreads: int
    allocation: Allocation
    freq_hz: int
    cores: Tuple[int, ...]
    workload_delta_mv: float = 0.0

    def label(self) -> str:
        """Compact human-readable tag, e.g. ``4T(spreaded)@2.4GHz``."""
        from ..units import fmt_freq

        return (
            f"{self.nthreads}T({self.allocation.value})@"
            f"{fmt_freq(self.freq_hz)}"
        )


@dataclass(slots=True)
class VoltageStepRecord:
    """Outcome statistics of one voltage level during a campaign."""

    voltage_mv: int
    runs: int
    pfail: float
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Failed runs at this level."""
        return sum(
            count for tag, count in self.outcomes.items()
            if tag != OUTCOME_PASS
        )


@dataclass
class SafeVminResult:
    """Result of one safe-Vmin search."""

    point: CharacterizationPoint
    safe_vmin_mv: int
    true_vmin_mv: float
    steps: List[VoltageStepRecord]
    runs_per_step: int

    @property
    def guardband_mv(self) -> float:
        """Exposed guardband: nominal voltage minus measured safe Vmin."""
        return self.nominal_mv - self.safe_vmin_mv

    @property
    def nominal_mv(self) -> int:
        """Nominal voltage the search started from."""
        return self.steps[0].voltage_mv if self.steps else self.safe_vmin_mv


@dataclass
class UnsafeScanResult:
    """Result of one unsafe-region scan (60 runs per level)."""

    point: CharacterizationPoint
    safe_vmin_mv: int
    crash_voltage_mv: int
    steps: List[VoltageStepRecord]


class VminCampaign:
    """Runs characterization protocols against the simulated silicon."""

    def __init__(
        self,
        spec: ChipSpec,
        vmin_model: Optional[VminModel] = None,
        fault_model: Optional[FaultModel] = None,
        step_mv: int = 10,
        pass_runs: int = 1000,
        scan_runs: int = 60,
        seed: int = 0,
    ):
        if step_mv <= 0:
            raise CharacterizationError("step_mv must be positive")
        if pass_runs <= 0 or scan_runs <= 0:
            raise CharacterizationError("run counts must be positive")
        self.spec = spec
        self.vmin_model = vmin_model or VminModel(spec)
        self.fault_model = fault_model or FaultModel(spec=spec)
        self.step_mv = step_mv
        self.pass_runs = pass_runs
        self.scan_runs = scan_runs
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._fingerprints: Optional[Tuple[str, str, str]] = None

    # -- configuration helpers -------------------------------------------------

    def point(
        self,
        workload: str,
        nthreads: int,
        allocation: Allocation,
        freq_hz: int,
        cores: Optional[Sequence[int]] = None,
        workload_delta_mv: float = 0.0,
    ) -> CharacterizationPoint:
        """Build a characterization point, deriving cores when not given."""
        freq = self.spec.nearest_frequency(freq_hz)
        chosen = (
            tuple(cores)
            if cores is not None
            else cores_for(self.spec, nthreads, allocation)
        )
        if len(chosen) != nthreads:
            raise CharacterizationError(
                f"{nthreads} threads but {len(chosen)} cores given"
            )
        return CharacterizationPoint(
            workload=workload,
            nthreads=nthreads,
            allocation=allocation,
            freq_hz=freq,
            cores=chosen,
            workload_delta_mv=workload_delta_mv,
        )

    def _true_vmin(self, point: CharacterizationPoint) -> Tuple[float, int]:
        breakdown = self.vmin_model.evaluate(
            point.freq_hz, point.cores, point.workload_delta_mv
        )
        return breakdown.total_mv, breakdown.droop_class

    # -- memoization -------------------------------------------------------------

    @staticmethod
    def _cache_backend() -> Optional[VminCache]:
        """The process's cache when it has a directory, else None: a
        campaign without one derives no key and encodes no payload."""
        cache = get_default_cache()
        return None if cache.cache_dir is None else cache

    @cache_key_producer
    def _campaign_key(
        self,
        kind: str,
        point: CharacterizationPoint,
        runs: int,
        **extra: object,
    ) -> str:
        if self._fingerprints is None:
            self._fingerprints = (
                spec_fingerprint(self.spec),
                model_fingerprint(self.vmin_model),
                fault_fingerprint(self.fault_model),
            )
        spec_fp, model_fp, fault_fp = self._fingerprints
        return make_key(
            kind=kind,
            spec=spec_fp,
            model=model_fp,
            faults=fault_fp,
            freq_class=self.spec.frequency_class(point.freq_hz).value,
            cores=sorted(point.cores),
            pmd_occupancy=occupancy_of(self.spec, point.cores),
            workload=point.workload,
            workload_delta_mv=point.workload_delta_mv,
            seed=self.seed,
            step_mv=self.step_mv,
            runs=runs,
            # Only analytic results are cached; keys keep naming the mode.
            mode="analytic",
            **extra,
        )

    @staticmethod
    def _encode_steps(steps: List[VoltageStepRecord]) -> List[Dict]:
        return [
            {
                "voltage_mv": record.voltage_mv,
                "runs": record.runs,
                "pfail": record.pfail,
                "outcomes": dict(record.outcomes),
            }
            for record in steps
        ]

    @staticmethod
    def _decode_steps(encoded: List[Dict]) -> List[VoltageStepRecord]:
        return [
            VoltageStepRecord(
                voltage_mv=int(entry["voltage_mv"]),
                runs=int(entry["runs"]),
                pfail=float(entry["pfail"]),
                outcomes={
                    str(tag): int(count)
                    for tag, count in entry["outcomes"].items()
                },
            )
            for entry in encoded
        ]

    # -- mode dispatch -------------------------------------------------------------

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in ("analytic", "trials"):
            raise CharacterizationError(f"unknown mode {mode!r}")

    # -- safe-Vmin search --------------------------------------------------------

    def measure_safe_vmin(
        self,
        point: CharacterizationPoint,
        mode: str = "analytic",
    ) -> SafeVminResult:
        """Descend from nominal until 1000-run passes stop (Section III.A).

        Returns the lowest voltage step at which all runs passed. In
        ``trials`` mode each level's outcomes are drawn binomially; in
        ``analytic`` mode a level is safe exactly when its failure
        probability is zero.
        """
        self._check_mode(mode)
        if mode == "analytic":
            return self.measure_safe_vmin_batch([point])[0]
        return self._search_trials(point)

    def _search_trials(self, point: CharacterizationPoint) -> SafeVminResult:
        """The trials-mode search: level by level on the campaign RNG."""
        true_vmin, droop_class = self._true_vmin(point)
        steps: List[VoltageStepRecord] = []
        safe = self.spec.nominal_voltage_mv
        voltage = self.spec.nominal_voltage_mv
        while voltage >= self.spec.min_voltage_mv:
            record = self._run_level(
                voltage, true_vmin, droop_class, self.pass_runs
            )
            steps.append(record)
            if record.failures > 0:
                break
            safe = voltage
            voltage -= self.step_mv
        return SafeVminResult(
            point=point,
            safe_vmin_mv=safe,
            true_vmin_mv=true_vmin,
            steps=steps,
            runs_per_step=self.pass_runs,
        )

    def measure_safe_vmin_batch(
        self, points: Sequence[CharacterizationPoint]
    ) -> List[SafeVminResult]:
        """Analytic :meth:`measure_safe_vmin` over many configurations.

        Sweeps the full voltage axis of every cache-missing point in one
        :mod:`repro.kernels` evaluation instead of one Python call per
        voltage level. Every recorded step and every cache payload is
        bit-identical to a level-by-level analytic search.
        """
        points = list(points)
        results: List[Optional[SafeVminResult]] = [None] * len(points)
        cache = self._cache_backend()
        keys: List[str] = [""] * len(points)
        pending: List[int] = []
        for i, point in enumerate(points):
            if cache is not None:
                keys[i] = self._campaign_key(
                    "safe_vmin", point, self.pass_runs
                )
                cached = cache.get(keys[i])
                if cached is not None:
                    results[i] = SafeVminResult(
                        point=point,
                        safe_vmin_mv=int(cached["safe_vmin_mv"]),
                        true_vmin_mv=float(cached["true_vmin_mv"]),
                        steps=self._decode_steps(cached["steps"]),
                        runs_per_step=int(cached["runs_per_step"]),
                    )
                    continue
            pending.append(i)
        if not pending:
            return results
        grid = evaluate_grid(
            self.vmin_model,
            [points[i].freq_hz for i in pending],
            [points[i].cores for i in pending],
            [points[i].workload_delta_mv for i in pending],
        )
        voltages = np.arange(
            self.spec.nominal_voltage_mv,
            self.spec.min_voltage_mv - 1,
            -self.step_mv,
            dtype=np.int64,
        )
        runs = self.pass_runs
        if voltages.size == 0:
            for g, i in enumerate(pending):
                results[i] = SafeVminResult(
                    point=points[i],
                    safe_vmin_mv=self.spec.nominal_voltage_mv,
                    true_vmin_mv=float(grid.total_mv[g]),
                    steps=[],
                    runs_per_step=runs,
                )
            return results
        pf = pfail_grid(
            self.fault_model,
            voltages[None, :],
            grid.total_mv[:, None],
            grid.droop_class[:, None],
        )
        # Analytic failures are >= 1 exactly where pfail > 0.
        failing = pf > 0.0
        has_fail = failing.any(axis=1)
        first_fail = np.argmax(failing, axis=1)
        # Outcome split of the one failing level per failing point.
        fail_rows = np.nonzero(has_fail)[0]
        fail_cols = first_fail[fail_rows]
        fail_mix = outcome_mix_grid(
            self.fault_model,
            voltages[fail_cols],
            grid.total_mv[fail_rows],
            grid.droop_class[fail_rows],
        )
        fail_counts, fail_splits = analytic_outcome_counts(
            pf[fail_rows, fail_cols], fail_mix, runs
        )
        fail_pos = {int(row): k for k, row in enumerate(fail_rows)}
        # Bulk-convert the grids once; per-element numpy indexing in the
        # record loop would dominate the whole batch otherwise. Records
        # are built with positional args (voltage_mv, runs, pfail,
        # outcomes) — the loop is the campaign's hottest path.
        volt_list = voltages.tolist()
        has_fail_list = has_fail.tolist()
        first_fail_list = first_fail.tolist()
        fail_counts_list = fail_counts.tolist()
        fail_splits_list = fail_splits.tolist()
        fail_pfails = pf[fail_rows, fail_cols].tolist()
        true_vmins = grid.total_mv.tolist()
        nominal = self.spec.nominal_voltage_mv
        computed: List[SafeVminResult] = []
        for g, i in enumerate(pending):
            if has_fail_list[g]:
                last = first_fail_list[g]
                safe = volt_list[last - 1] if last >= 1 else nominal
                n_steps = last + 1
            else:
                last = -1
                safe = volt_list[-1]
                n_steps = len(volt_list)
            # Levels are safe exactly when pfail == 0, so only the
            # failing level's pfail is nonzero.
            steps: List[VoltageStepRecord] = [
                VoltageStepRecord(v, runs, 0.0, {OUTCOME_PASS: runs})
                for v in volt_list[:n_steps]
            ]
            if last >= 0:
                k = fail_pos[g]
                record = steps[last]
                record.pfail = fail_pfails[k]
                record.outcomes[OUTCOME_PASS] = runs - fail_counts_list[k]
                record.outcomes.update(zip(MIX_ORDER, fail_splits_list[k]))
            result = SafeVminResult(
                point=points[i],
                safe_vmin_mv=safe,
                true_vmin_mv=true_vmins[g],
                steps=steps,
                runs_per_step=runs,
            )
            results[i] = result
            computed.append(result)
        if cache is not None:
            cache.put_sweep(
                (
                    keys[i],
                    {
                        "safe_vmin_mv": result.safe_vmin_mv,
                        "true_vmin_mv": result.true_vmin_mv,
                        "runs_per_step": result.runs_per_step,
                        "steps": self._encode_steps(result.steps),
                    },
                )
                for i, result in zip(pending, computed)
            )
        return results

    # -- unsafe-region scan --------------------------------------------------------

    def scan_unsafe_region(
        self,
        point: CharacterizationPoint,
        mode: str = "analytic",
        safe_vmin_mv: Optional[int] = None,
    ) -> UnsafeScanResult:
        """Scan below the safe Vmin, 60 runs per level (Section III.B).

        Continues until a level where every run fails (the system crash
        point) or the regulator floor. Without ``safe_vmin_mv`` the scan
        starts from a safe-Vmin search in the same mode.
        """
        self._check_mode(mode)
        if mode == "analytic":
            return self.scan_unsafe_region_batch(
                [point], None if safe_vmin_mv is None else [safe_vmin_mv]
            )[0]
        if safe_vmin_mv is None:
            safe_vmin_mv = self._search_trials(point).safe_vmin_mv
        return self._scan_trials(point, safe_vmin_mv)

    def _scan_trials(
        self, point: CharacterizationPoint, safe_vmin_mv: int
    ) -> UnsafeScanResult:
        """The trials-mode scan: level by level on the campaign RNG."""
        true_vmin, droop_class = self._true_vmin(point)
        steps: List[VoltageStepRecord] = []
        voltage = safe_vmin_mv
        crash_voltage = self.spec.min_voltage_mv
        while voltage >= self.spec.min_voltage_mv:
            record = self._run_level(
                voltage, true_vmin, droop_class, self.scan_runs
            )
            steps.append(record)
            if record.pfail >= 1.0 or record.failures == record.runs:
                crash_voltage = voltage
                break
            voltage -= self.step_mv
        return UnsafeScanResult(
            point=point,
            safe_vmin_mv=safe_vmin_mv,
            crash_voltage_mv=crash_voltage,
            steps=steps,
        )

    def scan_unsafe_region_batch(
        self,
        points: Sequence[CharacterizationPoint],
        safe_vmins_mv: Optional[Sequence[int]] = None,
    ) -> List[UnsafeScanResult]:
        """Analytic :meth:`scan_unsafe_region` over many configurations.

        Evaluates every cache-missing point's sub-safe voltage levels in
        one kernel sweep. Results and cache payloads are bit-identical
        to a level-by-level analytic scan.
        """
        points = list(points)
        if safe_vmins_mv is None:
            safes_all = [
                r.safe_vmin_mv for r in self.measure_safe_vmin_batch(points)
            ]
        else:
            safes_all = [int(v) for v in safe_vmins_mv]
            if len(safes_all) != len(points):
                raise CharacterizationError(
                    "safe_vmins_mv must match points one to one"
                )
        results: List[Optional[UnsafeScanResult]] = [None] * len(points)
        cache = self._cache_backend()
        keys: List[str] = [""] * len(points)
        pending: List[int] = []
        for i, point in enumerate(points):
            if cache is not None:
                keys[i] = self._campaign_key(
                    "unsafe_scan",
                    point,
                    self.scan_runs,
                    start_mv=safes_all[i],
                )
                cached = cache.get(keys[i])
                if cached is not None:
                    results[i] = UnsafeScanResult(
                        point=point,
                        safe_vmin_mv=safes_all[i],
                        crash_voltage_mv=int(cached["crash_voltage_mv"]),
                        steps=self._decode_steps(cached["steps"]),
                    )
                    continue
            pending.append(i)
        if not pending:
            return results
        grid = evaluate_grid(
            self.vmin_model,
            [points[i].freq_hz for i in pending],
            [points[i].cores for i in pending],
            [points[i].workload_delta_mv for i in pending],
        )
        safes = np.asarray([safes_all[i] for i in pending], dtype=np.int64)
        rows = self._scan_rows(grid, safes)
        for i, (crash_voltage, steps) in zip(pending, rows):
            results[i] = UnsafeScanResult(
                point=points[i],
                safe_vmin_mv=safes_all[i],
                crash_voltage_mv=crash_voltage,
                steps=steps,
            )
        if cache is not None:
            cache.put_sweep(
                (
                    keys[i],
                    {
                        "crash_voltage_mv": crash_voltage,
                        "steps": self._encode_steps(steps),
                    },
                )
                for i, (crash_voltage, steps) in zip(pending, rows)
            )
        return results

    def _scan_rows(
        self, grid: VminGrid, safes: np.ndarray
    ) -> List[Tuple[int, List[VoltageStepRecord]]]:
        """Crash voltage and recorded steps of each row's scan.

        Row ``g`` of ``grid`` scans down from ``safes[g]``: one kernel
        sweep over every row's levels.
        """
        runs = self.scan_runs
        min_v = self.spec.min_voltage_mv
        max_levels = int(max(0, (int(safes.max()) - min_v) // self.step_mv + 1))
        if max_levels == 0:
            return [(min_v, []) for _ in range(len(safes))]
        # Row g sweeps its own axis: safe, safe - step, ... >= min voltage.
        vmat = safes[:, None] - self.step_mv * np.arange(
            max_levels, dtype=np.int64
        )
        valid = vmat >= min_v
        pf = pfail_grid(
            self.fault_model,
            vmat,
            grid.total_mv[:, None],
            grid.droop_class[:, None],
        )
        failures = analytic_failure_counts(pf, runs)
        crash_mask = ((pf >= 1.0) | (failures == runs)) & valid
        has_crash = crash_mask.any(axis=1)
        first_crash = np.argmax(crash_mask, axis=1)
        n_valid = valid.sum(axis=1)
        has_crash_list = has_crash.tolist()
        first_crash_list = first_crash.tolist()
        n_valid_list = n_valid.tolist()
        # Only the levels a row actually records get converted and get
        # their outcome split computed at all: every row stops at its
        # crash level (or its last valid one).
        max_used = 0
        for g in range(len(safes)):
            if has_crash_list[g]:
                max_used = max(max_used, first_crash_list[g] + 1)
            else:
                max_used = max(max_used, n_valid_list[g])
        vmat_used = vmat[:, :max_used]
        pf_used = pf[:, :max_used]
        mix_used = outcome_mix_grid(
            self.fault_model,
            vmat_used,
            grid.total_mv[:, None],
            grid.droop_class[:, None],
        )
        _, splits_used = analytic_outcome_counts(pf_used, mix_used, runs)
        vmat_rows = vmat_used.tolist()
        pf_rows = pf_used.tolist()
        failure_rows = failures[:, :max_used].tolist()
        split_rows = splits_used.tolist()
        rows: List[Tuple[int, List[VoltageStepRecord]]] = []
        for g in range(len(safes)):
            if has_crash_list[g]:
                n_steps = first_crash_list[g] + 1
                crash_voltage = vmat_rows[g][n_steps - 1]
            else:
                n_steps = n_valid_list[g]
                crash_voltage = min_v
            volt_row = vmat_rows[g]
            pf_row = pf_rows[g]
            fail_row = failure_rows[g]
            split_row = split_rows[g]
            # Positional args: (voltage_mv, runs, pfail, outcomes).
            steps: List[VoltageStepRecord] = []
            for j in range(n_steps):
                f = fail_row[j]
                outcomes: Dict[str, int] = {OUTCOME_PASS: runs}
                if f:
                    outcomes[OUTCOME_PASS] = runs - f
                    outcomes.update(zip(MIX_ORDER, split_row[j]))
                steps.append(
                    VoltageStepRecord(volt_row[j], runs, pf_row[j], outcomes)
                )
            rows.append((crash_voltage, steps))
        return rows

    # -- pfail curve -------------------------------------------------------------

    def pfail_curve(
        self,
        point: CharacterizationPoint,
        voltages_mv: Iterable[int],
    ) -> Dict[int, float]:
        """Exact cumulative failure probability per voltage (Fig. 5)."""
        return self.pfail_curves([point], voltages_mv)[0]

    def pfail_curves(
        self,
        points: Sequence[CharacterizationPoint],
        voltages_mv: Iterable[int],
    ) -> List[Dict[int, float]]:
        """Batched :meth:`pfail_curve` over many configurations.

        One kernel evaluation covers every (point, voltage) pair.
        """
        points = list(points)
        voltages = [int(v) for v in voltages_mv]
        if not points or not voltages:
            return [{} for _ in points]
        grid = evaluate_grid(
            self.vmin_model,
            [p.freq_hz for p in points],
            [p.cores for p in points],
            [p.workload_delta_mv for p in points],
        )
        curves = pfail_grid(
            self.fault_model,
            np.asarray(voltages, dtype=np.int64)[None, :],
            grid.total_mv[:, None],
            grid.droop_class[:, None],
        )
        return [dict(zip(voltages, row)) for row in curves.tolist()]

    # -- internals --------------------------------------------------------------

    def _run_level(
        self,
        voltage_mv: int,
        true_vmin_mv: float,
        droop_class: int,
        runs: int,
    ) -> VoltageStepRecord:
        """One trials-mode level: ``runs`` runs drawn on the campaign RNG.

        One binomial draw for the failures, then, if any failed, one
        multinomial draw splitting them into :data:`FAULT_OUTCOMES`.
        """
        pfail = self.fault_model.pfail(voltage_mv, true_vmin_mv, droop_class)
        outcomes: Dict[str, int] = {OUTCOME_PASS: runs}
        failures = int(self._rng.binomial(runs, pfail))
        if failures:
            outcomes[OUTCOME_PASS] = runs - failures
            mix = self.fault_model.outcome_mix(
                voltage_mv, true_vmin_mv, droop_class
            )
            draws = self._rng.multinomial(
                failures, [mix[tag] for tag in FAULT_OUTCOMES]
            )
            outcomes.update(zip(FAULT_OUTCOMES, (int(d) for d in draws)))
        return VoltageStepRecord(
            voltage_mv=voltage_mv,
            runs=runs,
            pfail=pfail,
            outcomes=outcomes,
        )
