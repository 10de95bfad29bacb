"""End-to-end benchmark of ``repro run-all``, with a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload xgene2-cold --seed 0 --seconds 50 --trace 0

Workloads (README.md in this directory says why each was chosen):

* ``xgene2-cold`` — ``run-all --platform xgene2`` with the in-memory
  characterization cache only;
* ``xgene3-xl-cold`` — ``run-all --platform xgene3-xl`` with a fresh,
  empty ``--cache-dir`` for every sample.

Every sample is a fresh interpreter (``probe.py``) driving the public
CLI entry ``repro.cli.main`` with ``--jobs 1`` and ``--seed`` set to the
workload seed modulo the number of pinned reference seeds. A closed
loop: one sample at a time, the next starting when the previous exits,
for as long as another sample still fits in ``--seconds``, and at least
:data:`MIN_SAMPLES` times. Each timed process is pinned to the CPU that
ran :func:`fastest_cpu`'s short loop fastest just before it: on a shared
host other tenants slow one CPU at a time by up to 1.7x.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s`` — median wall time of a whole fresh-process run;
* ``setup_s`` — median time from starting the interpreter until the
  first experiment is dispatched, over every sample and the runs that
  stop at that point: one before every sample, and more after the last
  until there are :data:`SETUP_PROBES`;
* ``peak_rss_mb`` — median peak resident set of a run.

``--trace 1`` makes one untraced sample and :data:`TRACED_SAMPLES`
traced ones and reports the per-layer metrics of BENCHMARK.json (the
medians over the traced samples, the per-experiment host times of the
untraced one, and the tracing overhead between the two).

Every run's output is checked section by section against the pinned
reference (``reference.py``); one differing ``== name ==`` section is
one failed operation. A run that breaks its workload's cache
precondition is invalid: it is not kept as a sample and all its
operations count as failed. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import reference

ROOT = reference.ROOT
PROBE = reference.HERE / "probe.py"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Scratch space for probe records, outputs and cache dirs; removed at
#: the end of every run.
WORK_ROOT = ROOT / ".perfbench-work"

#: Fewest setup-only runs per untraced benchmark run, besides every
#: sample's own. One runs just before each sample, so most see the host
#: in the same state the samples do.
SETUP_PROBES = 12
#: Fewest samples per untraced run. An ``xgene3-xl`` sample takes
#: ~17 s, so this, not ``--seconds``, sets how many it gets.
MIN_SAMPLES = 3
#: The sampling loop takes no sample that would end past this, so a run
#: on a slow host still exits well within 180 s.
LOOP_LIMIT_S = 120
#: Traced samples per traced run; their counts must repeat exactly.
TRACED_SAMPLES = 2
#: Longest one probe may take before the benchmark gives up.
PROBE_TIMEOUT_S = 60
#: Steps of the loop :func:`fastest_cpu` times on each CPU (~7 ms).
CPU_PROBE_STEPS = 12_000
#: Counts that two traced runs of the same code must report identically.
REPEATED_COUNTS = (
    "sim.events.dispatched",
    "policies.decide.calls",
    "core.placement.calls",
    "vmin.cache.misses",
    "core.policy_table.builds",
    "kernels.points",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _loop_s() -> float:
    """Seconds for a fixed heap, dict and float loop, like the simulator's."""
    started = time.perf_counter()
    heap = [(float(i), i) for i in range(64)]
    heapq.heapify(heap)
    state: Dict[int, float] = {}
    for step in range(CPU_PROBE_STEPS):
        due, key = heapq.heappop(heap)
        state[key] = state.get(key, 1.0) * 1.0001 + (step & 7)
        heapq.heappush(heap, (due + 1.0 + (key & 3) * 0.5, key))
    return time.perf_counter() - started


def fastest_cpu() -> Optional[int]:
    """The allowed CPU that runs a short loop fastest right now, or None
    where CPU affinity is unavailable or only one CPU is allowed."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        return None
    timings = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = min(_loop_s() for _ in range(3))
    finally:
        os.sched_setaffinity(0, allowed)
    return min(timings, key=timings.__getitem__)


@dataclass(frozen=True)
class Workload:
    platform: str
    #: ``memory`` (no --cache-dir) or ``empty`` (fresh dir per sample).
    cache: str


WORKLOADS = {
    "xgene2-cold": Workload("xgene2", "memory"),
    "xgene3-xl-cold": Workload("xgene3-xl", "empty"),
}


@dataclass
class Sample:
    wall_s: float
    setup_s: float
    record: Dict[str, Any]
    stdout: str
    #: Reference sections this run's output missed or changed.
    failed: List[str]
    #: Broken precondition that makes the run invalid, or None.
    problem: Optional[str]


class Bench:
    """Fresh-process samples of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        run_seed = seed % reference.PINNED_SEEDS
        self.workload = workload
        self.work = work
        self.cli = [
            "run-all", "--platform", workload.platform, "--seed", str(run_seed),
        ]
        self.expected = reference.expected_digests(workload.platform, run_seed)
        self.env = reference.child_env()
        self.checked: List[Sample] = []
        #: Trace counts that did not repeat between traced samples.
        self.unrepeated: List[str] = []
        self._count = 0

    # -- one probe -------------------------------------------------------------

    def _probe(self, mode: str, cache_dir: Optional[Path]) -> Sample:
        self._count += 1
        tag = f"{mode}-{self._count}"
        cwd = self.work / tag
        cwd.mkdir()
        record_path = self.work / f"{tag}.json"
        args = self.cli + ["--jobs", "1"]
        if cache_dir is not None:
            args += ["--cache-dir", str(cache_dir)]
        command = [sys.executable, str(PROBE), str(record_path), mode, "--"]
        cpu = fastest_cpu()
        with open(self.work / f"{tag}.out", "w+b") as out, \
                open(self.work / f"{tag}.err", "w+b") as err:
            started = time.monotonic()
            done = subprocess.run(
                command + args, cwd=cwd, env=self.env, stdout=out,
                stderr=err, timeout=PROBE_TIMEOUT_S,
                preexec_fn=None if cpu is None
                else lambda: os.sched_setaffinity(0, {cpu}),
            )
            wall_s = time.monotonic() - started
            out.seek(0)
            stdout = out.read().decode("utf-8", errors="replace")
            err.seek(0)
            stderr = err.read().decode("utf-8", errors="replace")
        record: Dict[str, Any] = {}
        if record_path.exists():
            record = json.loads(record_path.read_text(encoding="utf-8"))
        problem = None
        if done.returncode != 0 or "dispatch_t" not in record:
            problem = f"exit code {done.returncode}: {stderr[-2000:]}"
        elif any(cwd.iterdir()):
            problem = "wrote files into its working directory"
        setup_s = record.get("dispatch_t", started) - started
        return Sample(wall_s, setup_s, record, stdout, [], problem)

    def setup_probe(self) -> float:
        """Seconds from interpreter start to the first dispatch."""
        sample = self._probe("setup", None)
        if sample.problem is not None:
            raise BenchError(f"setup probe failed: {sample.problem}")
        return sample.setup_s

    # -- full runs -------------------------------------------------------------

    def sample(self, mode: str) -> Sample:
        """One checked full run (``mode`` is ``run`` or ``trace``)."""
        if self.workload.cache == "memory":
            return self._check(self._probe(mode, None), "memory")
        cache_dir = self.work / f"cache-{self._count + 1}"
        try:
            return self._check(self._probe(mode, cache_dir), "cold")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _check(self, sample: Sample, kind: str) -> Sample:
        """Compare the output with the reference and test the ``kind``
        (memory or cold) run's cache preconditions."""
        sample.failed = reference.failed_sections(sample.stdout, self.expected)
        if sample.problem is None:
            sample.problem = self._precondition(sample.record, kind)
        print(f"perfbench: run {len(self.checked) + 1} ({kind}): wall "
              f"{sample.wall_s:.3f} s, setup {sample.setup_s:.3f} s",
              file=sys.stderr)
        if sample.problem is not None:
            print(f"perfbench: invalid run: {sample.problem}", file=sys.stderr)
        if sample.failed:
            print(f"perfbench: output differs in {', '.join(sample.failed)}",
                  file=sys.stderr)
        self.checked.append(sample)
        return sample

    def _precondition(self, record: Dict[str, Any], kind: str) -> Optional[str]:
        cache = record["cache"]
        if kind == "memory" and (
            record["cache_dir"] is not None or cache["disk_hits"]
        ):
            return f"used an on-disk cache: {cache}"
        if kind == "cold" and (
            cache["disk_hits"] or not cache["misses"]
            or cache["stores"] != cache["misses"]
        ):
            return f"cold cache dir was not empty: {cache}"
        return None

    # -- accounting ------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.expected) * len(self.checked)

    @property
    def failed(self) -> int:
        return sum(
            len(self.expected) if s.problem is not None else len(s.failed)
            for s in self.checked
        )


def _valid(samples: List[Sample]) -> List[Sample]:
    valid = [s for s in samples if s.problem is None]
    if not valid:
        raise BenchError("no valid sample")
    return valid


def end_to_end(bench: Bench, seconds: float) -> Dict[str, float]:
    """Untraced samples, each after one setup probe, while another still
    fits in ``seconds`` or fewer than :data:`MIN_SAMPLES` were taken."""
    samples: List[Sample] = []
    setups: List[float] = []
    began = time.monotonic()
    while True:
        setups.append(bench.setup_probe())
        samples.append(bench.sample("run"))
        spent = time.monotonic() - began
        next_end = spent + spent / len(samples)
        if next_end > seconds and (
            len(samples) >= MIN_SAMPLES or next_end > LOOP_LIMIT_S
        ):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(bench.setup_probe())
    samples = _valid(samples)
    return {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(setups + [s.setup_s for s in samples]),
        "peak_rss_mb": statistics.median(
            s.record["maxrss_kb"] / 1024.0 for s in samples
        ),
    }


def _layer_values(record: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer figures of one traced run."""
    trace = record["trace"]
    layers = trace["layers"]
    counters = record["counters"]

    def calls(name: str) -> float:
        return layers.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    dispatched = counters.get("sim.events.dispatched", 0)
    host_s = sum(record["experiments"].values())
    points = sum(
        hist["sum"] for name, hist in record["histograms"].items()
        if name.startswith("kernels.") and name.endswith(".batch_points")
    )
    return {
        "sim.run.calls": calls("sim.run"),
        "sim.run.self_s": self_s("sim.run"),
        "sim.events.dispatched": dispatched,
        "sim.host_us_per_event": 1e6 * self_s("sim.run") / max(dispatched, 1),
        "sim.refresh.full": counters.get("sim.refresh.full", 0),
        "sim.refresh.incremental": counters.get("sim.refresh.incremental", 0),
        "policies.decide.calls": calls("policies.decide"),
        "policies.decide.self_s": self_s("policies.decide"),
        "policies.decide.p50_us": 1e6 * trace["decide_p50_s"],
        "policies.decide.p99_us": 1e6 * trace["decide_p99_s"],
        "policies.apply_action.calls": calls("policies.apply_action"),
        "policies.apply_action.self_s": self_s("policies.apply_action"),
        "core.placement.calls": calls("core.placement"),
        "core.placement.self_s": self_s("core.placement"),
        "core.monitoring.sample.self_s": self_s("core.monitoring.sample"),
        "core.policy_table.builds": calls("core.policy_table"),
        "core.policy_table.host_s":
            layers.get("core.policy_table", {}).get("total_s", 0.0),
        "power.chip_power.calls": calls("power.chip_power"),
        "power.chip_power.self_s": self_s("power.chip_power"),
        "vmin.campaign.self_s": self_s("vmin.campaign"),
        "vmin.model.safe_vmin_mv.calls": calls("vmin.model.safe_vmin_mv"),
        "vmin.cache.hits": counters.get("vmin.cache.hits", 0),
        "vmin.cache.misses": counters.get("vmin.cache.misses", 0),
        "vmin.cache.disk_hits": counters.get("vmin.cache.disk_hits", 0),
        "vmin.cache.get.self_s": self_s("vmin.cache.get"),
        "vmin.cache.put.self_s": self_s("vmin.cache.put"),
        "vmin.cache.disk_bytes": record["disk_bytes"],
        "kernels.calls": calls("kernels"),
        "kernels.points": points,
        "kernels.self_s": self_s("kernels"),
        "workloads.generate.calls": calls("workloads.generate"),
        "workloads.generate.self_s": self_s("workloads.generate"),
        "experiments.self_s": host_s - trace["covered_s"],
        "trace.attributed_pct": 100.0 * trace["covered_s"] / host_s,
    }


def per_layer(bench: Bench) -> Dict[str, float]:
    untraced = _valid([bench.sample("run")])[0]
    traced = _valid([bench.sample("trace") for _ in range(TRACED_SAMPLES)])
    runs = [_layer_values(s.record) for s in traced]
    for name in REPEATED_COUNTS:
        if len({run[name] for run in runs}) != 1:
            print(f"perfbench: {name} differs between traced runs: "
                  f"{[run[name] for run in runs]}", file=sys.stderr)
            bench.unrepeated.append(name)
    for hook in traced[0].record["trace"]["missing"]:
        print(f"perfbench: no entry point {hook} to trace", file=sys.stderr)
    values = {
        name: statistics.median(run[name] for run in runs) for name in runs[0]
    }
    traced_wall = statistics.median(s.wall_s for s in traced)
    values["trace.overhead_pct"] = (
        100.0 * (traced_wall - untraced.wall_s) / untraced.wall_s
    )
    for name, host_s in untraced.record["experiments"].items():
        values[f"experiments.{name}.host_s"] = host_s
    return values


def result(bench: Bench, values: Dict[str, float], trace: bool) -> Dict[str, Any]:
    """The JSON result: every metric BENCHMARK.json lists for this mode."""
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        if metric["name"] not in values:
            raise BenchError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {
            "value": values[metric["name"]], "unit": metric["unit"],
        }
    return {
        "correct": bench.failed == 0 and not bench.unrepeated,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # Byte-compile once, untimed, so no sample pays for it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            check=True, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S,
        )
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            values = per_layer(bench)
        else:
            values = end_to_end(bench, args.seconds)
        payload = result(bench, values, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
