"""One fresh-interpreter ``repro`` run, as the benchmark measures it.

``run.py`` starts this script once per sample::

    python3 perfbench/probe.py RECORD MODE -- CLI_ARGS...

and the script drives the public CLI entry ``repro.cli.main(CLI_ARGS)``.
MODE is one of:

* ``run`` — the whole command, untraced;
* ``setup`` — stop with exit code 0 at the moment the first experiment
  would be dispatched, so only imports, argument parsing and the
  platform registry are paid;
* ``trace`` — the whole command with every public layer entry point in
  :data:`HOOKS` wrapped by a :class:`Tracer`, and the existing
  ``repro.telemetry.session()`` counters switched on.

RECORD receives one JSON object: the ``time.monotonic()`` instant the
first experiment was dispatched (the system-wide clock ``run.py`` also
reads before starting the process), the exit code, the peak resident
set, the characterization-cache counters, the per-experiment host time
from ``RunSummary.outcomes`` and, when tracing, the per-layer figures.
Nothing is added inside ``src/``: every span is recorded from here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute) of every timed public entry point. Calls
#: of several entry points of one layer add up under the layer's name.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.system", "ServerSystem.run"),
    ("policies.apply_action", "repro.policies.actuation", "apply_action"),
    ("core.placement", "repro.core.placement", "PlacementEngine.plan"),
    ("core.placement", "repro.core.placement", "PlacementEngine.retune"),
    ("core.placement", "repro.core.placement", "PlacementEngine.action_for"),
    ("core.placement", "repro.core.placement",
     "PlacementEngine.arrival_raise_mv"),
    ("core.monitoring.sample", "repro.core.monitoring",
     "MonitoringDaemon.sample"),
    ("core.policy_table", "repro.core.policy",
     "VminPolicyTable.from_characterization"),
    ("power.chip_power", "repro.power.model", "PowerModel.chip_power"),
    ("vmin.campaign", "repro.vmin.characterize",
     "VminCampaign.measure_safe_vmin"),
    ("vmin.campaign", "repro.vmin.characterize",
     "VminCampaign.measure_safe_vmin_batch"),
    ("vmin.campaign", "repro.vmin.characterize",
     "VminCampaign.scan_unsafe_region"),
    ("vmin.campaign", "repro.vmin.characterize",
     "VminCampaign.scan_unsafe_region_batch"),
    ("vmin.campaign", "repro.vmin.characterize", "VminCampaign.pfail_curve"),
    ("vmin.campaign", "repro.vmin.characterize", "VminCampaign.pfail_curves"),
    ("vmin.model.safe_vmin_mv", "repro.vmin.model", "VminModel.safe_vmin_mv"),
    ("vmin.cache.get", "repro.vmin.cache", "VminCache.get"),
    ("vmin.cache.put", "repro.vmin.cache", "VminCache.put"),
    ("workloads.generate", "repro.workloads.generator",
     "ServerWorkloadGenerator.generate"),
)
#: Every ``decide`` a class of this package defines is a policy decision.
POLICY_PACKAGE = "repro.policies"
#: Every public function defined in these modules is a kernel call.
KERNEL_MODULES = (
    "repro.kernels.vmin", "repro.kernels.faults", "repro.kernels.power",
)
#: Layer whose per-call durations are kept for percentiles.
DECIDE = "policies.decide"


class Layer:
    """Calls, total time and self time of one layer's entry points.

    Only the outermost call of a layer counts as a call and adds to the
    total, so a policy stack deciding through its members is one
    decision; self time is every call's duration minus the wrapped calls
    nested inside it.
    """

    __slots__ = ("calls", "total_s", "self_s", "depth", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.durations: Optional[List[float]] = [] if keep_durations else None


class Tracer:
    """Wraps entry points; keeps every span in memory until the end."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        #: Time spent inside any outermost wrapped call.
        self.covered_s = 0.0
        self.missing: List[str] = []
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer(keep_durations=name == DECIDE)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            nested = [0.0]
            stack.append(nested)
            layer.depth += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                layer.depth -= 1
                layer.self_s += elapsed - nested[0]
                if layer.depth == 0:
                    layer.calls += 1
                    layer.total_s += elapsed
                    if layer.durations is not None:
                        layer.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered_s += elapsed

        return traced

    def wrap_method(self, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__.get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
        elif callable(raw):
            setattr(cls, attr, self.wrap(name, raw))
        else:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")

    def wrap_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it,
        so callers that imported it by name call the wrapper too."""
        wrapped = self.wrap(name, fn)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)

    def install(self) -> None:
        """Wrap every entry point in :data:`HOOKS`, the policy classes'
        ``decide`` and the kernel functions."""
        for name, module_name, path in HOOKS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if inspect.isclass(owner):
                self.wrap_method(name, owner, attr)
            elif owner is not None and callable(getattr(owner, attr, None)):
                self.wrap_function(name, getattr(owner, attr))
            else:
                self.missing.append(f"{module_name}.{path}")
        package = importlib.import_module(POLICY_PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{POLICY_PACKAGE}.{info.name}")
            for cls in vars(module).values():
                if (inspect.isclass(cls) and cls.__module__ == module.__name__
                        and "decide" in cls.__dict__):
                    self.wrap_method(DECIDE, cls, "decide")
        for module_name in KERNEL_MODULES:
            module = importlib.import_module(module_name)
            for key, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not key.startswith("_")
                        and value.__module__ == module_name):
                    self.wrap_function("kernels", value)

    def report(self) -> Dict[str, Any]:
        layers = {
            name: {"calls": layer.calls, "total_s": layer.total_s,
                   "self_s": layer.self_s}
            for name, layer in sorted(self.layers.items())
        }
        durations = self.layers[DECIDE].durations or [0.0]
        cuts = (statistics.quantiles(durations, n=100)
                if len(durations) > 1 else durations * 99)
        return {
            "layers": layers,
            "covered_s": self.covered_s,
            "decide_p50_s": cuts[49],
            "decide_p99_s": cuts[98],
            "missing": self.missing,
        }


def _write(path: str, record: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def main(argv: List[str]) -> int:
    record_path, mode, separator, *cli_args = argv
    if separator != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit("usage: probe.py RECORD run|setup|trace -- ARGS...")
    from repro import cli
    from repro.experiments import orchestrator

    record: Dict[str, Any] = {}
    run_experiments = orchestrator.run_experiments

    def dispatch(*args: Any, **kwargs: Any) -> Any:
        record.setdefault("dispatch_t", time.monotonic())
        if mode == "setup":
            _write(record_path, record)
            raise SystemExit(0)
        summary = run_experiments(*args, **kwargs)
        record["experiments"] = {
            item.name: item.elapsed_s for item in summary.outcomes
        }
        return summary

    orchestrator.run_experiments = dispatch
    if mode == "trace":
        from repro import telemetry

        tracer = Tracer()
        tracer.install()
        with telemetry.session() as registry:
            rc = cli.main(cli_args)
        snap = registry.snapshot()
        record["trace"] = tracer.report()
        record["counters"] = snap["counters"]
        record["histograms"] = snap["histograms"]
    else:
        rc = cli.main(cli_args)
    from repro.vmin.cache import get_default_cache

    cache = get_default_cache()
    if mode == "trace":
        # A directory scan: kept out of the untraced runs' wall time.
        record["disk_bytes"] = cache.disk_bytes()
    record.update(
        rc=rc,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        cache_dir=None if cache.cache_dir is None else str(cache.cache_dir),
        cache={
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "stores": cache.stats.stores,
            "disk_hits": cache.stats.disk_hits,
        },
    )
    _write(record_path, record)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
