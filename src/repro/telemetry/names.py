"""Central registry of telemetry metric names.

Every metric the instrumentation emits is declared here, once, as a
``dot.scoped`` string literal. Call sites must reference these
constants — never inline strings and never f-strings — so the full
metric vocabulary is greppable in one module and reprolint rule RL006
can statically verify both sides: this module only declares well-formed
unique names, and the instrumented layers only use them.

Naming scheme: ``<layer>.<subsystem>.<quantity>``, lower case, words
separated by underscores inside a segment. Counters count events,
gauges hold last-written values, histograms aggregate a distribution
(count/sum/min/max) and spans aggregate wall-clock timings — spans are
the only metrics allowed to carry nondeterministic (timing) values.
"""

from __future__ import annotations

# -- simulation engine (repro.sim) --------------------------------------------

SIM_EVENTS_DISPATCHED = "sim.events.dispatched"
SIM_EVENTS_SCHEDULED = "sim.events.scheduled"
SIM_EVENTS_CANCELLED = "sim.events.cancelled"
SIM_EVENT_ARRIVALS = "sim.events.arrivals"
SIM_EVENT_FINISHES = "sim.events.finishes"
SIM_EVENT_PHASES = "sim.events.phases"
SIM_EVENT_TICKS = "sim.events.ticks"
SIM_EVENTS_FOLDED = "sim.events.folded"
SIM_CONTROLLER_CALLBACKS = "sim.controller.callbacks"
SIM_TRACE_SAMPLES = "sim.trace.samples"
SIM_VOLTAGE_TRANSITIONS = "sim.rail.voltage_transitions"
SIM_FREQUENCY_TRANSITIONS = "sim.rail.frequency_transitions"
SIM_VIOLATIONS = "sim.rail.violations"
SIM_MAKESPAN_S = "sim.run.makespan_sim_s"
SIM_ENERGY_J = "sim.run.energy_j"
SIM_RUNS = "sim.run.completed"
SIM_REFRESH_FULL = "sim.refresh.full"
SIM_REFRESH_INCREMENTAL = "sim.refresh.incremental"
SIM_RESCHEDULE_ELIDED = "sim.reschedule.elided"

# -- online monitoring daemon (repro.core) ------------------------------------

DAEMON_CLASSIFICATIONS = "daemon.monitor.classifications"
DAEMON_CLASS_FLIPS = "daemon.monitor.class_flips"
DAEMON_REPLANS = "daemon.placement.replans"
DAEMON_RETUNES = "daemon.placement.retunes"
DAEMON_PLACEMENTS = "daemon.placement.arrival_raises"

# -- policy control plane (repro.policies) ------------------------------------

POLICY_CLAMPS = "policy.clamps"

# -- characterization cache (repro.vmin.cache) --------------------------------

VMIN_CACHE_HITS = "vmin.cache.hits"
VMIN_CACHE_MISSES = "vmin.cache.misses"
VMIN_CACHE_STORES = "vmin.cache.stores"
VMIN_CACHE_DISK_HITS = "vmin.cache.disk_hits"
VMIN_CACHE_CORRUPT = "vmin.cache.corrupt_discarded"
VMIN_CACHE_DISK_BYTES = "vmin.cache.disk_bytes"

# -- batched kernels (repro.kernels) -------------------------------------------

KERNELS_VMIN_BATCH = "kernels.vmin.batch_points"
KERNELS_POWER_BATCH = "kernels.power.batch_points"
KERNELS_FAULTS_BATCH = "kernels.faults.batch_points"

# -- experiment orchestrator (repro.experiments.orchestrator) -----------------

ORCH_EXPERIMENTS_COMPLETED = "orchestrator.experiments.completed"
ORCH_QUEUE_DEPTH = "orchestrator.scheduler.queue_depth"
ORCH_INFLIGHT = "orchestrator.scheduler.inflight"
ORCH_EXPERIMENT_SPAN = "orchestrator.experiment.wall"
ORCH_RUN_SPAN = "orchestrator.run.wall"
