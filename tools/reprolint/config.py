"""Project-specific configuration of the reprolint rules.

Everything the rules know about *this* repository lives here — which
modules must be deterministic, which dataclasses sit on hot paths,
where the kernel/scalar parity registry is. Changing the repo layout
means updating this file, not the rules.
"""

from __future__ import annotations

#: Module prefixes whose code must be reproducible run-to-run: the
#: simulation core, the characterization/Vmin stack (including the
#: content-addressed cache), the batched kernels and the replayable
#: workload generators. RL002 flags unseeded randomness, wall-clock
#: reads and hash-order-dependent set iteration here.
DETERMINISTIC_MODULES = (
    "repro.sim",
    "repro.vmin",
    "repro.kernels",
    "repro.workloads",
)

#: Module prefixes whose dataclasses are allocated on hot paths and
#: must declare ``slots=True`` (RL005).
HOT_DATACLASS_MODULES = (
    "repro.sim",
    "repro.kernels",
)

#: Modules allowed to spell out raw unit conversions: the unit helpers
#: themselves, and the pure-display table formatter.
UNITS_EXEMPT_MODULES = (
    "repro.units",
    "repro.analysis.tables",
)

#: Identifier tokens that mark a value as unit-bearing (RL001). A
#: name's tokens are its snake_case words; ``v`` and ``w`` alone are
#: too ambiguous and only count as trailing unit *suffixes*.
UNIT_TOKENS = frozenset(
    {
        "mv",
        "volt",
        "volts",
        "voltage",
        "voltages",
        "hz",
        "ghz",
        "mhz",
        "freq",
        "freqs",
        "frequency",
        "frequencies",
        "watt",
        "watts",
        "power",
    }
)

#: Magic conversion factors RL001 refuses next to unit-bearing names.
MAGIC_FACTORS = frozenset({1e3, 1e6, 1e9, 1e-3, 1e-6, 1e-9})

#: ``repro.units`` helpers mapped to the unit suffixes their argument
#: must NOT carry (the argument is in the *source* unit; an argument
#: already suffixed with the target or an unrelated unit contradicts
#: the conversion). Used by RL001's suffix-contradiction check.
HELPER_FORBIDDEN_SUFFIXES = {
    "ghz": frozenset({"hz", "mhz", "mv", "v", "w"}),
    "mhz": frozenset({"hz", "ghz", "mv", "v", "w"}),
    "hz_to_ghz": frozenset({"ghz", "mhz", "mv", "v", "w"}),
    "mv_to_v": frozenset({"v", "hz", "ghz", "mhz", "w"}),
    "v_to_mv": frozenset({"mv", "hz", "ghz", "mhz", "w"}),
    "fmt_freq": frozenset({"ghz", "mhz", "mv", "v", "w"}),
    "fmt_mv": frozenset({"v", "hz", "ghz", "mhz", "w"}),
}

#: Unit suffixes recognized at the end of an identifier.
UNIT_SUFFIXES = frozenset(
    {"mv", "v", "hz", "ghz", "mhz", "w", "mw", "kw"}
)

#: Marker decorator of cache-key-producing functions (RL004).
CACHE_KEY_DECORATOR = "cache_key_producer"

#: Every rule id the suite can emit. Suppression comments naming an id
#: outside this set are typos that would silence nothing — RL000 flags
#: them (see :func:`reprolint.engine.suppression_findings`).
KNOWN_RULE_IDS = frozenset(
    {
        "RL000",
        "RL001",
        "RL002",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
        "RL007",
        "RL008",
        "RL009",
        "RL010",
    }
)

#: Per-path rule scoping: repo-relative path prefixes mapped to the
#: rule ids disabled beneath them. ``examples/`` holds freestanding
#: demo scripts whose ad-hoc locals are outside the interprocedural
#: units/effects contracts.
PATH_RULE_SCOPES = (
    ("examples/", frozenset({"RL008", "RL009"})),
)


def rules_disabled_for(rel_path: str) -> frozenset:
    """Rule ids disabled for a repo-relative path by PATH_RULE_SCOPES."""
    disabled = set()
    normalized = rel_path.replace("\\", "/")
    for prefix, rule_ids in PATH_RULE_SCOPES:
        if normalized.startswith(prefix) or f"/{prefix}" in normalized:
            disabled.update(rule_ids)
    return frozenset(disabled)


# -- RL008 interprocedural units inference -------------------------------------

#: The dimensionless unit (plain counts, ratios, bare literals).
DIMENSIONLESS = "1"

#: Canonical units of the RL008 lattice.
UNIT_LATTICE = frozenset(
    {"mV", "V", "Hz", "MHz", "GHz", "W", "mW", "J", "s", DIMENSIONLESS}
)

#: Identifier suffix token -> canonical unit (``safe_vmin_mv`` -> mV).
SUFFIX_UNITS = {
    "mv": "mV",
    "millivolts": "mV",
    "v": "V",
    "volts": "V",
    "hz": "Hz",
    "mhz": "MHz",
    "ghz": "GHz",
    "w": "W",
    "watts": "W",
    "mw": "mW",
    "j": "J",
    "joules": "J",
    "s": "s",
    "secs": "s",
    "seconds": "s",
}

#: ``repro.units`` converters: qualname -> (parameter units, return
#: unit). The seed of the RL008 inference — these are the only places
#: where a value legitimately changes unit.
UNIT_CONVERTERS = {
    "repro.units.ghz": (("GHz",), "Hz"),
    "repro.units.mhz": (("MHz",), "Hz"),
    "repro.units.hz_to_ghz": (("Hz",), "GHz"),
    "repro.units.mv_to_v": (("mV",), "V"),
    "repro.units.v_to_mv": (("V",), "mV"),
    "repro.units.joules": (("W", "s"), "J"),
    "repro.units.fmt_freq": (("Hz",), None),
    "repro.units.fmt_mv": (("mV",), None),
}

#: ``typing.Annotated`` unit aliases exported by ``repro.units``:
#: qualname -> unit. Mirrors the alias section of
#: ``src/repro/units.py`` so annotations resolve even when that file
#: is not among the lint targets.
BUILTIN_UNIT_ALIASES = {
    "repro.units.Millivolts": "mV",
    "repro.units.Volts": "V",
    "repro.units.Hertz": "Hz",
    "repro.units.HertzInt": "Hz",
    "repro.units.Megahertz": "MHz",
    "repro.units.Gigahertz": "GHz",
    "repro.units.Watts": "W",
    "repro.units.Joules": "J",
    "repro.units.Seconds": "s",
}

#: Modules exempt from RL008's inference: the converters themselves
#: (they *define* the unit boundaries) and the display-only formatter.
UNITFLOW_EXEMPT_MODULES = UNITS_EXEMPT_MODULES

#: Module prefixes whose effects RL009 does not propagate: telemetry
#: reads monotonic clocks by design, and its timings are excluded from
#: every result fingerprint (docs/OBSERVABILITY.md).
EFFECT_EXEMPT_MODULES = ("repro.telemetry",)

#: Scalar model modules whose public API must appear in the parity
#: registry (RL003): dotted name -> repo-relative path.
SCALAR_MODEL_MODULES = {
    "repro.vmin.model": "src/repro/vmin/model.py",
    "repro.vmin.faults": "src/repro/vmin/faults.py",
    "repro.power.model": "src/repro/power/model.py",
}

#: The parity registry module (RL003 parses its dict literals).
PARITY_REGISTRY_PATH = "src/repro/kernels/parity.py"

#: Package holding the batched kernels; every PARITY value must name a
#: function defined in one of its modules.
KERNELS_PACKAGE_PATH = "src/repro/kernels"
KERNELS_PACKAGE_NAME = "repro.kernels"

#: The declarative platform package (RL007). Chip identity lives in
#: its registry; everything outside it must resolve chips through
#: registry keys (``get_platform``/``platform_key_for_spec``), never
#: by spelling out a display name.
PLATFORM_PACKAGE = "repro.platform"

#: Chip display-name literals banned outside the platform package
#: (RL007). Substring match, so derived names ("X-Gene 3 XL") and
#: embedded uses (f-strings, table headers) are caught too.
PLATFORM_NAME_LITERALS = ("X-Gene 2", "X-Gene 3")

#: The control-plane package and its sanctioned actuation funnel
#: (RL010). Policies *describe* hardware changes as Action values; the
#: funnel clamps the rail to the safe-Vmin table and is the one
#: non-platform module allowed to invoke the SLIMpro/CPPC mutators and
#: to move or place threads, under reasoned suppressions.
POLICIES_PACKAGE = "repro.policies"
ACTUATION_FUNNEL = "repro.policies.actuation.apply_action"

#: Method names that mutate hardware set-points (SLIMpro rail writes,
#: CPPC frequency requests) or thread placement (the simulator's
#: atomic migration and its admission of an arriving process). Calling
#: any of these outside ``repro.platform`` or the actuation funnel
#: bypasses the fail-safe raise and the funnel's safe-Vmin clamp
#: (RL010).
ACTUATION_METHODS = frozenset(
    {
        "set_voltage",
        "set_voltage_mv",
        "set_pmd_frequency",
        "set_all_frequencies",
        "request",
        "request_all",
        "migrate_many",
        "admit",
    }
)

#: The telemetry package and its central metric-name registry module
#: (RL006). Call sites anywhere in the package must pass constants
#: from the registry module to the telemetry API.
TELEMETRY_PACKAGE = "repro.telemetry"
TELEMETRY_NAMES_MODULE = "repro.telemetry.names"

#: Module-level telemetry API functions whose first argument is a
#: metric name (RL006 checks these call sites).
TELEMETRY_API_FUNCS = frozenset(
    {"inc", "set_gauge", "observe", "span"}
)

#: Wall-clock callables (module attr form) treated as nondeterministic.
WALL_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: ``random`` module functions that mutate/read the global RNG stream.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "getrandbits",
        "seed",
    }
)

#: ``numpy.random`` module-level functions backed by the global state.
GLOBAL_NP_RANDOM_FUNCS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "binomial",
        "multinomial",
        "normal",
        "uniform",
        "seed",
    }
)
