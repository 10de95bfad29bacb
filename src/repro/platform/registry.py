"""Declarative platform registry: one bundle per chip, loaded from files.

Historically each layer kept its own chip-name-keyed dict of constants:
base-Vmin tables in ``vmin.model``, variation limits in
``vmin.variation``, power coefficients in ``power.model``, thermal
constants in ``platform.thermal``, memory calibration in ``perf.model``
and characterization grids inside the Fig. 3 experiment. Adding a chip
meant editing six modules and hoping no string comparison fell through
to the wrong default.

A :class:`PlatformModel` packages all of that — the :class:`ChipSpec`,
the ground-truth Vmin base surface, per-core variation parameters, droop
distribution knobs, fault/pfail parameters, power coefficients, thermal
constants and workload calibration hooks — under one stable key
(``xgene2``, ``xgene3``, ``xgene3-xl``). The built-in bundles are
defined *declaratively* in ``platform/defs/*.toml`` and loaded on first
use; a new chip is a new spec file, no code, registered with
``register_model(load_platform_file(path))``. The registered bundle is
the only source of per-chip parameters: each consumer reads its section
through :func:`model_for_spec` once, outside any hot loop, and a chip
with no registered bundle is a :class:`ConfigurationError`, never a
silent default.

The ``repro platform list|show|validate`` CLI (``platform.cli``) fronts
this module.
"""

from __future__ import annotations

import functools
import json
import tomllib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_type_hints,
)

from ..errors import ConfigurationError
from ..units import HertzInt, Millivolts, ghz, hz_to_ghz
from .specs import CacheSpec, ChipSpec, FrequencyClass
from .thermal import ThermalParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..power.model import PowerParams


@dataclass(frozen=True)
class VariationParams:
    """Static per-core Vmin variation envelope of one chip family."""

    #: Largest static core offset of the family's population, mV.
    max_offset_mv: Millivolts = 25.0
    #: Hand-laid per-core offsets reproducing the paper's specific chip
    #: at ``silicon_seed=0`` (X-Gene 2's robust-PMD2 pattern, Fig. 4);
    #: ``None`` means every seed draws from the population.
    paper_offsets_mv: Optional[Tuple[float, ...]] = None


@dataclass(frozen=True)
class DroopParams:
    """Droop-event distribution knobs (rates, not magnitudes)."""

    #: Detections per 1 M cycles in the configuration's ceiling bin.
    base_rate_per_mcycles: float = 40.0
    #: Rate multiplier per bin below the ceiling.
    lower_bin_multiplier: float = 2.5
    #: Residual rate in bins above the ceiling (Fig. 6: "almost zero").
    above_ceiling_rate: float = 0.02
    #: Rate scaling of the SKIP / DIVIDE frequency classes vs HIGH.
    freq_scale_skip: float = 0.55
    freq_scale_divide: float = 0.2


@dataclass(frozen=True)
class FaultParams:
    """Unsafe-region geometry below the safe Vmin (Fig. 5)."""

    #: Unsafe-region width at the mildest droop class, mV.
    max_width_mv: Millivolts = 50.0
    #: Width shrink per droop class (steeper cliff at larger droops), mV.
    width_step_mv: Millivolts = 7.0
    #: Width floor, mV.
    min_width_mv: Millivolts = 20.0


@dataclass(frozen=True)
class PerfCalibration:
    """Workload-model calibration hooks of one chip."""

    #: Memory-path slowdown vs the reference platform (X-Gene 3 = 1.0).
    mem_time_scale: float = 1.0


@dataclass(frozen=True)
class CharacterizationGrid:
    """(thread count, frequency) grid of the Fig. 3 campaign."""

    threads: Tuple[int, ...]
    freqs_hz: Tuple[HertzInt, ...]


@dataclass(frozen=True)
class PlatformModel:
    """Everything the pipeline needs to know about one chip."""

    #: Stable registry key (``xgene2`` / ``xgene3`` / ``xgene3-xl``).
    key: str
    spec: ChipSpec
    #: Ground-truth base Vmin (mV) per frequency class, one value per
    #: droop class ordered mild to severe.
    vmin_base_mv: Dict[FrequencyClass, Tuple[int, ...]]
    variation: VariationParams
    droop: DroopParams
    faults: FaultParams
    power: "PowerParams"
    thermal: ThermalParams
    perf: PerfCalibration
    characterization: CharacterizationGrid


#: Registered bundles by normalized key.
_MODELS: Dict[str, PlatformModel] = {}
#: Normalized chip display name -> normalized registry key.
_BY_SPEC_NAME: Dict[str, str] = {}
_BUILTINS_LOADED = False


def _platform_key(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "").replace(" ", "")


def builtin_defs_dir() -> Path:
    """Directory holding the shipped declarative spec files."""
    return Path(__file__).resolve().parent / "defs"


def spec_files() -> Tuple[Path, ...]:
    """All shipped spec files, sorted for deterministic load order."""
    return tuple(sorted(builtin_defs_dir().glob("*.toml")))


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    for path in spec_files():
        register_model(load_platform_file(path))


def register_model(model: PlatformModel, validate: bool = True) -> str:
    """Register a platform bundle; returns its normalized key.

    Re-registering a key overwrites it. ``validate=True`` (the default)
    runs :func:`validate_model` first and refuses inconsistent bundles.
    """
    key = _platform_key(model.key)
    if not key:
        raise ConfigurationError("platform key must be non-empty")
    if validate:
        problems = validate_model(model)
        if problems:
            raise ConfigurationError(
                f"platform {model.key!r} failed validation: "
                + "; ".join(problems)
            )
    _MODELS[key] = model
    _BY_SPEC_NAME[_platform_key(model.spec.name)] = key
    return key


def platform_keys() -> Tuple[str, ...]:
    """Display keys of every registered bundle, sorted."""
    _ensure_builtins()
    return tuple(sorted(model.key for model in _MODELS.values()))


def try_get_platform(name: str) -> Optional[PlatformModel]:
    """Bundle for a registry key or chip display name, or ``None``."""
    _ensure_builtins()
    key = _platform_key(name)
    if key in _MODELS:
        return _MODELS[key]
    mapped = _BY_SPEC_NAME.get(key)
    if mapped is not None:
        return _MODELS[mapped]
    return None


def get_platform(name: str) -> PlatformModel:
    """Bundle for a registry key or chip display name."""
    model = try_get_platform(name)
    if model is None:
        raise ConfigurationError(
            f"unknown platform {name!r}; known: {list(platform_keys())}"
        )
    return model


def model_for_spec(spec: ChipSpec) -> PlatformModel:
    """Registered bundle whose chip matches ``spec``'s display name.

    Every per-chip layer (Vmin surface, variation, droop, faults, power,
    thermal, perf calibration, the Fig. 3 grid) reads its parameters
    through this lookup. Raises :class:`ConfigurationError` naming the
    chip when no bundle is registered for it.
    """
    model = try_get_platform(spec.name)
    if model is None:
        raise ConfigurationError(
            f"no platform bundle registered for chip {spec.name!r}; "
            "register one with register_model(load_platform_file(path))"
        )
    return model


def platform_key_for_spec(spec: ChipSpec) -> str:
    """Registry key of a spec's platform; empty string if unregistered."""
    model = try_get_platform(spec.name)
    return model.key if model is not None else ""


# -- declarative (de)serialization --------------------------------------------


def _table(value: Any, section: str) -> Dict[str, Any]:
    """A spec-file table as a fresh dict; any other shape is refused."""
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"[{section}] must be a table, not {type(value).__name__}"
        )
    return dict(value)


def _require(data: Mapping[str, Any], section: str) -> Dict[str, Any]:
    if section not in data:
        raise ConfigurationError(f"spec is missing the [{section}] table")
    return _table(data[section], section)


def _array(
    value: Any, section: str, name: str, convert: Callable[[Any], Any]
) -> Tuple[Any, ...]:
    """A spec-file array of numbers, each passed through ``convert``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(
            f"[{section}] {name} must be an array, not {type(value).__name__}"
        )
    try:
        return tuple(convert(item) for item in value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"[{section}] {name} must be an array of numbers"
        ) from None


def _scalar_ok(value: Any, expected: Any) -> bool:
    """Whether ``value`` fits a scalar field type; other fields pass."""
    if expected not in (bool, int, float, str):
        return True
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


#: Resolved field types per parameter dataclass (resolving is slow).
_field_types = functools.cache(get_type_hints)


def _params_from(cls: Any, section: str, data: Any) -> Any:
    fields = _table(data, section)
    hints = _field_types(cls)
    for name, value in fields.items():
        expected = hints.get(name)
        if not _scalar_ok(value, expected):
            raise ConfigurationError(
                f"[{section}] {name} must be {expected.__name__}, "
                f"not {type(value).__name__}"
            )
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ConfigurationError(f"[{section}]: {exc}") from None


def model_from_dict(data: Mapping[str, Any]) -> PlatformModel:
    """Build a :class:`PlatformModel` from parsed spec-file data.

    Every wrong shape (a scalar where a table or array belongs, a string
    where a number belongs) raises :class:`ConfigurationError` naming
    its section.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError("spec must be a table of sections")
    platform = _require(data, "platform")
    key = str(platform.get("key", ""))
    if not key:
        raise ConfigurationError("[platform] needs a non-empty 'key'")

    chip = _require(data, "chip")
    caches_data = chip.pop("caches", None)
    if caches_data is None:
        raise ConfigurationError("spec is missing the [chip.caches] table")
    caches = _params_from(CacheSpec, "chip.caches", caches_data)
    spec = _params_from(ChipSpec, "chip", {**chip, "caches": caches})

    vmin = _require(data, "vmin")
    base_data = vmin.pop("base_mv", None)
    if base_data is None:
        raise ConfigurationError("spec is missing the [vmin.base_mv] table")
    base: Dict[FrequencyClass, Tuple[int, ...]] = {}
    for class_name, row in _table(base_data, "vmin.base_mv").items():
        try:
            freq_class = FrequencyClass(class_name)
        except ValueError:
            raise ConfigurationError(
                f"[vmin.base_mv]: unknown frequency class {class_name!r}"
            ) from None
        base[freq_class] = _array(row, "vmin.base_mv", class_name, int)

    variation_data = _table(vmin.pop("variation", {}), "vmin.variation")
    paper = variation_data.pop("paper_offsets_mv", None)
    if paper is not None:
        variation_data["paper_offsets_mv"] = _array(
            paper, "vmin.variation", "paper_offsets_mv", float
        )
    variation = _params_from(
        VariationParams, "vmin.variation", variation_data
    )
    droop = _params_from(DroopParams, "vmin.droop", vmin.pop("droop", {}))
    faults = _params_from(FaultParams, "vmin.faults", vmin.pop("faults", {}))
    if vmin:
        raise ConfigurationError(
            f"[vmin]: unknown entries {sorted(vmin)}"
        )

    from ..power.model import PowerParams

    power = _params_from(PowerParams, "power", _require(data, "power"))
    thermal = _params_from(ThermalParams, "thermal", _require(data, "thermal"))
    perf = _params_from(PerfCalibration, "perf", data.get("perf", {}))

    char = _require(data, "characterization")
    for name in ("threads", "freqs_ghz"):
        if name not in char:
            raise ConfigurationError(f"[characterization] needs {name!r}")
    grid = CharacterizationGrid(
        threads=_array(char["threads"], "characterization", "threads", int),
        freqs_hz=_array(
            char["freqs_ghz"], "characterization", "freqs_ghz", ghz
        ),
    )

    return PlatformModel(
        key=key,
        spec=spec,
        vmin_base_mv=base,
        variation=variation,
        droop=droop,
        faults=faults,
        power=power,
        thermal=thermal,
        perf=perf,
        characterization=grid,
    )


def model_to_dict(model: PlatformModel) -> Dict[str, Any]:
    """Serialize a bundle back to its declarative spec-file shape.

    ``model_from_dict(model_to_dict(m))`` reconstructs an equal bundle —
    the round-trip invariant the registry test suite pins for every
    shipped platform.
    """
    chip = asdict(model.spec)
    variation: Dict[str, Any] = {
        "max_offset_mv": model.variation.max_offset_mv
    }
    if model.variation.paper_offsets_mv is not None:
        variation["paper_offsets_mv"] = list(model.variation.paper_offsets_mv)
    return {
        "platform": {"key": model.key},
        "chip": chip,
        "vmin": {
            "base_mv": {
                freq_class.value: list(row)
                for freq_class, row in sorted(
                    model.vmin_base_mv.items(), key=lambda item: item[0].value
                )
            },
            "variation": variation,
            "droop": asdict(model.droop),
            "faults": asdict(model.faults),
        },
        "power": asdict(model.power),
        "thermal": asdict(model.thermal),
        "perf": asdict(model.perf),
        "characterization": {
            "threads": list(model.characterization.threads),
            "freqs_ghz": [
                hz_to_ghz(f) for f in model.characterization.freqs_hz
            ],
        },
    }


def load_platform_file(path: Union[str, Path]) -> PlatformModel:
    """Load one declarative platform spec file (TOML or JSON)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    try:
        if path.suffix.lower() == ".json":
            data = json.loads(text)
        else:
            data = tomllib.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"{path.name}: {exc}") from exc
    try:
        return model_from_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path.name}: {exc}") from exc


# -- validation ----------------------------------------------------------------


def validate_model(model: PlatformModel) -> List[str]:
    """Consistency problems of a bundle; empty list means valid.

    Checks the cross-layer invariants no single dataclass can see:
    Vmin rows match the chip's droop ladder and stay monotone (worse
    droop class never lowers the Vmin, lower frequency class never
    raises it), variation offsets fit the family envelope, idle power
    sits below TDP, and the characterization grid only names thread
    counts and frequency steps the chip actually has.
    """
    from ..vmin.droop import droop_ladder

    problems: List[str] = []
    spec = model.spec
    nominal = spec.nominal_voltage_mv
    n_classes = len(droop_ladder(spec))

    table = model.vmin_base_mv
    for required in (FrequencyClass.HIGH, FrequencyClass.SKIP):
        if required not in table:
            problems.append(
                f"vmin.base_mv is missing the {required.value!r} row"
            )
    for freq_class, row in table.items():
        if len(row) != n_classes:
            problems.append(
                f"vmin.base_mv.{freq_class.value} has {len(row)} droop "
                f"classes, chip has {n_classes}"
            )
        if list(row) != sorted(row):
            problems.append(
                f"vmin.base_mv.{freq_class.value} must be non-decreasing "
                "in the droop class"
            )
        if row and max(row) > nominal:
            problems.append(
                f"vmin.base_mv.{freq_class.value} exceeds the nominal "
                f"{nominal} mV"
            )
    order = (
        FrequencyClass.HIGH,
        FrequencyClass.SKIP,
        FrequencyClass.DIVIDE,
    )
    present = [fc for fc in order if fc in table]
    for upper, lower in zip(present, present[1:]):
        if any(
            lo > hi for hi, lo in zip(table[upper], table[lower])
        ):
            problems.append(
                f"vmin.base_mv.{lower.value} must not exceed "
                f"vmin.base_mv.{upper.value} (Vmin is non-increasing as "
                "the frequency class drops)"
            )

    variation = model.variation
    if variation.max_offset_mv < 0:
        problems.append("variation.max_offset_mv must be non-negative")
    if variation.paper_offsets_mv is not None:
        offsets = variation.paper_offsets_mv
        if len(offsets) != spec.n_cores:
            problems.append(
                f"variation.paper_offsets_mv has {len(offsets)} entries "
                f"for {spec.n_cores} cores"
            )
        if offsets and (
            min(offsets) < 0 or max(offsets) > variation.max_offset_mv
        ):
            problems.append(
                "variation.paper_offsets_mv must lie in "
                "[0, max_offset_mv]"
            )

    droop = model.droop
    if droop.base_rate_per_mcycles <= 0 or droop.lower_bin_multiplier <= 0:
        problems.append("droop rates must be positive")
    if droop.above_ceiling_rate < 0:
        problems.append("droop.above_ceiling_rate must be non-negative")
    for label, scale in (
        ("freq_scale_skip", droop.freq_scale_skip),
        ("freq_scale_divide", droop.freq_scale_divide),
    ):
        if not 0.0 < scale <= 1.0:
            problems.append(f"droop.{label} must be in (0, 1]")

    faults = model.faults
    if not 0.0 < faults.min_width_mv <= faults.max_width_mv:
        problems.append(
            "faults: need 0 < min_width_mv <= max_width_mv"
        )
    if faults.width_step_mv < 0:
        problems.append("faults.width_step_mv must be non-negative")

    if model.perf.mem_time_scale <= 0:
        problems.append("perf.mem_time_scale must be positive")

    problems.extend(_power_problems(model))

    grid = model.characterization
    if not grid.threads:
        problems.append("characterization.threads must be non-empty")
    for count in grid.threads:
        if not 1 <= count <= spec.n_cores:
            problems.append(
                f"characterization thread count {count} outside "
                f"[1, {spec.n_cores}]"
            )
    steps = set(spec.frequency_steps())
    for freq in grid.freqs_hz:
        if freq not in steps:
            problems.append(
                f"characterization frequency {freq} Hz is not a "
                "supported step"
            )
    return problems


def _power_problems(model: PlatformModel) -> List[str]:
    from ..power.model import PowerModel
    from .chip import ChipState

    spec = model.spec
    power_model = PowerModel(spec, model.power)
    idle_state = ChipState(
        spec=spec,
        voltage_mv=spec.nominal_voltage_mv,
        pmd_frequencies_hz=(spec.fmax_hz,) * spec.n_pmds,
        active_cores=frozenset(),
    )
    problems: List[str] = []
    try:
        idle_w = power_model.idle_power_w(idle_state)
        max_w = power_model.max_power_w()
    except ConfigurationError as exc:
        return [f"power model rejects its own parameters: {exc}"]
    if idle_w >= spec.tdp_w:
        problems.append(
            f"idle power {idle_w:.1f} W is not below the {spec.tdp_w} W TDP"
        )
    if max_w <= idle_w:
        problems.append("max power must exceed idle power")
    return problems
