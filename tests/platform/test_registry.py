"""Invariant tests of the declarative platform registry.

Every shipped spec file must load, validate, round-trip through the
dict serialization, and satisfy the physical monotonicity the rest of
the stack assumes: a worse droop class never lowers the safe Vmin, a
lower frequency class never raises it, and the calibrated power model
stays inside the TDP envelope.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.fig3_vmin_characterization import (
    characterization_grid,
)
from repro.perf.model import mem_time_scale
from repro.platform.cli import platform_main
from repro.platform.registry import (
    get_platform,
    load_platform_file,
    model_from_dict,
    model_to_dict,
    platform_key_for_spec,
    platform_keys,
    spec_files,
    try_get_platform,
    validate_model,
)
from repro.platform.specs import FrequencyClass, get_spec
from repro.platform.thermal import ThermalModel
from repro.power.model import PowerModel
from repro.units import ghz
from repro.vmin.droop import DroopModel, droop_ladder
from repro.vmin.faults import FaultModel
from repro.vmin.model import VminModel
from repro.vmin.variation import make_variation_map

ALL_KEYS = platform_keys()


@pytest.fixture(params=ALL_KEYS)
def model(request):
    """Each registered platform bundle in turn."""
    return get_platform(request.param)


class TestSpecFiles:
    def test_three_builtin_platforms(self):
        assert ALL_KEYS == ("xgene2", "xgene3", "xgene3-xl")

    def test_every_shipped_file_loads_and_validates(self):
        for path in spec_files():
            loaded = load_platform_file(path)
            assert validate_model(loaded) == []

    def test_shipped_files_match_registered_models(self):
        by_key = {
            load_platform_file(path).key: load_platform_file(path)
            for path in spec_files()
        }
        for key in ALL_KEYS:
            assert by_key[key] == get_platform(key)

    def test_dict_round_trip_is_identity(self, model):
        assert model_from_dict(model_to_dict(model)) == model

    def test_json_shape_round_trips(self, model):
        # model_to_dict output must survive JSON (the .json loader path).
        data = json.loads(json.dumps(model_to_dict(model)))
        assert model_from_dict(data) == model


class TestVminMonotonicity:
    def test_vmin_non_decreasing_in_droop_class(self, model):
        for row in model.vmin_base_mv.values():
            assert list(row) == sorted(row)

    def test_lower_frequency_class_never_raises_vmin(self, model):
        order = (
            FrequencyClass.HIGH,
            FrequencyClass.SKIP,
            FrequencyClass.DIVIDE,
        )
        present = [c for c in order if c in model.vmin_base_mv]
        for above, below in zip(present, present[1:]):
            for hi, lo in zip(
                model.vmin_base_mv[above], model.vmin_base_mv[below]
            ):
                assert lo <= hi

    def test_rows_span_the_droop_ladder(self, model):
        n_classes = len(droop_ladder(model.spec))
        for row in model.vmin_base_mv.values():
            assert len(row) == n_classes

    def test_base_vmin_below_nominal(self, model):
        nominal = model.spec.nominal_voltage_mv
        for row in model.vmin_base_mv.values():
            assert max(row) <= nominal


class TestPowerSanity:
    def test_idle_below_max_below_tdp(self, model):
        power = PowerModel(model.spec)
        from repro.platform.chip import ChipState

        idle = power.idle_power_w(
            ChipState(
                spec=model.spec,
                voltage_mv=model.spec.nominal_voltage_mv,
                pmd_frequencies_hz=(model.spec.fmax_hz,)
                * model.spec.n_pmds,
                active_cores=frozenset(),
            )
        )
        assert 0 < idle < power.max_power_w() < model.spec.tdp_w

    def test_thermal_params_resolve(self, model):
        from repro.platform.thermal import ThermalModel

        assert ThermalModel(model.spec).params.resistance_c_per_w > 0


class TestXgene3XL:
    """The spec-file-only platform runs through the same consumer stack."""

    def test_resolves_by_key_and_display_name(self):
        spec = get_spec("xgene3-xl")
        assert spec.n_cores == 64
        assert spec.n_pmds == 32
        assert platform_key_for_spec(spec) == "xgene3-xl"
        assert try_get_platform(spec.name) is get_platform("xgene3-xl")

    def test_fault_params_come_from_the_bundle(self):
        spec = get_spec("xgene3-xl")
        faults = FaultModel(spec=spec)
        params = get_platform("xgene3-xl").faults
        assert faults.MAX_WIDTH_MV == params.max_width_mv
        assert faults.WIDTH_STEP_MV == params.width_step_mv
        assert faults.MIN_WIDTH_MV == params.min_width_mv

    def test_paper_chip_fault_params_equal_class_defaults(self):
        # Bit-for-bit guard: the paper bundles restate the historical
        # class defaults, so cache content keys cannot move.
        default = FaultModel()
        for key in ("xgene2", "xgene3"):
            bundled = FaultModel(spec=get_spec(key))
            assert bundled.MAX_WIDTH_MV == default.MAX_WIDTH_MV
            assert bundled.WIDTH_STEP_MV == default.WIDTH_STEP_MV
            assert bundled.MIN_WIDTH_MV == default.MIN_WIDTH_MV

    def test_characterization_grid_declared(self):
        grid = get_platform("xgene3-xl").characterization
        assert grid.threads == (64, 32, 16)
        assert grid.freqs_hz == (ghz(3.2), ghz(1.6))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_same_seed_same_silicon(self, silicon_seed):
        spec = get_spec("xgene3-xl")
        first = make_variation_map(spec, silicon_seed)
        second = make_variation_map(spec, silicon_seed)
        assert first.offsets_mv == second.offsets_mv
        assert len(first.offsets_mv) == spec.n_cores
        limit = get_platform("xgene3-xl").variation.max_offset_mv
        assert all(0 <= o <= limit for o in first.offsets_mv)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_droop_model_deterministic(self, seed):
        spec = get_spec("xgene3-xl")
        first = DroopModel(spec, seed=seed)
        second = DroopModel(spec, seed=seed)
        rates = first.rates_per_mcycles(8, FrequencyClass.HIGH)
        assert rates == second.rates_per_mcycles(8, FrequencyClass.HIGH)


class TestRejection:
    def test_unknown_platform_lists_keys(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_platform("epyc")
        assert "xgene3-xl" in str(excinfo.value)

    def test_missing_section_rejected(self):
        data = model_to_dict(get_platform("xgene3"))
        del data["power"]
        with pytest.raises(ConfigurationError):
            model_from_dict(data)

    def test_non_monotonic_droop_row_fails_validation(self):
        data = copy.deepcopy(model_to_dict(get_platform("xgene3")))
        row = data["vmin"]["base_mv"]["high"]
        data["vmin"]["base_mv"]["high"] = list(reversed(row))
        broken = model_from_dict(data)
        assert any(
            "droop" in problem for problem in validate_model(broken)
        )

    def test_vmin_above_nominal_fails_validation(self):
        data = copy.deepcopy(model_to_dict(get_platform("xgene2")))
        data["vmin"]["base_mv"]["high"][-1] = (
            data["chip"]["nominal_voltage_mv"] + 100
        )
        broken = model_from_dict(data)
        assert validate_model(broken) != []

    def test_unknown_frequency_class_rejected(self):
        data = copy.deepcopy(model_to_dict(get_platform("xgene2")))
        data["vmin"]["base_mv"]["turbo"] = [700, 700, 700]
        with pytest.raises(ConfigurationError):
            model_from_dict(data)

    def test_row_not_spanning_droop_ladder_fails_validation(self):
        data = copy.deepcopy(model_to_dict(get_platform("xgene2")))
        data["vmin"]["base_mv"]["high"] = [870, 890]
        problems = validate_model(model_from_dict(data))
        assert "vmin.base_mv.high has 2 droop classes, chip has 3" in problems

    @pytest.mark.parametrize("row", ["high", "skip"])
    def test_table_missing_core_class_fails_validation(self, row):
        data = copy.deepcopy(model_to_dict(get_platform("xgene2")))
        del data["vmin"]["base_mv"][row]
        problems = validate_model(model_from_dict(data))
        assert f"vmin.base_mv is missing the {row!r} row" in problems

    def test_garbled_spec_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "garbled.toml"
        path.write_text("[platform\nkey = \"x\"\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="^garbled.toml: "):
            load_platform_file(path)


def _set(*path_and_value):
    """Mutation that sets one nested spec-file entry."""
    *path, value = path_and_value

    def mutate(data):
        for name in path[:-1]:
            data = data[name]
        data[path[-1]] = value

    return mutate


#: Wrong-shaped spec-file value -> the section its error must name.
WRONG_SHAPES = {
    "threads-scalar": (
        _set("characterization", "threads", 5), "[characterization]"
    ),
    "threads-strings": (
        _set("characterization", "threads", ["a"]), "[characterization]"
    ),
    "freqs-scalar": (
        _set("characterization", "freqs_ghz", 2.4), "[characterization]"
    ),
    "base-row-scalar": (
        _set("vmin", "base_mv", "high", 870), "[vmin.base_mv]"
    ),
    "base-table-scalar": (_set("vmin", "base_mv", 870), "[vmin.base_mv]"),
    "paper-offsets-scalar": (
        _set("vmin", "variation", "paper_offsets_mv", 2.0),
        "[vmin.variation]",
    ),
    "platform-scalar": (_set("platform", 1), "[platform]"),
    "vmin-scalar": (_set("vmin", 1), "[vmin]"),
    "variation-scalar": (_set("vmin", "variation", 1), "[vmin.variation]"),
    "characterization-scalar": (
        _set("characterization", 1), "[characterization]"
    ),
    "chip-scalar": (_set("chip", 1), "[chip]"),
    "chip-count-string": (_set("chip", "n_cores", "8"), "[chip]"),
    "power-coefficient-string": (
        _set("power", "uncore_w", "0.7"), "[power]"
    ),
}


class TestWrongShapes:
    """Wrong-shaped values fail as configuration errors, never crashes."""

    @pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
    def test_validate_reports_error_naming_the_section(
        self, shape, tmp_path, capsys
    ):
        mutate, section = WRONG_SHAPES[shape]
        data = copy.deepcopy(model_to_dict(get_platform("xgene2")))
        mutate(data)
        with pytest.raises(ConfigurationError) as excinfo:
            model_from_dict(data)
        assert section in str(excinfo.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert platform_main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}: ERROR bad.json: {section}" in out


#: Every consumer that reads a section of the chip's bundle.
BUNDLE_READERS = {
    "VminModel": VminModel,
    "PowerModel": PowerModel,
    "ThermalModel": ThermalModel,
    "DroopModel": DroopModel,
    "FaultModel": lambda spec: FaultModel(spec=spec),
    "make_variation_map": make_variation_map,
    "mem_time_scale": mem_time_scale,
    "characterization_grid": characterization_grid,
}


class TestUnregisteredChip:
    """A chip with no registered bundle is an error, never a default."""

    @pytest.fixture
    def clone(self, spec2):
        return spec2.__class__(**{**spec2.__dict__, "name": "Clone-8"})

    @pytest.mark.parametrize("reader", sorted(BUNDLE_READERS))
    def test_reader_names_the_chip(self, reader, clone):
        with pytest.raises(ConfigurationError, match="'Clone-8'"):
            BUNDLE_READERS[reader](clone)

    def test_explicit_params_need_no_bundle(self, clone):
        bundle = get_platform("xgene2")
        assert PowerModel(clone, params=bundle.power).params is bundle.power
        assert (
            ThermalModel(clone, params=bundle.thermal).params
            is bundle.thermal
        )
        assert DroopModel(clone, params=bundle.droop).params is bundle.droop
        faults = FaultModel(params=bundle.faults, spec=clone)
        assert faults.MAX_WIDTH_MV == bundle.faults.max_width_mv
