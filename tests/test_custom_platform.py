"""End-to-end tests for registering a custom platform bundle."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.registry import model_from_dict, register_model
from repro.platform.specs import get_spec
from repro.vmin.model import VminModel

#: Base Vmin rows of the toy chip: 4 PMDs give three droop classes.
TOY_BASE_MV = {
    "high": [780, 800, 815],
    "skip": [760, 780, 795],
    "divide": [700, 720, 735],
}


def toy_bundle(base_mv=TOY_BASE_MV):
    """Bundle of an 8-core toy chip with the given base-Vmin rows."""
    return model_from_dict(
        {
            "platform": {"key": "toy8"},
            "chip": {
                "name": "Toy-8",
                "n_cores": 8,
                "cores_per_pmd": 2,
                "fmax_hz": 2_000_000_000,
                "fmin_hz": 250_000_000,
                "nominal_voltage_mv": 900,
                "min_voltage_mv": 600,
                "tdp_w": 20.0,
                "technology_nm": 14,
                "memory_bandwidth_bps": 30e9,
                "caches": {
                    "l1i_bytes": 32768,
                    "l1d_bytes": 32768,
                    "l2_bytes_per_pmd": 262144,
                    "l3_bytes": 8 * 2**20,
                    "l3_in_pcp_domain": True,
                },
            },
            "vmin": {"base_mv": base_mv},
            "power": {
                "uncore_w": 1.5,
                "core_dyn_max_w": 1.5,
                "core_leak_w": 0.15,
                "pmd_overhead_w": 0.3,
                "uncore_on_rail": True,
                "external_w": 0.5,
            },
            "thermal": {"resistance_c_per_w": 1.0, "time_constant_s": 8.0},
            "characterization": {"threads": [8, 4], "freqs_ghz": [2.0, 1.0]},
        }
    )


@pytest.fixture(scope="module")
def registered():
    return register_model(toy_bundle())


class TestRegistration:
    def test_lookup_after_registration(self, registered):
        assert get_spec(registered).name == "Toy-8"
        assert get_spec("Toy-8").n_cores == 8

    def test_vmin_table_row_length_validated(self):
        with pytest.raises(ConfigurationError):
            register_model(
                toy_bundle({"high": [780, 800], "skip": [760, 780]})
            )

    def test_vmin_table_monotone_validated(self):
        with pytest.raises(ConfigurationError):
            register_model(
                toy_bundle(
                    {"high": [800, 780, 815], "skip": [760, 780, 795]}
                )
            )

    def test_vmin_table_needs_core_classes(self):
        with pytest.raises(ConfigurationError):
            register_model(toy_bundle({"high": [780, 800, 815]}))

    def test_vmin_above_nominal_rejected(self):
        with pytest.raises(ConfigurationError):
            register_model(
                toy_bundle(
                    {"high": [780, 800, 950], "skip": [760, 780, 795]}
                )
            )


class TestEndToEnd:
    def test_vmin_model_works(self, registered):
        spec = get_spec(registered)
        model = VminModel(spec)
        vmin = model.safe_vmin_mv(spec.fmax_hz, range(8))
        assert 810 <= vmin <= 830

    def test_full_evaluation_runs(self, registered):
        from repro.core import run_evaluation

        evaluation = run_evaluation(registered, duration_s=240.0, seed=3)
        rows = {r.config: r for r in evaluation.rows()}
        assert rows["optimal"].energy_savings_pct > 0
        for result in evaluation.results.values():
            assert result.violations == []

    def test_thermal_model_available(self, registered):
        from repro.platform.thermal import ThermalModel

        thermal = ThermalModel(get_spec(registered))
        assert thermal.steady_state_c(10.0) > thermal.ambient_c
