"""Tests for the chip-to-chip variation study (extension)."""

import pytest

from repro.experiments import variation_study
from repro.platform.specs import get_spec
from repro.vmin.model import VminModel
from repro.workloads.suites import characterization_set


@pytest.fixture(scope="module")
def study():
    # Small population / short window keeps the test fast while still
    # including the sensitive paper die (seed 0) and a robust donor.
    return variation_study.run(
        "xgene2", seeds=(0, 3, 5), duration_s=1800.0, workload_seed=3
    )


class TestVariationStudy:
    def test_own_tables_always_safe(self, study):
        # The paper's per-chip characterization methodology never
        # undervolts its own silicon.
        assert study.own_table_always_safe()

    def test_full_chip_spread_much_smaller_than_single_core(self, study):
        # The attenuation argument generalizes across dies: multicore
        # Vmin is nearly chip-independent even when single-core Vmin
        # varies by tens of mV.
        assert study.full_chip_spread_mv() < 5
        assert study.single_core_spread_mv() > 8

    def test_golden_die_table_unsafe_somewhere(self, study):
        # Deploying the most robust die's table on the population
        # undervolts at least one sensitive die: why tables must be
        # per-chip.
        assert study.foreign_table_unsafe_chips() >= 1

    def test_golden_die_itself_safe_under_own_table(self, study):
        robust = min(
            study.records, key=lambda r: r.single_core_vmin_mv
        )
        assert robust.foreign_table_violations == 0

    def test_render(self, study):
        text = study.format()
        assert "Chip-to-chip" in text
        assert "foreign-table viol" in text


def scalar_worst_single_core_vmin(spec, model):
    """One scalar ``safe_vmin_mv`` per core and benchmark: the oracle."""
    worst = 0.0
    for core in range(spec.n_cores):
        for profile in characterization_set():
            worst = max(
                worst,
                model.safe_vmin_mv(
                    spec.fmax_hz, (core,), profile.vmin_delta_mv
                ),
            )
    return worst


class TestWorstSingleCoreVmin:
    @pytest.mark.parametrize("platform", ["xgene2", "xgene3-xl"])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_matrix_equals_the_scalar_loop(self, platform, seed):
        spec = get_spec(platform)
        model = VminModel(spec, silicon_seed=seed)
        worst = variation_study._worst_single_core_vmin(spec, model)
        assert type(worst) is float
        assert worst == scalar_worst_single_core_vmin(spec, model)
