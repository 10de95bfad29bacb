"""Tests for chip specifications (paper Table I)."""

from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.platform.specs import ChipSpec, CacheSpec, FrequencyClass, get_spec
from repro.units import ghz, MHZ


class TestTable1Parameters:
    def test_xgene2_core_count(self, spec2):
        assert spec2.n_cores == 8

    def test_xgene3_core_count(self, spec3):
        assert spec3.n_cores == 32

    def test_xgene2_clock(self, spec2):
        assert spec2.fmax_hz == ghz(2.4)

    def test_xgene3_clock(self, spec3):
        assert spec3.fmax_hz == ghz(3.0)

    def test_nominal_voltages(self, spec2, spec3):
        assert spec2.nominal_voltage_mv == 980
        assert spec3.nominal_voltage_mv == 870

    def test_tdp(self, spec2, spec3):
        assert spec2.tdp_w == 35.0
        assert spec3.tdp_w == 125.0

    def test_technology_nodes(self, spec2, spec3):
        assert spec2.technology_nm == 28
        assert spec3.technology_nm == 16

    def test_l3_sizes(self, spec2, spec3):
        assert spec2.caches.l3_bytes == 8 * 1024 * 1024
        assert spec3.caches.l3_bytes == 32 * 1024 * 1024

    def test_l3_domain_differs(self, spec2, spec3):
        # X-Gene 2's L3 lives outside the PCP domain (Section II.A).
        assert not spec2.caches.l3_in_pcp_domain
        assert spec3.caches.l3_in_pcp_domain

    def test_l2_per_pmd(self, spec2, spec3):
        assert spec2.caches.l2_bytes_per_pmd == 256 * 1024
        assert spec3.caches.l2_bytes_per_pmd == 256 * 1024


class TestPmdTopology:
    def test_pmd_counts(self, spec2, spec3):
        assert spec2.n_pmds == 4
        assert spec3.n_pmds == 16

    def test_pmd_of_core(self, spec2):
        assert spec2.pmd_of_core(0) == 0
        assert spec2.pmd_of_core(1) == 0
        assert spec2.pmd_of_core(2) == 1
        assert spec2.pmd_of_core(7) == 3

    def test_cores_of_pmd(self, spec3):
        assert spec3.cores_of_pmd(0) == (0, 1)
        assert spec3.cores_of_pmd(15) == (30, 31)

    def test_pmd_of_core_out_of_range(self, spec2):
        with pytest.raises(ConfigurationError):
            spec2.pmd_of_core(8)

    def test_cores_of_pmd_out_of_range(self, spec2):
        with pytest.raises(ConfigurationError):
            spec2.cores_of_pmd(4)

    def test_every_core_maps_to_one_pmd(self, spec3):
        seen = []
        for pmd in range(spec3.n_pmds):
            seen.extend(spec3.cores_of_pmd(pmd))
        assert sorted(seen) == list(range(spec3.n_cores))


class TestFrequencySteps:
    def test_xgene2_steps_are_eighths(self, spec2):
        assert spec2.frequency_steps() == tuple(
            300 * MHZ * i for i in range(1, 9)
        )

    def test_xgene3_steps_are_eighths(self, spec3):
        assert spec3.frequency_steps() == tuple(
            375 * MHZ * i for i in range(1, 9)
        )

    def test_half_frequency(self, spec2, spec3):
        assert spec2.half_frequency_hz == ghz(1.2)
        assert spec3.half_frequency_hz == ghz(1.5)

    def test_nearest_frequency_snaps(self, spec2):
        assert spec2.nearest_frequency(ghz(1.0)) == 900 * MHZ
        assert spec2.nearest_frequency(ghz(2.3)) == ghz(2.4)
        assert spec2.nearest_frequency(0) == 300 * MHZ

    def test_exact_step_snaps_to_the_int_step(self, spec2):
        for step in spec2.frequency_steps():
            snapped = spec2.nearest_frequency(float(step))
            assert snapped == step and type(snapped) is int

    def test_memoized_steps_leave_the_spec_untouched(self, spec3):
        # The spec's fields key the Vmin cache and specs are cloned
        # through their __dict__: the memo must live outside them.
        spec3.frequency_steps()
        spec3.nearest_frequency(ghz(2.0))
        assert set(vars(spec3)) == {f.name for f in fields(spec3)}


class TestFrequencyClasses:
    """Section II.B: clock skipping vs clock division semantics."""

    def test_above_half_is_high(self, spec2):
        for freq in (ghz(1.5), ghz(1.8), ghz(2.1), ghz(2.4)):
            assert spec2.frequency_class(freq) is FrequencyClass.HIGH

    def test_half_is_skip(self, spec2, spec3):
        assert (
            spec2.frequency_class(spec2.half_frequency_hz)
            is FrequencyClass.SKIP
        )
        assert (
            spec3.frequency_class(spec3.half_frequency_hz)
            is FrequencyClass.SKIP
        )

    def test_xgene2_below_half_divides(self, spec2):
        # The 0.9 GHz clock-division point of Section II.B.
        assert spec2.frequency_class(900 * MHZ) is FrequencyClass.DIVIDE
        assert spec2.frequency_class(300 * MHZ) is FrequencyClass.DIVIDE

    def test_xgene3_below_half_stays_skip(self, spec3):
        # X-Gene 3 never engages clock division below 1.5 GHz.
        assert spec3.frequency_class(750 * MHZ) is FrequencyClass.SKIP
        assert spec3.frequency_class(375 * MHZ) is FrequencyClass.SKIP


class TestRegistry:
    def test_get_spec_by_names(self):
        # The registry's display-name lookup is itself under test.
        name2 = "X-Gene 2"  # reprolint: disable=RL007 -- lookup under test
        name3 = "X-Gene 3"  # reprolint: disable=RL007 -- lookup under test
        assert get_spec("xgene2").name == name2
        assert get_spec(name3).name == name3
        assert get_spec("XGENE_2").name == name2

    def test_get_spec_unknown(self):
        with pytest.raises(ConfigurationError):
            get_spec("epyc")

    def test_specs_are_fresh_instances(self):
        assert get_spec("xgene2") == get_spec("xgene2")


class TestSpecValidation:
    def test_cores_must_divide_into_pmds(self):
        with pytest.raises(ConfigurationError):
            ChipSpec(
                name="bad",
                n_cores=7,
                cores_per_pmd=2,
                fmax_hz=ghz(2.0),
                fmin_hz=ghz(0.25),
                nominal_voltage_mv=900,
                min_voltage_mv=600,
                tdp_w=10,
                technology_nm=28,
                caches=CacheSpec(1, 1, 1, 1, False),
                memory_bandwidth_bps=1e9,
            )

    def test_fmin_below_fmax(self):
        with pytest.raises(ConfigurationError):
            ChipSpec(
                name="bad",
                n_cores=8,
                cores_per_pmd=2,
                fmax_hz=ghz(1.0),
                fmin_hz=ghz(2.0),
                nominal_voltage_mv=900,
                min_voltage_mv=600,
                tdp_w=10,
                technology_nm=28,
                caches=CacheSpec(1, 1, 1, 1, False),
                memory_bandwidth_bps=1e9,
            )
