"""Tests for the runtime chip model and its snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SchedulingError
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.units import ghz


class TestOccupancy:
    def test_occupy_and_release(self, chip2):
        chip2.occupy(0, "p1")
        assert chip2.occupant_of(0) == "p1"
        chip2.release_occupant("p1")
        assert chip2.occupant_of(0) is None

    def test_double_occupy_same_owner_ok(self, chip2):
        chip2.occupy(0, "p1")
        chip2.occupy(0, "p1")
        assert chip2.occupant_of(0) == "p1"

    def test_double_occupy_conflict(self, chip2):
        chip2.occupy(0, "p1")
        with pytest.raises(SchedulingError):
            chip2.occupy(0, "p2")

    def test_release_occupant_frees_all(self, chip2):
        chip2.occupy(0, "p1")
        chip2.occupy(3, "p1")
        chip2.occupy(5, "p2")
        chip2.release_occupant("p1")
        assert chip2.active_cores == frozenset({5})

    def test_idle_cores(self, chip2):
        chip2.occupy(0, "p1")
        assert chip2.idle_cores == tuple(range(1, 8))

    def test_occupy_out_of_range(self, chip2):
        with pytest.raises(ConfigurationError):
            chip2.occupy(8, "p1")

    def test_utilized_pmds(self, chip2):
        chip2.occupy(0, "p1")
        chip2.occupy(1, "p1")
        chip2.occupy(6, "p2")
        assert chip2.utilized_pmds == frozenset({0, 3})

    def test_pmd_is_fully_idle(self, chip2):
        chip2.occupy(0, "p1")
        assert not chip2.pmd_is_fully_idle(0)
        assert chip2.pmd_is_fully_idle(1)

    def test_pmd_out_of_range(self, chip2):
        with pytest.raises(ConfigurationError):
            chip2.pmd_is_fully_idle(4)


#: One occupancy operation: occupy a core, release an owner, or move an
#: owner to new cores (release, then occupy, as a migration does).
_OPERATIONS = st.one_of(
    st.tuples(st.just("occupy"), st.integers(0, 3), st.integers(0, 63)),
    st.tuples(st.just("release"), st.integers(0, 3)),
    st.tuples(
        st.just("migrate"),
        st.integers(0, 3),
        st.lists(st.integers(0, 63), max_size=4, unique=True),
    ),
)


class TestPmdBusyCounts:
    @given(
        st.sampled_from(("xgene2", "xgene3", "xgene3-xl")),
        st.lists(_OPERATIONS, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_a_recount(self, platform, operations):
        spec = get_spec(platform)
        chip = Chip(spec)
        for op, owner, *rest in operations:
            try:
                if op == "occupy":
                    chip.occupy(rest[0] % spec.n_cores, owner)
                elif op == "release":
                    chip.release_occupant(owner)
                else:
                    chip.release_occupant(owner)
                    for core in rest[0]:
                        chip.occupy(core % spec.n_cores, owner)
            except SchedulingError:
                pass  # the core is taken: nothing changed
            recount = [
                sum(
                    chip.occupant_of(core) is not None
                    for core in spec.cores_of_pmd(pmd)
                )
                for pmd in range(spec.n_pmds)
            ]
            assert list(chip.pmd_busy_counts) == recount
            assert chip.utilized_pmds == frozenset(
                pmd for pmd, busy in enumerate(recount) if busy
            )
            assert [
                chip.pmd_is_fully_idle(pmd) for pmd in range(spec.n_pmds)
            ] == [busy == 0 for busy in recount]


class TestKnobs:
    def test_voltage_delegates_to_slimpro(self, chip2):
        chip2.set_voltage(900)
        assert chip2.voltage_mv == 900
        assert chip2.slimpro.transition_count() == 1

    def test_frequency_delegates_to_cppc(self, chip2):
        chip2.set_pmd_frequency(1, ghz(1.2))
        assert chip2.cppc.frequency_of(1) == ghz(1.2)


class TestChipState:
    def test_snapshot_captures_point(self, chip2):
        chip2.occupy(0, "p")
        chip2.set_pmd_frequency(0, ghz(1.2))
        chip2.set_voltage(900)
        state = chip2.state()
        assert state.voltage_mv == 900
        assert state.active_cores == frozenset({0})
        assert state.pmd_frequencies_hz[0] == ghz(1.2)

    def test_snapshot_immutable_after_change(self, chip2):
        state = chip2.state()
        chip2.set_voltage(900)
        assert state.voltage_mv == 980

    def test_active_pmds(self, chip3):
        chip3.occupy(0, "a")
        chip3.occupy(31, "b")
        assert chip3.state().active_pmds == frozenset({0, 15})

    def test_frequency_of_core(self, chip2):
        chip2.set_pmd_frequency(3, ghz(1.2))
        state = chip2.state()
        assert state.frequency_of_core(6) == ghz(1.2)
        assert state.frequency_of_core(0) == ghz(2.4)

    def test_max_active_frequency_idle_is_floor(self, chip2, spec2):
        assert chip2.state().max_active_frequency() == spec2.fmin_hz

    def test_max_active_frequency(self, chip2, spec2):
        for pmd in range(spec2.n_pmds):
            chip2.set_pmd_frequency(pmd, ghz(1.2))
        chip2.set_pmd_frequency(2, ghz(2.4))
        chip2.occupy(4, "p")  # core 4 is on PMD 2
        chip2.occupy(0, "q")
        assert chip2.state().max_active_frequency() == ghz(2.4)

    def test_from_name_factory(self):
        chip = Chip(get_spec("xgene3"), silicon_seed=5)
        assert chip.spec.n_cores == 32
        assert chip.silicon_seed == 5
