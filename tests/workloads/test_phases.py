"""Tests for phased benchmarks (the paper's case-(b) scenario)."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.phases import (
    PhasedBenchmark,
    WorkloadPhase,
    get_phased,
    make_phased,
    phase_boundaries,
    profile_at,
    resolve_benchmark,
)
from repro.workloads.suites import get_benchmark


class TestConstruction:
    def test_make_phased(self):
        phased = make_phased("demo", [(0.5, "milc"), (0.5, "namd")])
        assert phased.name == "demo"
        assert len(phased.phases) == 2

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            make_phased("bad", [(0.5, "milc"), (0.4, "namd")])

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            WorkloadPhase(0.0, get_benchmark("milc"))
        with pytest.raises(ConfigurationError):
            WorkloadPhase(1.5, get_benchmark("milc"))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PhasedBenchmark("empty", ())

    def test_mixed_parallelism_rejected(self):
        with pytest.raises(ConfigurationError):
            make_phased("bad", [(0.5, "CG"), (0.5, "namd")])


class TestPhaseLookup:
    def test_profile_at(self):
        phased = make_phased("demo", [(0.3, "mcf"), (0.7, "gamess")])
        assert phased.profile_at(0.0).name == "mcf"
        assert phased.profile_at(0.29).name == "mcf"
        assert phased.profile_at(0.31).name == "gamess"
        assert phased.profile_at(1.0).name == "gamess"

    def test_boundaries(self):
        phased = make_phased(
            "demo", [(0.25, "mcf"), (0.25, "gamess"), (0.5, "mcf")]
        )
        assert phased.boundaries() == pytest.approx([0.25, 0.5])

    def test_static_profile_helpers(self):
        milc = get_benchmark("milc")
        assert profile_at(milc, 0.7) is milc
        assert phase_boundaries(milc) == []

    def test_negative_progress_rejected(self):
        phased = get_phased("sawtooth")
        with pytest.raises(ConfigurationError):
            phased.profile_at(-0.1)


class TestRegistry:
    def test_builtins_available(self):
        for name in (
            "stream-compute",
            "setup-then-crunch",
            "compute-then-writeback",
            "sawtooth",
        ):
            assert get_phased(name).name == name

    def test_unknown_phased(self):
        with pytest.raises(ConfigurationError):
            get_phased("mystery")

    def test_resolver_handles_both(self):
        assert resolve_benchmark("CG").name == "CG"
        assert resolve_benchmark("sawtooth").name == "sawtooth"

    def test_sawtooth_alternates(self):
        sawtooth = get_phased("sawtooth")
        kinds = [
            sawtooth.profile_at(f).is_memory_intensive_reference()
            for f in (0.05, 0.2, 0.3, 0.45)
        ]
        assert kinds == [True, False, True, False]
