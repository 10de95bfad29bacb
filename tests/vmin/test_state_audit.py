"""The simulator's audit shortcut equals the full safe-Vmin evaluation.

:meth:`VminModel.safe_vmin_for_state` keeps the base term per (utilized
PMDs, top clock) and reads the worst offset as the first active core in
offset order. Both must leave exactly what ``evaluate(...).total_mv``
computes for the snapshot's top clock and active cores (core 0 alone
for an idle chip), on snapshots built by hand and by a live chip.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.chip import Chip, ChipState
from repro.platform.specs import get_spec
from repro.vmin.model import VminModel

PLATFORMS = ("xgene2", "xgene3", "xgene3-xl")


@lru_cache(maxsize=None)
def _model(platform: str, seed: int) -> VminModel:
    """One model per die, so later examples hit its memo."""
    return VminModel(get_spec(platform), silicon_seed=seed)


@st.composite
def _snapshots(draw):
    platform = draw(st.sampled_from(PLATFORMS))
    spec = get_spec(platform)
    cores = draw(
        st.sets(st.integers(0, spec.n_cores - 1), max_size=spec.n_cores)
    )
    clocks = tuple(
        draw(st.sampled_from(spec.frequency_steps()))
        for _ in range(spec.n_pmds)
    )
    return platform, cores, clocks


def _expected(model: VminModel, state: ChipState, delta: float) -> float:
    return model.evaluate(
        state.max_active_frequency(),
        state.active_cores or frozenset({0}),
        delta,
    ).total_mv


class TestSafeVminForState:
    @given(
        _snapshots(),
        st.integers(0, 7),
        st.floats(-20.0, 20.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_evaluate(self, snapshot, seed, delta):
        platform, cores, clocks = snapshot
        spec = get_spec(platform)
        model = _model(platform, seed)
        by_hand = ChipState(
            spec=spec,
            voltage_mv=spec.nominal_voltage_mv,
            pmd_frequencies_hz=clocks,
            active_cores=frozenset(cores),
        )
        chip = Chip(spec, silicon_seed=seed)
        for pmd, clock in enumerate(clocks):
            chip.set_pmd_frequency(pmd, clock)
        for core in cores:
            chip.occupy(core, "p")
        live = chip.state()
        assert live == by_hand
        assert live.active_pmds == by_hand.active_pmds
        expected = _expected(model, by_hand, delta)
        fresh = VminModel(spec, silicon_seed=seed)
        assert fresh.safe_vmin_for_state(by_hand, delta) == expected
        assert model.safe_vmin_for_state(by_hand, delta) == expected
        assert model.safe_vmin_for_state(live, delta) == expected

    def test_idle_chip_is_core_zero_at_fmin(self):
        for platform in PLATFORMS:
            spec = get_spec(platform)
            model = VminModel(spec)
            state = Chip(spec).state()
            assert not state.active_cores
            assert model.safe_vmin_for_state(state, 3.0) == (
                model.evaluate(spec.fmin_hz, {0}, 3.0).total_mv
            )
