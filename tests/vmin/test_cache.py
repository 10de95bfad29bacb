"""Tests for the content-addressed Vmin characterization cache."""

import dataclasses
import errno
import json
import multiprocessing
import os
import tempfile

import pytest

from repro import telemetry
from repro.allocation import Allocation
from repro.experiments.orchestrator import run_experiments
from repro.platform.specs import get_spec
from repro.telemetry import names as metric_names
from repro.vmin.cache import (
    VminCache,
    configure_default_cache,
    ensure_default_cache,
    get_default_cache,
    make_key,
    model_fingerprint,
    occupancy_of,
    spec_fingerprint,
)
from repro.vmin.characterize import VminCampaign
from repro.vmin.model import VminModel


@pytest.fixture(autouse=True)
def fresh_default_cache():
    """Isolate every test from the process-wide default cache."""
    configure_default_cache()
    yield
    configure_default_cache()


class TestKeying:
    def test_spec_fingerprint_stable(self):
        assert spec_fingerprint(get_spec("xgene2")) == spec_fingerprint(
            get_spec("xgene2")
        )

    def test_spec_fingerprint_differs_between_platforms(self):
        assert spec_fingerprint(get_spec("xgene2")) != spec_fingerprint(
            get_spec("xgene3")
        )

    def test_spec_change_invalidates_fingerprint(self):
        spec = get_spec("xgene2")
        altered = dataclasses.replace(spec, nominal_voltage_mv=990)
        assert spec_fingerprint(spec) != spec_fingerprint(altered)

    def test_model_fingerprint_tracks_silicon_instance(self):
        spec = get_spec("xgene2")
        assert model_fingerprint(VminModel(spec)) == model_fingerprint(
            VminModel(spec)
        )
        assert model_fingerprint(VminModel(spec)) != model_fingerprint(
            VminModel(spec, silicon_seed=3)
        )

    def test_make_key_order_independent(self):
        assert make_key(a=1, b=2) == make_key(b=2, a=1)
        assert make_key(a=1, b=2) != make_key(a=2, b=1)

    def test_occupancy_counts_threads_per_pmd(self):
        spec = get_spec("xgene2")
        assert occupancy_of(spec, (0, 1, 2)) == {"0": 2, "1": 1}


class TestVminCacheCore:
    def test_miss_then_hit(self, tmp_path):
        cache = VminCache(cache_dir=tmp_path)
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats.hits == cache.stats.disk_hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_hit_rate(self, tmp_path):
        cache = VminCache(cache_dir=tmp_path)
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_stats_delta(self, tmp_path):
        cache = VminCache(cache_dir=tmp_path)
        cache.put("k", 1)
        before = cache.stats.snapshot()
        cache.get("k")
        cache.get("k")
        delta = cache.stats.delta(before)
        assert delta.hits == 2
        assert delta.misses == 0


def _packs(cache_dir):
    return sorted(cache_dir.glob("*.pack"))


def _only_pack(cache_dir):
    packs = _packs(cache_dir)
    assert len(packs) == 1
    return packs[0]


#: One campaign sweep: three entries stored as one pack.
SWEEP = [("a", {"vmin": 880}), ("b", {"vmin": 870}), ("c", [1, 2.5])]


class TestDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        first = VminCache(cache_dir=tmp_path)
        first.put("k", {"vmin": 880})
        second = VminCache(cache_dir=tmp_path)
        assert second.get("k") == {"vmin": 880}
        assert second.stats.disk_hits == 1

    def test_sweep_is_one_pack_read_per_key(self, tmp_path):
        first = VminCache(cache_dir=tmp_path)
        first.put_sweep(iter(SWEEP))
        pack = _only_pack(tmp_path)
        assert len(pack.read_bytes().splitlines()) == len(SWEEP)
        second = VminCache(cache_dir=tmp_path)
        for key, value in SWEEP:
            assert second.get(key) == value
        assert second.get("missing") is None
        assert second.stats.disk_hits == len(SWEEP)
        assert second.stats.misses == 1

    def test_same_sweep_publishes_same_bytes(self, tmp_path):
        VminCache(cache_dir=tmp_path / "one").put_sweep(iter(SWEEP))
        VminCache(cache_dir=tmp_path / "two").put_sweep(iter(SWEEP))
        one, two = _only_pack(tmp_path / "one"), _only_pack(tmp_path / "two")
        assert one.name == two.name
        assert one.read_bytes() == two.read_bytes()

    def test_new_packs_found_by_a_live_cache(self, tmp_path):
        reader = VminCache(cache_dir=tmp_path)
        assert reader.get("k") is None
        VminCache(cache_dir=tmp_path).put("k", 1)
        # Publishing changed the dir's mtime, which makes the reader
        # rescan; pin a distinct mtime so a coarse clock cannot hide it.
        os.utime(tmp_path, ns=(0, 0))
        assert reader.get("k") == 1
        assert reader.stats.disk_hits == 1

    def test_corrupted_entry_discarded_not_raised(self, tmp_path):
        cache = VminCache(cache_dir=tmp_path)
        cache.put("k", {"vmin": 880})
        path = _only_pack(tmp_path)
        path.write_text("{ not json !!!\n")
        fresh = VminCache(cache_dir=tmp_path)
        assert fresh.get("k") is None
        assert fresh.stats.corrupt_discarded == 1
        assert not path.exists()

    def test_mismatched_key_discarded(self, tmp_path):
        cache = VminCache(cache_dir=tmp_path)
        cache.put("k", 1)
        # A pack whose keys do not hash to its name.
        path = _only_pack(tmp_path)
        path.write_text(json.dumps(["other", 1]) + "\n")
        fresh = VminCache(cache_dir=tmp_path)
        assert fresh.get("k") is None
        assert fresh.get("other") is None
        assert fresh.stats.corrupt_discarded == 1
        assert not path.exists()

    def test_unserializable_value_publishes_nothing(self, tmp_path):
        cache = VminCache(cache_dir=tmp_path)
        cache.put("k", {0, 1})  # sets are not JSON-serializable
        assert cache.stats.stores == 1
        assert cache.get("k") is None
        assert list(tmp_path.iterdir()) == []

    def test_disk_bytes_counts_published_packs_only(self, tmp_path):
        run_experiments(names=["fig3"], jobs=1, cache_dir=tmp_path)
        (tmp_path / "stale.tmp").write_text("partial")
        (tmp_path / ("0" * 64 + ".json")).write_text('{"key": 1}')
        packs = _packs(tmp_path)
        assert packs
        total = sum(path.stat().st_size for path in packs)
        assert get_default_cache().disk_bytes() == total > 0


def _write_sweep(cache_dir, barrier):
    """Child process: store SWEEP, holding the pack open at ``barrier``."""

    def entries():
        for i, entry in enumerate(SWEEP):
            yield entry
            if i == 0:
                barrier.wait(timeout=30)

    VminCache(cache_dir=cache_dir).put_sweep(entries())


def _corrupt(path, how):
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    if how == "truncated":
        path.write_bytes(data[: len(data) - 5])
    elif how == "truncated at a line boundary":
        path.write_bytes(b"".join(lines[:-1]))
    elif how == "emptied":
        path.write_bytes(b"")
    elif how == "garbled line":
        path.write_bytes(lines[0] + b"{ not json !!!\n" + lines[2])
    elif how == "non-string key":
        path.write_bytes(lines[0] + b'[7,{"vmin":870}]\n' + lines[2])


class TestPackFaults:
    @pytest.mark.parametrize(
        "how",
        [
            "truncated",
            "truncated at a line boundary",
            "emptied",
            "garbled line",
            "non-string key",
        ],
    )
    def test_corrupt_pack_deleted_and_counted_once(self, tmp_path, how):
        VminCache(cache_dir=tmp_path).put_sweep(iter(SWEEP))
        path = _only_pack(tmp_path)
        _corrupt(path, how)
        fresh = VminCache(cache_dir=tmp_path)
        with telemetry.session() as registry:
            for key, _ in SWEEP:
                assert fresh.get(key) is None
        assert fresh.stats.misses == len(SWEEP)
        assert fresh.stats.corrupt_discarded == 1
        assert registry.counter(metric_names.VMIN_CACHE_CORRUPT) == 1
        assert not path.exists()

    def test_pack_corrupted_after_indexing_discarded(self, tmp_path):
        VminCache(cache_dir=tmp_path).put_sweep(iter(SWEEP))
        fresh = VminCache(cache_dir=tmp_path)
        assert fresh.get("a") == {"vmin": 880}
        path = _only_pack(tmp_path)
        _corrupt(path, "garbled line")
        assert fresh.get("b") is None
        assert fresh.get("c") is None
        assert fresh.stats.corrupt_discarded == 1
        assert not path.exists()

    def test_concurrent_writers_of_one_sweep(self, tmp_path):
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        barrier = context.Barrier(2)
        writers = [
            context.Process(target=_write_sweep, args=(tmp_path, barrier))
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert [path.suffix for path in tmp_path.iterdir()] == [".pack"]
        reader = VminCache(cache_dir=tmp_path)
        for key, value in SWEEP:
            assert reader.get(key) == value
        assert reader.stats.disk_hits == len(SWEEP)
        assert reader.stats.corrupt_discarded == 0

    @pytest.mark.parametrize("where", ["mkstemp", "write", "replace"])
    def test_os_error_publishes_nothing(self, tmp_path, monkeypatch, where):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENOSPC, "injected")

        real_fdopen = os.fdopen
        writes = []

        class FailingWrites:
            """A pack file whose every write after the first fails."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                writes.append(data)
                if len(writes) > 1:
                    refuse()
                return self.handle.write(data)

            def close(self):
                self.handle.close()

        spec = get_spec("xgene2")
        campaign = VminCampaign(spec)
        points = [
            campaign.point(name, 4, Allocation.SPREADED, spec.fmax_hz)
            for name in ("mcf", "namd", "CG")
        ]
        expected = campaign.measure_safe_vmin_batch(points)
        configure_default_cache(cache_dir=tmp_path)
        if where == "mkstemp":
            monkeypatch.setattr(tempfile, "mkstemp", refuse)
        elif where == "write":
            monkeypatch.setattr(
                os, "fdopen", lambda *a, **k: FailingWrites(real_fdopen(*a, **k))
            )
        else:
            monkeypatch.setattr(os, "replace", refuse)
        measured = campaign.measure_safe_vmin_batch(points)
        cache = VminCache(cache_dir=tmp_path)
        cache.put("k", 1)
        monkeypatch.undo()
        # The sweep's values come back whole; only a later run cannot
        # reuse them.
        assert measured == expected
        assert get_default_cache().stats.stores == len(points)
        assert list(tmp_path.iterdir()) == []
        assert cache.get("k") is None

    def test_old_per_key_entries_ignored(self, tmp_path):
        # The per-key layout: one ``{key, value}`` JSON file per entry.
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"key": "k", "value": 1}))
        before = path.read_bytes()
        cache = VminCache(cache_dir=tmp_path)
        assert cache.get("k") is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt_discarded == 0
        assert cache.disk_bytes() == 0
        assert path.read_bytes() == before


class TestDefaultCache:
    def test_ensure_keeps_matching_cache(self, tmp_path):
        configured = ensure_default_cache(tmp_path)
        assert ensure_default_cache(tmp_path) is configured
        assert get_default_cache() is configured

    def test_ensure_replaces_on_dir_change(self, tmp_path):
        first = ensure_default_cache(tmp_path / "a")
        second = ensure_default_cache(tmp_path / "b")
        assert first is not second
        assert second.cache_dir == tmp_path / "b"

    def test_configure_installs_disk_store(self, tmp_path):
        cache = configure_default_cache(cache_dir=tmp_path)
        assert get_default_cache() is cache
        assert cache.cache_dir == tmp_path


class TestCampaignMemoization:
    @pytest.fixture(autouse=True)
    def disk_cache(self, tmp_path):
        """Campaigns cache only with a directory: give every case one."""
        configure_default_cache(cache_dir=tmp_path)

    def _point(self, campaign, spec):
        return campaign.point(
            "mcf",
            4,
            Allocation.SPREADED,
            spec.fmax_hz,
            workload_delta_mv=12.0,
        )

    def test_safe_vmin_hit_returns_identical_result(self):
        spec = get_spec("xgene2")
        campaign = VminCampaign(spec)
        point = self._point(campaign, spec)
        first = campaign.measure_safe_vmin(point)
        before = get_default_cache().stats.snapshot()
        second = campaign.measure_safe_vmin(point)
        delta = get_default_cache().stats.delta(before)
        assert delta.hits == 1 and delta.misses == 0
        assert second.safe_vmin_mv == first.safe_vmin_mv
        assert second.true_vmin_mv == first.true_vmin_mv
        assert len(second.steps) == len(first.steps)
        for mine, theirs in zip(second.steps, first.steps):
            assert mine.voltage_mv == theirs.voltage_mv
            assert mine.outcomes == theirs.outcomes

    def test_two_campaigns_share_the_default_cache(self):
        spec = get_spec("xgene2")
        first = VminCampaign(spec)
        point = first.measure_safe_vmin(self._point(first, spec)).point
        before = get_default_cache().stats.snapshot()
        second = VminCampaign(spec)
        second.measure_safe_vmin(second.point(
            point.workload,
            point.nthreads,
            point.allocation,
            point.freq_hz,
            workload_delta_mv=point.workload_delta_mv,
        ))
        delta = get_default_cache().stats.delta(before)
        assert delta.hits == 1 and delta.misses == 0

    def test_different_spec_misses(self):
        point_args = ("mcf", 4, Allocation.SPREADED)
        for platform in ("xgene2", "xgene3"):
            spec = get_spec(platform)
            campaign = VminCampaign(spec)
            campaign.measure_safe_vmin(
                campaign.point(*point_args, spec.fmax_hz)
            )
        assert get_default_cache().stats.hits == 0
        assert get_default_cache().stats.misses == 2

    def test_different_silicon_misses(self):
        spec = get_spec("xgene2")
        for silicon_seed in (0, 1):
            campaign = VminCampaign(
                spec, vmin_model=VminModel(spec, silicon_seed=silicon_seed)
            )
            campaign.measure_safe_vmin(self._point(campaign, spec))
        assert get_default_cache().stats.hits == 0

    def test_trials_mode_not_memoized(self):
        spec = get_spec("xgene2")
        campaign = VminCampaign(spec)
        point = self._point(campaign, spec)
        campaign.measure_safe_vmin(point, mode="trials")
        assert get_default_cache().stats.lookups == 0

    def test_no_cache_dir_looks_nothing_up(self):
        configure_default_cache()
        spec = get_spec("xgene2")
        campaign = VminCampaign(spec)
        campaign.scan_unsafe_region(self._point(campaign, spec))
        assert get_default_cache().stats.lookups == 0
        assert get_default_cache().stats.stores == 0

    def test_unsafe_scan_memoized(self):
        spec = get_spec("xgene2")
        campaign = VminCampaign(spec)
        point = self._point(campaign, spec)
        first = campaign.scan_unsafe_region(point)
        before = get_default_cache().stats.snapshot()
        second = campaign.scan_unsafe_region(point)
        delta = get_default_cache().stats.delta(before)
        # One hit for the embedded safe-Vmin search, one for the scan.
        assert delta.hits == 2 and delta.misses == 0
        assert second.crash_voltage_mv == first.crash_voltage_mv
        assert len(second.steps) == len(first.steps)
