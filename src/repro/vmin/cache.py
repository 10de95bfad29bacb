"""Content-addressed memoization of Vmin characterization results.

The safe-Vmin characterization campaign is the dominant cost of the
reproduction: every figure that needs a safe voltage re-derives it by
descending the rail 10 mV at a time with 1000 runs per level
(Section III.A). The follow-up framework paper (arXiv:2106.09975)
treats exactly this campaign as the cost worth amortizing across
experiments — which is what this module does for the simulated chips.

Cache keys are **content addressed**: every component that can change
the result is hashed into the key, so a hit is correct by construction
and anything else is a miss. The key scheme is::

    sha256(canonical_json({
        kind:              "safe_vmin" | "unsafe_scan" | "safe_voltage",
        spec:              platform spec fingerprint (all ChipSpec fields),
        model:             ground-truth fingerprint (base tables + per-core
                           variation offsets, i.e. the silicon instance),
        faults:            fault-model fingerprint (unsafe-region widths),
        freq_class:        Vmin-relevant frequency class of the setting,
        cores:             active core ids,
        pmd_occupancy:     threads per utilized PMD (droop class input),
        workload:          benchmark/stressmark name,
        workload_delta_mv: single-core workload Vmin delta,
        seed:              campaign seed,
        ...protocol:       step_mv, run counts, execution mode,
    }))

Storage is a two-level hierarchy: a process-local LRU dictionary in
front of an optional on-disk JSON store (one file per key, written
atomically). The disk tier is what lets parallel orchestrator workers
and repeated ``repro run-all`` invocations share campaign results. A
corrupted or unreadable disk entry is discarded and counted, never
raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, TypeVar, Union

from .. import telemetry
from ..errors import ConfigurationError
from ..telemetry import names as metric_names

from ..platform.specs import ChipSpec

#: JSON-representable cache value.
CacheValue = Any

_F = TypeVar("_F", bound=Callable[..., Any])


def cache_key_producer(func: _F) -> _F:
    """Marker: ``func``'s output feeds content-addressed cache keys.

    A no-op at runtime — its value is the contract it announces: a
    decorated function must be a *pure* function of its arguments (no
    environment variables, no wall clock, no module-level mutable
    state), or identical campaigns would hash to different keys.
    ``reprolint`` rule RL004 statically enforces the contract for every
    function carrying this marker.
    """
    try:
        func.__cache_key_producer__ = True  # type: ignore[attr-defined]
    except (AttributeError, TypeError):  # pragma: no cover - C callables
        pass
    return func


@cache_key_producer
def canonical_json(payload: Any) -> str:
    """Canonical (sorted, compact) JSON used for content addressing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@cache_key_producer
@lru_cache(maxsize=64)
def spec_fingerprint(spec: ChipSpec) -> str:
    """Stable fingerprint over *every* field of a platform spec.

    Any change to the platform model — core count, frequency range,
    nominal voltage, cache geometry, memory bandwidth — yields a new
    fingerprint and therefore invalidates every cached campaign of the
    old spec. Specs are frozen dataclasses, so the digest is memoized
    per instance value (it shows up on every cache lookup otherwise).
    """
    return _digest(asdict(spec))[:16]


def _identity_memo(
    compute: Callable[[Any], str]
) -> Callable[[Any], str]:
    """Memoize a fingerprint per *model instance* (weakly referenced).

    Model objects are mutable and unhashable by value, but a
    fingerprint is stable for the lifetime of an instance: anything that
    would change it (tables, offsets, spec) is fixed at construction.
    Instances that cannot be weakly referenced are recomputed each call.
    """
    memo: "weakref.WeakKeyDictionary[Any, str]" = (
        weakref.WeakKeyDictionary()
    )

    def lookup(model: Any) -> str:
        try:
            cached = memo.get(model)
        except TypeError:
            return compute(model)
        if cached is None:
            cached = compute(model)
            try:
                memo[model] = cached
            except TypeError:
                pass
        return cached

    lookup.__name__ = compute.__name__
    lookup.__doc__ = compute.__doc__
    return lookup


@cache_key_producer
@_identity_memo
def model_fingerprint(vmin_model: Any) -> str:
    """Fingerprint of a ground-truth :class:`~repro.vmin.model.VminModel`.

    Covers the base-Vmin tables and the silicon instance's per-core
    variation offsets via :meth:`VminModel.content_key`, plus the spec.
    """
    payload = dict(vmin_model.content_key())
    payload["spec"] = spec_fingerprint(vmin_model.spec)
    return _digest(payload)[:16]


@cache_key_producer
@_identity_memo
def fault_fingerprint(fault_model: Any) -> str:
    """Fingerprint of a fault model's unsafe-region parameters."""
    return _digest(
        {
            "class": type(fault_model).__qualname__,
            "max_width_mv": fault_model.MAX_WIDTH_MV,
            "width_step_mv": fault_model.WIDTH_STEP_MV,
            "min_width_mv": fault_model.MIN_WIDTH_MV,
        }
    )[:16]


@cache_key_producer
def make_key(**parts: Any) -> str:
    """Content-addressed cache key from keyword components."""
    return _digest(parts)


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    corrupt_discarded: int = 0

    @property
    def lookups(self) -> int:
        """Total number of :meth:`VminCache.get` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        """Immutable copy, for before/after deltas."""
        return replace(self)

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Counter difference between this snapshot and ``before``."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            stores=self.stores - before.stores,
            evictions=self.evictions - before.evictions,
            disk_hits=self.disk_hits - before.disk_hits,
            corrupt_discarded=self.corrupt_discarded
            - before.corrupt_discarded,
        )


class VminCache:
    """Two-tier (LRU memory + optional disk) characterization cache.

    ``capacity`` bounds the in-memory tier; ``capacity=0`` disables it
    (and, with no ``cache_dir``, disables caching entirely, which is the
    supported way to opt out). ``cache_dir`` enables the on-disk JSON
    store shared across processes and invocations.
    """

    def __init__(
        self,
        capacity: int = 4096,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CacheValue]" = OrderedDict()
        self._lock = threading.Lock()
        if self.cache_dir is not None:
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except FileExistsError:
                raise ConfigurationError(
                    f"cache dir {str(self.cache_dir)!r} exists and is "
                    "not a directory"
                ) from None
            except OSError as exc:
                raise ConfigurationError(
                    f"cache dir {str(self.cache_dir)!r} cannot be "
                    f"created: {exc.strerror or exc}"
                ) from None

    @property
    def disabled(self) -> bool:
        """True when no tier can store anything (the opt-out config).

        Callers may use this to skip key derivation entirely: every
        lookup would miss and every store would be dropped anyway.
        """
        return self.capacity == 0 and self.cache_dir is None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # -- lookup ----------------------------------------------------------------

    def get(self, key: str) -> Optional[CacheValue]:
        """Cached value for ``key``, or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                telemetry.inc(metric_names.VMIN_CACHE_HITS)
                return self._entries[key]
            value = self._disk_load(key)
            if value is None:
                self.stats.misses += 1
                telemetry.inc(metric_names.VMIN_CACHE_MISSES)
                return None
            self.stats.hits += 1
            self.stats.disk_hits += 1
            telemetry.inc(metric_names.VMIN_CACHE_HITS)
            telemetry.inc(metric_names.VMIN_CACHE_DISK_HITS)
            self._memory_store(key, value)
            return value

    def put(self, key: str, value: CacheValue) -> None:
        """Store a JSON-representable value under ``key``."""
        with self._lock:
            self.stats.stores += 1
            telemetry.inc(metric_names.VMIN_CACHE_STORES)
            self._memory_store(key, value)
            self._disk_store(key, value)

    def clear(self) -> None:
        """Drop the in-memory tier (the disk store is left alone)."""
        with self._lock:
            self._entries.clear()

    def disk_bytes(self) -> int:
        """Total size of the on-disk store, bytes (0 when memory-only).

        Scans the cache directory; meant for end-of-run telemetry and
        the run manifest, not for hot-path accounting.
        """
        if self.cache_dir is None:
            return 0
        total = 0
        try:
            for path in self.cache_dir.glob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        except OSError:
            return total
        return total

    def publish_telemetry(self) -> None:
        """Write the disk-tier size gauge into the metric registry."""
        if telemetry.enabled():
            telemetry.set_gauge(
                metric_names.VMIN_CACHE_DISK_BYTES, float(self.disk_bytes())
            )

    # -- memory tier -----------------------------------------------------------

    def _memory_store(self, key: str, value: CacheValue) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            telemetry.inc(metric_names.VMIN_CACHE_EVICTIONS)

    # -- disk tier -------------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _disk_load(self, key: str) -> Optional[CacheValue]:
        if self.cache_dir is None:
            return None
        path = self._disk_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if not isinstance(entry, dict) or entry.get("key") != key:
                raise ValueError("cache entry does not match its key")
            return entry["value"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            # Corrupted entry: discard it and treat the lookup as a miss
            # rather than poisoning the campaign.
            self.stats.corrupt_discarded += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, value: CacheValue) -> None:
        if self.cache_dir is None:
            return
        path = self._disk_path(key)
        try:
            payload = json.dumps({"key": key, "value": value})
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.cache_dir), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except OSError:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        except (OSError, TypeError, ValueError):
            # Disk persistence is best-effort; the memory tier already
            # holds the value.
            pass


# -- process-default cache -----------------------------------------------------

_default_lock = threading.Lock()
_default_cache = VminCache()


def get_default_cache() -> VminCache:
    """The process-wide cache used when no explicit cache is passed."""
    return _default_cache


def set_default_cache(cache: VminCache) -> VminCache:
    """Replace the process-wide default cache."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
    return cache


def configure_default_cache(
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    capacity: int = 4096,
) -> VminCache:
    """Install a fresh default cache (optionally disk-backed)."""
    return set_default_cache(VminCache(capacity=capacity, cache_dir=cache_dir))


def ensure_default_cache(
    cache_dir: Optional[Union[str, os.PathLike]] = None,
) -> VminCache:
    """Point the default cache at ``cache_dir``, keeping it when it
    already matches (so accumulated entries and stats survive)."""
    target = Path(cache_dir) if cache_dir is not None else None
    with _default_lock:
        if _default_cache.cache_dir == target:
            return _default_cache
    return configure_default_cache(cache_dir=cache_dir)


def reset_default_cache() -> VminCache:
    """Fresh in-memory default cache (used by tests and new runs)."""
    return configure_default_cache()


@cache_key_producer
def occupancy_of(spec: ChipSpec, cores: Iterable[int]) -> Dict[str, int]:
    """Threads per utilized PMD — the droop-class input of the key."""
    occupancy: Dict[str, int] = {}
    for core in cores:
        pmd = str(spec.pmd_of_core(core))
        occupancy[pmd] = occupancy.get(pmd, 0) + 1
    return occupancy
