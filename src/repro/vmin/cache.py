"""Content-addressed memoization of Vmin characterization results.

The safe-Vmin characterization campaign is the dominant cost of the
reproduction: every figure that needs a safe voltage re-derives it by
descending the rail 10 mV at a time with 1000 runs per level
(Section III.A). The follow-up framework paper (arXiv:2106.09975)
treats exactly this campaign as the cost worth amortizing — which is
what this module does for the simulated chips, across invocations.

Cache keys are **content addressed**: every component that can change
the result is hashed into the key, so a hit is correct by construction
and anything else is a miss. The key scheme is::

    sha256(canonical_json({
        kind:              "safe_vmin" | "unsafe_scan",
        spec:              platform spec fingerprint (all ChipSpec fields),
        model:             ground-truth fingerprint (base tables + per-core
                           variation offsets, i.e. the silicon instance),
        faults:            fault-model fingerprint (unsafe-region widths),
        freq_class:        Vmin-relevant frequency class of the setting,
        cores:             active core ids,
        pmd_occupancy:     threads per utilized PMD (droop class input),
        workload:          benchmark name,
        workload_delta_mv: single-core workload Vmin delta,
        seed:              campaign seed,
        ...protocol:       step_mv, run counts, execution mode,
    }))

The cache has one tier and one job. Its tier is a directory: without
one (the default) nothing is keyed, looked up or stored. Its job is to
let repeated ``repro run-all --cache-dir DIR`` invocations reuse the
campaigns of :class:`~repro.vmin.characterize.VminCampaign` (safe-Vmin
searches and unsafe-region scans), the only results it holds. Within
one run, results move between experiments through the orchestrator's
``depends``, never through the cache, so no node of a run reads a key
that another node wrote. The safe voltages of the energy runner and
the daemon's policy table are not cached at all: the batched kernels
compute them faster than a content-addressed key can be derived.

The directory holds one *pack* file per campaign sweep
(:meth:`VminCache.put_sweep`): each entry is streamed as one
``[key, value]`` JSON line into a temporary file, and one atomic rename
publishes it under a name hashed from the sweep's ordered keys, so two
workers writing the same sweep publish identical bytes to the same
name. Lookups stay per key: a key the cache has not indexed yet makes
it index the packs it has not seen, rescanning the directory only when
its mtime says new packs may have appeared (a skipped rescan costs a
recompute, never a wrong value). A corrupted or unreadable pack is
deleted and counted once, never raised. Files of any other layout are
ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import weakref
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from .. import telemetry
from ..errors import ConfigurationError
from ..telemetry import names as metric_names

from ..platform.specs import ChipSpec

#: JSON-representable cache value.
CacheValue = Any

#: Suffix of a published pack: one campaign sweep, one ``[key, value]``
#: JSON line per entry.
PACK_SUFFIX = ".pack"

_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))

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
            disk_hits=self.disk_hits - before.disk_hits,
            corrupt_discarded=self.corrupt_discarded
            - before.corrupt_discarded,
        )


def _pack_name(keys: Iterable[str]) -> str:
    """File name of the pack holding ``keys``, in order."""
    return _digest(list(keys))[:32] + PACK_SUFFIX


def _decode_line(line: bytes) -> Optional[List[Any]]:
    """A pack line's ``[key, value]`` pair, or None when it is not one."""
    try:
        entry = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str):
        return entry
    return None


def _pack_offsets(name: str, data: bytes) -> Optional[List[Tuple[str, int]]]:
    """Key and byte offset of every entry of pack ``name``, or None.

    A pack is whole only when every line is a ``[key, value]`` pair with
    a string key, the last line ends in a newline and the keys hash to
    the file's name, so a truncation at a line boundary is caught too.
    """
    if not data.endswith(b"\n"):
        return None
    offsets: List[Tuple[str, int]] = []
    offset = 0
    for line in data[:-1].split(b"\n"):
        entry = _decode_line(line)
        if entry is None:
            return None
        offsets.append((entry[0], offset))
        offset += len(line) + 1
    if _pack_name(key for key, _ in offsets) != name:
        return None
    return offsets


class _PackWriter:
    """One sweep's pack: streamed into a temporary file, then published.

    Any ``OSError`` (or a value JSON cannot encode) abandons the pack:
    its temporary file is deleted and nothing is published. Disk
    persistence is best-effort: the sweep's values are returned either
    way, only a later run cannot reuse them.
    """

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        #: (key, byte offset) of every line written, in order.
        self.offsets: List[Tuple[str, int]] = []
        self._size = 0
        self._handle: Optional[BinaryIO] = None
        self._tmp_name: Optional[str] = None
        self._abandoned = False

    def add(self, key: str, value: CacheValue) -> None:
        """Append one ``[key, value]`` line to the pack."""
        if self._abandoned:
            return
        try:
            data = (_LINE_ENCODER.encode([key, value]) + "\n").encode("utf-8")
            if self._handle is None:
                fd, self._tmp_name = tempfile.mkstemp(
                    dir=str(self.cache_dir), suffix=".tmp"
                )
                self._handle = os.fdopen(fd, "wb")
            self._handle.write(data)
        except (OSError, TypeError, ValueError):
            self.abandon()
            return
        self.offsets.append((key, self._size))
        self._size += len(data)

    def publish(self) -> Optional[Path]:
        """Move the finished pack into place; its path, or None."""
        if self._abandoned or self._handle is None:
            return None
        handle, self._handle = self._handle, None
        assert self._tmp_name is not None
        path = self.cache_dir / _pack_name(key for key, _ in self.offsets)
        try:
            handle.close()
            os.replace(self._tmp_name, path)
        except OSError:
            self.abandon()
            return None
        self._tmp_name = None
        return path

    def abandon(self) -> None:
        """Drop the pack: close and delete its temporary file."""
        self._abandoned = True
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
        if self._tmp_name is not None:
            try:
                os.unlink(self._tmp_name)
            except OSError:
                pass
            self._tmp_name = None


class VminCache:
    """The on-disk characterization cache of one process.

    ``cache_dir`` is the pack store shared across processes and
    invocations; without it the cache holds nothing, and campaigns skip
    key derivation altogether.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: Where each key indexed so far sits on disk: (pack, offset).
        self._disk_index: Dict[str, Tuple[Path, int]] = {}
        #: Pack names indexed, published or discarded by this cache.
        self._seen_packs: Set[str] = set()
        #: Directory mtime at the last scan (None: never scanned).
        self._scanned_mtime: Optional[int] = None
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

    # -- lookup ----------------------------------------------------------------

    def get(self, key: str) -> Optional[CacheValue]:
        """Cached value for ``key``, or ``None`` on a miss."""
        with self._lock:
            value = self._pack_lookup(key)
            if value is None:
                self.stats.misses += 1
                telemetry.inc(metric_names.VMIN_CACHE_MISSES)
                return None
            self.stats.hits += 1
            self.stats.disk_hits += 1
            telemetry.inc(metric_names.VMIN_CACHE_HITS)
            telemetry.inc(metric_names.VMIN_CACHE_DISK_HITS)
            return value

    def put(self, key: str, value: CacheValue) -> None:
        """Store a JSON-representable value under ``key`` (a one-entry
        pack on disk)."""
        self.put_sweep(((key, value),))

    def put_sweep(self, entries: Iterable[Tuple[str, CacheValue]]) -> None:
        """Store one campaign sweep's ``(key, value)`` entries.

        Each entry is counted as ``entries`` yields it and streamed into
        the sweep's one pack file, published when ``entries`` is
        exhausted. Without a ``cache_dir`` the entries are counted only.
        """
        writer = None if self.cache_dir is None else _PackWriter(self.cache_dir)
        try:
            for key, value in entries:
                with self._lock:
                    self.stats.stores += 1
                    telemetry.inc(metric_names.VMIN_CACHE_STORES)
                if writer is not None:
                    writer.add(key, value)
        except BaseException:
            if writer is not None:
                writer.abandon()
            raise
        if writer is None:
            return
        path = writer.publish()
        if path is not None:
            with self._lock:
                self._seen_packs.add(path.name)
                for key, offset in writer.offsets:
                    self._disk_index[key] = (path, offset)

    def disk_bytes(self) -> int:
        """Total size of the published packs, bytes (0 without a dir).

        Scans the cache directory; meant for end-of-run telemetry and
        the run manifest, not for hot-path accounting.
        """
        if self.cache_dir is None:
            return 0
        total = 0
        try:
            for path in self.cache_dir.glob("*" + PACK_SUFFIX):
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

    # -- pack store ------------------------------------------------------------

    def _pack_lookup(self, key: str) -> Optional[CacheValue]:
        if self.cache_dir is None:
            return None
        location = self._disk_index.get(key)
        if location is None and self._index_new_packs():
            location = self._disk_index.get(key)
        if location is None:
            return None
        path, offset = location
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                line = handle.readline()
        except FileNotFoundError:  # deleted by another process
            return None
        except OSError:
            line = b""
        entry = _decode_line(line) if line.endswith(b"\n") else None
        if entry is None or entry[0] != key:
            # The pack changed after it was indexed: discard it rather
            # than poison the campaign.
            self._discard(path)
            return None
        return entry[1]

    def _index_new_packs(self) -> bool:
        """Index every pack not seen yet; False when none appeared.

        Publishing a pack changes the directory's mtime, so an
        unchanged mtime skips the listing.
        """
        assert self.cache_dir is not None
        try:
            mtime = os.stat(self.cache_dir).st_mtime_ns
            if mtime == self._scanned_mtime:
                return False
            self._scanned_mtime = mtime
            names = sorted(
                name
                for name in os.listdir(self.cache_dir)
                if name.endswith(PACK_SUFFIX) and name not in self._seen_packs
            )
        except OSError:
            return False
        for name in names:
            self._seen_packs.add(name)
            path = self.cache_dir / name
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue
            except OSError:
                data = b""
            offsets = _pack_offsets(name, data)
            if offsets is None:
                self._discard(path)
                continue
            for key, offset in offsets:
                self._disk_index[key] = (path, offset)
        return bool(names)

    def _discard(self, path: Path) -> None:
        """Count and delete a corrupt pack; its keys then miss."""
        self.stats.corrupt_discarded += 1
        telemetry.inc(metric_names.VMIN_CACHE_CORRUPT)
        self._disk_index = {
            key: location
            for key, location in self._disk_index.items()
            if location[0] != path
        }
        try:
            path.unlink()
        except OSError:
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
) -> VminCache:
    """Install a fresh default cache (on ``cache_dir``, else a no-op)."""
    return set_default_cache(VminCache(cache_dir=cache_dir))


def ensure_default_cache(
    cache_dir: Optional[Union[str, os.PathLike]] = None,
) -> VminCache:
    """Point the default cache at ``cache_dir``, keeping it when it
    already matches (so its pack index and stats survive)."""
    target = Path(cache_dir) if cache_dir is not None else None
    with _default_lock:
        if _default_cache.cache_dir == target:
            return _default_cache
    return configure_default_cache(cache_dir=cache_dir)


@cache_key_producer
def occupancy_of(spec: ChipSpec, cores: Iterable[int]) -> Dict[str, int]:
    """Threads per utilized PMD — the droop-class input of the key."""
    occupancy: Dict[str, int] = {}
    for core in cores:
        pmd = str(spec.pmd_of_core(core))
        occupancy[pmd] = occupancy.get(pmd, 0) + 1
    return occupancy
