"""Run manifests: measurement provenance of one orchestrated batch.

Every ``repro run-all --summary-json PATH`` emits one **manifest** — a
versioned JSON document recording where the results came from (git
revision, interpreter, platform), what was asked for (config +
fingerprint), what happened (per-experiment timings, output digests,
cache counters, metric snapshots) and the aggregate totals CI gates on.

Two invariants make manifests machine-checkable:

* the document validates against a **versioned schema**
  (:func:`validate_manifest`, stdlib-only checker — no jsonschema
  dependency);
* the **fingerprint** is computed over the deterministic subset only:
  timing fields (``elapsed_s``, span trees, …), the metrics that
  sample the pool's schedule and the environment block are stripped
  first, so two same-seed runs produce the same fingerprint even
  though their wall-clock numbers and their schedules differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as _platform
import subprocess
import sys
from typing import Any, Dict, List, Mapping, Optional, Tuple

from . import names as metric_names
from .metrics import Snapshot, merge_snapshots

#: Current manifest schema version (bump on structural change).
MANIFEST_SCHEMA_VERSION = 2

#: Document type tag, so a manifest is self-describing on disk.
MANIFEST_KIND = "repro.run_manifest"

#: Keys holding wall-clock-derived values, stripped before
#: fingerprinting and before determinism comparisons. ``spans`` drops
#: the whole span subtree of a metric snapshot.
TIMING_KEYS = frozenset(
    {"elapsed_s", "serial_time_s", "total_s", "max_s", "spans"}
)

#: Metrics that sample the pool's schedule, stripped wherever the
#: timing keys are. The scheduler histograms depend on the order nodes
#: complete in. Each node's ``vmin.cache.disk_bytes`` gauge is the
#: cache directory's size when the node ends: with a shared
#: ``--cache-dir`` under ``--jobs N``, that depends on what the other
#: workers have published by then.
SCHEDULE_KEYS = frozenset(
    {
        metric_names.ORCH_QUEUE_DEPTH,
        metric_names.ORCH_INFLIGHT,
        metric_names.VMIN_CACHE_DISK_BYTES,
    }
)

#: Top-level keys excluded from the fingerprint besides timing: the
#: fingerprint itself and the host-specific provenance block.
FINGERPRINT_EXCLUDED_TOP_KEYS = frozenset({"fingerprint", "environment"})


def canonical_json(payload: Any) -> str:
    """Canonical (sorted, compact) JSON for hashing and byte-compares."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def strip_timing_fields(payload: Any) -> Any:
    """Recursive copy of ``payload`` without any timing-valued or
    schedule-valued keys."""
    if isinstance(payload, dict):
        return {
            key: strip_timing_fields(value)
            for key, value in payload.items()
            if key not in TIMING_KEYS and key not in SCHEDULE_KEYS
        }
    if isinstance(payload, list):
        return [strip_timing_fields(item) for item in payload]
    return payload


def manifest_fingerprint(manifest: Mapping[str, Any]) -> str:
    """Digest over the deterministic subset of a manifest.

    Same seed + same config + same code ⇒ same fingerprint, regardless
    of how long the run took or which host ran it.
    """
    payload = {
        key: value
        for key, value in manifest.items()
        if key not in FINGERPRINT_EXCLUDED_TOP_KEYS
    }
    return hashlib.sha256(
        canonical_json(strip_timing_fields(payload)).encode("utf-8")
    ).hexdigest()


def _git_rev() -> str:
    """Current git revision; ``REPRO_GIT_REV`` overrides (CI), else
    best-effort ``git rev-parse`` with ``"unknown"`` as the fallback."""
    override = os.environ.get("REPRO_GIT_REV")
    if override:
        return override
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _cache_dict(stats: Any) -> Dict[str, Any]:
    """JSON form of a :class:`repro.vmin.cache.CacheStats`."""
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "stores": stats.stores,
        "disk_hits": stats.disk_hits,
        "corrupt_discarded": stats.corrupt_discarded,
        "hit_rate": stats.hit_rate,
    }


def build_manifest(
    summary: Any,
    *,
    platform: Optional[str],
    duration_s: float,
    seed: int,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the manifest of one orchestrated :class:`RunSummary`.

    ``summary`` is duck-typed (``jobs``, ``elapsed_s``, ``outcomes``
    with ``name``/``artefact``/``output``/``elapsed_s``/``cache`` and
    optional ``metrics``, plus ``requested``, ``cache_totals``/
    ``serial_time_s`` and an optional run-level ``metrics`` snapshot) so
    this module stays free of intra-package imports. ``experiments``
    lists every node that ran, inputs included, so their counters add
    up to the totals; ``config.experiments`` is what was requested.
    """
    experiments: List[Dict[str, Any]] = []
    per_experiment_metrics: List[Snapshot] = []
    for outcome in summary.outcomes:
        metrics = getattr(outcome, "metrics", None)
        if metrics is not None:
            per_experiment_metrics.append(metrics)
        output = outcome.output.encode("utf-8")
        experiments.append(
            {
                "name": outcome.name,
                "artefact": outcome.artefact,
                "elapsed_s": outcome.elapsed_s,
                "output_sha256": hashlib.sha256(output).hexdigest(),
                "output_bytes": len(output),
                "cache": _cache_dict(outcome.cache),
                "metrics": metrics,
            }
        )
    run_metrics = getattr(summary, "metrics", None)
    merged = merge_snapshots(
        per_experiment_metrics + ([run_metrics] if run_metrics else [])
    )
    totals = summary.cache_totals
    config = {
        "platform": platform,
        "duration_s": float(duration_s),
        "seed": int(seed),
        "jobs": int(summary.jobs),
        "disk_cache": cache_dir is not None,
        "experiments": list(summary.requested),
    }
    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "environment": {
            "git_rev": _git_rev(),
            "python": sys.version.split()[0],
            "platform": sys.platform,
            "machine": _platform.machine(),
        },
        "config": config,
        "config_fingerprint": hashlib.sha256(
            canonical_json(config).encode("utf-8")
        ).hexdigest(),
        "experiments": experiments,
        "totals": {
            "experiments": len(experiments),
            "elapsed_s": summary.elapsed_s,
            "serial_time_s": summary.serial_time_s,
            "cache": _cache_dict(totals),
        },
        "metrics": merged,
    }
    manifest["fingerprint"] = manifest_fingerprint(manifest)
    return manifest


# -- schema validation ---------------------------------------------------------

#: Cache-counter block shared by experiments and totals.
_CACHE_SPEC: Dict[str, Any] = {
    "hits": int,
    "misses": int,
    "stores": int,
    "disk_hits": int,
    "corrupt_discarded": int,
    "hit_rate": float,
}

_SCHEMAS: Dict[int, Dict[str, Any]] = {
    2: {
        "schema_version": int,
        "kind": str,
        "environment": {
            "git_rev": str,
            "python": str,
            "platform": str,
            "machine": str,
        },
        "config": {
            "platform": (str, type(None)),
            "duration_s": float,
            "seed": int,
            "jobs": int,
            "disk_cache": bool,
            "experiments": [str],
        },
        "config_fingerprint": str,
        "experiments": [
            {
                "name": str,
                "artefact": str,
                "elapsed_s": float,
                "output_sha256": str,
                "output_bytes": int,
                "cache": _CACHE_SPEC,
                "metrics": (dict, type(None)),
            }
        ],
        "totals": {
            "experiments": int,
            "elapsed_s": float,
            "serial_time_s": float,
            "cache": _CACHE_SPEC,
        },
        "metrics": dict,
        "fingerprint": str,
    }
}


def _check(value: Any, spec: Any, path: str, errors: List[str]) -> None:
    """Recursive structural check of ``value`` against ``spec``.

    Specs are plain literals: a ``dict`` requires exactly its keys (no
    extras, none missing) and recurses; a one-element ``list`` requires
    a list of conforming items; a type or tuple of types requires an
    instance (``float`` accepts ``int``; ``bool`` never satisfies an
    ``int``/``float`` spec).
    """
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got {type(value).__name__}")
            return
        for key in spec:
            if key not in value:
                errors.append(f"{path}.{key}: missing required key")
        for key in value:
            if key not in spec:
                errors.append(f"{path}.{key}: unexpected key")
        for key, sub in spec.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}", errors)
        return
    if isinstance(spec, list):
        if not isinstance(value, list):
            errors.append(f"{path}: expected array, got {type(value).__name__}")
            return
        for index, item in enumerate(value):
            _check(item, spec[0], f"{path}[{index}]", errors)
        return
    types: Tuple[type, ...] = spec if isinstance(spec, tuple) else (spec,)
    if float in types and bool not in types:
        types = types + (int,)
    if isinstance(value, bool) and bool not in types:
        errors.append(f"{path}: expected {_spec_name(spec)}, got bool")
        return
    if not isinstance(value, types):
        errors.append(
            f"{path}: expected {_spec_name(spec)}, "
            f"got {type(value).__name__}"
        )


def _spec_name(spec: Any) -> str:
    if isinstance(spec, tuple):
        return "|".join(t.__name__ for t in spec)
    return spec.__name__


def validate_manifest(payload: Any) -> List[str]:
    """Schema errors of ``payload`` (empty list ⇔ valid manifest)."""
    if not isinstance(payload, dict):
        return [f"$: expected object, got {type(payload).__name__}"]
    version = payload.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        return ["$.schema_version: missing or not an integer"]
    schema = _SCHEMAS.get(version)
    if schema is None:
        known = ", ".join(str(v) for v in sorted(_SCHEMAS))
        return [
            f"$.schema_version: unknown version {version} (known: {known})"
        ]
    errors: List[str] = []
    _check(payload, schema, "$", errors)
    if not errors and payload["kind"] != MANIFEST_KIND:
        errors.append(
            f"$.kind: expected {MANIFEST_KIND!r}, got {payload['kind']!r}"
        )
    return errors


# -- diff / summarize ----------------------------------------------------------


def _flatten(payload: Any, path: str, into: Dict[str, Any]) -> None:
    if isinstance(payload, dict):
        for key in sorted(payload):
            _flatten(payload[key], f"{path}.{key}", into)
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            _flatten(item, f"{path}[{index}]", into)
    else:
        into[path] = payload


def diff_manifests(
    left: Mapping[str, Any],
    right: Mapping[str, Any],
    ignore_timing: bool = True,
) -> List[str]:
    """Human-readable differences between two manifests.

    With ``ignore_timing`` (the default) wall-clock fields and the
    schedule-sampled metrics are stripped first, so two same-seed runs
    diff empty at any ``--jobs`` — the property the determinism suite
    pins.
    """
    a: Dict[str, Any] = {}
    b: Dict[str, Any] = {}
    left_p = strip_timing_fields(dict(left)) if ignore_timing else dict(left)
    right_p = (
        strip_timing_fields(dict(right)) if ignore_timing else dict(right)
    )
    _flatten(left_p, "$", a)
    _flatten(right_p, "$", b)
    lines: List[str] = []
    for path in sorted(set(a) | set(b)):
        if path not in b:
            lines.append(f"- {path} = {a[path]!r}")
        elif path not in a:
            lines.append(f"+ {path} = {b[path]!r}")
        elif a[path] != b[path]:
            lines.append(f"~ {path}: {a[path]!r} -> {b[path]!r}")
    return lines


def summarize_manifest(manifest: Mapping[str, Any]) -> str:
    """Terse human summary (the ``repro telemetry summarize`` output)."""
    config = manifest.get("config", {})
    totals = manifest.get("totals", {})
    cache = totals.get("cache", {})
    lines = [
        f"run manifest (schema v{manifest.get('schema_version')})",
        f"  fingerprint : {manifest.get('fingerprint', '')[:16]}",
        f"  git rev     : {manifest.get('environment', {}).get('git_rev')}",
        f"  config      : platform={config.get('platform')} "
        f"seed={config.get('seed')} duration_s={config.get('duration_s')} "
        f"jobs={config.get('jobs')} disk_cache={config.get('disk_cache')}",
        f"  experiments : {totals.get('experiments')} in "
        f"{totals.get('elapsed_s', 0.0):.2f}s wall "
        f"({totals.get('serial_time_s', 0.0):.2f}s serial)",
        f"  cache       : {cache.get('hits', 0)} hits / "
        f"{cache.get('misses', 0)} misses "
        f"({100.0 * cache.get('hit_rate', 0.0):.0f}% hit rate)",
    ]
    for entry in manifest.get("experiments", []):
        entry_cache = entry.get("cache", {})
        lines.append(
            f"    {entry.get('name', '?'):<12} "
            f"{entry.get('elapsed_s', 0.0):7.2f}s  "
            f"cache {entry_cache.get('hits', 0)}/"
            f"{entry_cache.get('hits', 0) + entry_cache.get('misses', 0)}  "
            f"sha {entry.get('output_sha256', '')[:12]}"
        )
    return "\n".join(lines)


def load_manifest(path: str) -> Dict[str, Any]:
    """Read and JSON-parse a manifest file (no validation).

    A file that is not UTF-8 JSON with an object at its root raises
    :class:`ValueError` naming ``path``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: manifest root must be a JSON object")
    return payload


def write_manifest(manifest: Mapping[str, Any], path: str) -> None:
    """Write a manifest as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def hit_rate_of(manifest: Mapping[str, Any]) -> float:
    """Total characterization-cache hit rate recorded in a manifest."""
    rate = manifest.get("totals", {}).get("cache", {}).get("hit_rate", 0.0)
    return float(rate)
