"""Content-addressed on-disk cache for experiment results.

A cache entry is addressed by the blake2b digest of the canonical JSON of
its *key components* — the experiment name plus everything that
determines the result: netlist structural fingerprint and exact delay
assignment for gate-level experiments, operand geometry, backend, master
seed, shard size and per-experiment parameters (sample counts, depths,
steps, images, frequency factors).  Execution details — ``jobs``,
``cache_dir`` — never enter the key, so a result computed by one worker
layout is served to every other.

Storage is the split format the :mod:`repro.runners.results` protocol is
designed around:

* ``<digest>.json`` — the result's ``to_dict()`` minus its array fields,
  plus the key components (for debuggability) and the list of array
  names;
* ``<digest>.npz`` — the array fields as compressed numpy binary.

Both files are written to a temporary name, fsynced, and atomically
renamed, so a crashed (even SIGKILLed) writer can never leave a
half-entry that poisons later runs.  The *pair* commits in a fixed
order — arrays first, JSON second — and the JSON rename is the commit
point: a reader either sees no JSON (a plain miss) or a complete JSON
whose array file was already fully in place when the JSON appeared.
Keys are content addresses, so two writers racing on one key are by
construction writing identical bytes and either rename order is safe.
A writer killed before its rename leaves only a ``*.tmp`` droppings
file, which never matches the ``*.json``/``*.npz`` read paths and is
swept on the next :class:`ResultCache` construction once it is
unambiguously stale (:data:`STALE_TMP_SECONDS`).

Robustness: the store never *trusts* on-disk bytes.  A truncated,
hand-edited or otherwise undecodable entry is detected on read, moved
into a ``quarantine/`` subdirectory (preserving the evidence), reported
with a :class:`RuntimeWarning`, and treated as a miss — the caller
recomputes and overwrites, so storage rot can cost time but never
correctness and never a crash.  A failed write (disk full, read-only,
the directory replaced by a file) likewise warns, counts
``cache.write_errors`` and leaves no ``*.tmp``: the entry is not
stored, and the caller keeps its result.

Besides full :class:`~repro.runners.results.Result` objects, the store
also holds *raw* JSON payloads (:meth:`ResultCache.put_raw` /
:meth:`ResultCache.get_raw`): plain dicts of JSON scalars, used as
per-shard checkpoints by long campaigns so a killed run resumes from the
completed shards (floats round-trip exactly through JSON's repr-based
encoding, keeping resumed merges bit-identical).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.obs.metrics import metrics
from repro.obs.trace import current_tracer
from repro.runners.results import jsonable, result_from_dict

#: bump to invalidate every existing cache entry on a format change
CACHE_FORMAT_VERSION = 1

#: ``kind`` tag of raw (non-Result) JSON payload entries
RAW_KIND = "_raw"

#: subdirectory corrupt entries are moved into (never auto-deleted)
QUARANTINE_DIR = "quarantine"

#: age (seconds) past which an abandoned ``*.tmp`` file from a killed
#: writer is swept at construction — generous enough that no live
#: writer (entries take seconds at most) can be holding it
STALE_TMP_SECONDS = 3600.0


def cache_key(**components: Any) -> str:
    """Content address of a result: blake2b over canonical JSON.

    Components may contain numpy arrays/scalars; they are canonicalised
    to JSON (sorted keys, no whitespace) before hashing, so logically
    equal keys hash equally regardless of construction order.
    """
    canon = json.dumps(
        jsonable(dict(components, _cache_format=CACHE_FORMAT_VERSION)),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(canon.encode(), digest_size=16).hexdigest()


class ResultCache:
    """JSON + npz result store under one directory.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries (created on first use).
    """

    def __init__(self, cache_dir: os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # gone bad since RunConfig checked it: reads miss, puts warn
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Drop ``*.tmp`` droppings of writers killed before their rename.

        Only files older than :data:`STALE_TMP_SECONDS` go — a fresh
        tmp file may belong to a concurrent writer about to rename it.
        Best-effort: a racing sweep losing to another process is fine.
        """
        cutoff = time.time() - STALE_TMP_SECONDS
        try:
            candidates = list(self.cache_dir.glob("*.tmp"))
        except OSError:
            return
        for path in candidates:
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass

    # --------------------------------------------------------------- paths
    def _json_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.npz"

    # ---------------------------------------------------------------- I/O
    def get(self, key: str) -> Optional[Any]:
        """Load the result stored under *key*, or None on miss.

        A present-but-unreadable entry (truncated npz, hand-edited JSON,
        unknown result kind, format-version mismatch) is *quarantined*:
        moved aside with a warning and reported as a miss, so the caller
        recomputes instead of crashing on rotten bytes.
        """
        json_path = self._json_path(key)
        if not json_path.exists():
            self._miss(key)
            return None
        try:
            meta = json.loads(json_path.read_text())
            if meta.get("format") != CACHE_FORMAT_VERSION:
                raise ValueError(
                    f"cache format {meta.get('format')!r} != "
                    f"{CACHE_FORMAT_VERSION}"
                )
            if meta.get("kind") == RAW_KIND:
                # a raw checkpoint entry under a Result key — type clash
                self._miss(key)
                return None
            data = dict(meta["result"])
            array_names = meta.get("arrays", [])
            if array_names:
                with np.load(self._npz_path(key)) as npz:
                    for name in array_names:
                        data[name] = npz[name]
            result = result_from_dict(data)
        except Exception as exc:
            self._quarantine(key, exc)
            self._miss(key)
            return None
        self._hit(key)
        return result

    def put(self, key: str, result: Any, key_components: Optional[Mapping] = None) -> None:
        """Store *result* (a :class:`~repro.runners.results.Result`) under *key*.

        An attached metrics snapshot (``result.metrics``, surfaced by
        ``to_dict()``) is stripped before storage: it describes the run
        that *computed* the entry, not the entry itself, and keeping it
        would make cached payloads depend on execution conditions.
        """
        current_tracer().event("cache.put", key=key)
        metrics().count("cache.puts")
        data = result.to_dict()
        data.pop("metrics", None)
        array_fields = getattr(type(result), "_array_fields", {})
        arrays: Dict[str, np.ndarray] = {}
        for name, dtype in array_fields.items():
            if name in data:
                arrays[name] = np.asarray(data.pop(name), dtype=dtype)
        meta = {
            "format": CACHE_FORMAT_VERSION,
            "kind": getattr(result, "kind", None),
            "arrays": sorted(arrays),
            "key_components": jsonable(dict(key_components or {})),
            "result": jsonable(data),
        }
        try:
            if arrays:
                self._atomic_write(
                    self._npz_path(key),
                    lambda fh: np.savez_compressed(fh, **arrays),
                    binary=True,
                )
            self._write_json(key, meta)
        except OSError as exc:
            self._write_error(key, exc)

    # ------------------------------------------------------ raw payloads
    def put_raw(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store a plain JSON payload (shard checkpoints, small partials).

        Raw entries hold exact values: ints are arbitrary precision and
        floats round-trip bit-exactly through JSON's repr encoding, so a
        merge over resumed checkpoints equals the uninterrupted merge.
        """
        meta = {
            "format": CACHE_FORMAT_VERSION,
            "kind": RAW_KIND,
            "arrays": [],
            "payload": jsonable(dict(payload)),
        }
        try:
            self._write_json(key, meta)
        except OSError as exc:
            self._write_error(key, exc)

    def get_raw(self, key: str) -> Optional[Dict[str, Any]]:
        """Load a raw payload stored by :meth:`put_raw`, or None on miss.

        Corrupt or type-mismatched entries quarantine exactly like
        :meth:`get`.
        """
        json_path = self._json_path(key)
        if not json_path.exists():
            self._miss(key)
            return None
        try:
            meta = json.loads(json_path.read_text())
            if meta.get("format") != CACHE_FORMAT_VERSION:
                raise ValueError(
                    f"cache format {meta.get('format')!r} != "
                    f"{CACHE_FORMAT_VERSION}"
                )
            if meta.get("kind") != RAW_KIND:
                # a Result entry under a raw key — type clash, plain miss
                self._miss(key)
                return None
            payload = dict(meta["payload"])
        except Exception as exc:
            self._quarantine(key, exc)
            self._miss(key)
            return None
        self._hit(key)
        return payload

    # ------------------------------------------------------------ plumbing
    def _hit(self, key: str) -> None:
        self.hits += 1
        metrics().count("cache.hits")
        current_tracer().event("cache.hit", key=key)

    def _miss(self, key: str) -> None:
        self.misses += 1
        metrics().count("cache.misses")
        current_tracer().event("cache.miss", key=key)

    def _quarantine(self, key: str, exc: Exception) -> None:
        """Move a corrupt entry aside (evidence preserved) and warn."""
        self.corrupt += 1
        metrics().count("cache.quarantined")
        current_tracer().event(
            "cache.quarantine",
            key=key,
            error=f"{type(exc).__name__}: {exc}",
        )
        target_dir = self.cache_dir / QUARANTINE_DIR
        moved = []
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            for path in (self._json_path(key), self._npz_path(key)):
                if path.exists():
                    os.replace(path, target_dir / path.name)
                    moved.append(path.name)
        except OSError:
            # quarantine is best-effort: fall back to dropping the entry
            for path in (self._json_path(key), self._npz_path(key)):
                try:
                    path.unlink()
                except OSError:
                    pass
        warnings.warn(
            f"corrupt result-cache entry {key} "
            f"({type(exc).__name__}: {exc}); "
            f"moved {moved or 'nothing'} to {QUARANTINE_DIR}/ and "
            "recomputing",
            RuntimeWarning,
            stacklevel=3,
        )

    def _write_error(self, key: str, exc: OSError) -> None:
        """Report a failed store; the caller keeps its computed result."""
        metrics().count("cache.write_errors")
        current_tracer().event(
            "cache.write_error",
            key=key,
            error=f"{type(exc).__name__}: {exc}",
        )
        warnings.warn(
            f"result-cache entry {key} not stored "
            f"({type(exc).__name__}: {exc})",
            RuntimeWarning,
            stacklevel=3,
        )

    def _write_json(self, key: str, meta: Mapping[str, Any]) -> None:
        """Commit an entry's JSON file (the entry's visibility point)."""
        self._atomic_write(
            self._json_path(key),
            lambda fh: fh.write(json.dumps(meta, sort_keys=True, indent=1)),
            binary=False,
        )

    def _atomic_write(self, path: Path, write_fn, binary: bool) -> None:
        """Write-to-temp + fsync + rename: the entry appears all-or-nothing.

        The fsync before the rename closes the kill window in which the
        rename is durable but the data is not — without it a crash could
        surface a complete-looking name over truncated bytes, exactly
        the torn entry the quarantine path exists to catch.
        """
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb" if binary else "w") as fh:
                write_fn(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -------------------------------------------------------------- admin
    def contains(self, key: str) -> bool:
        return self._json_path(key).exists()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/corruption counters and entry count of this handle."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "entries": len(list(self.cache_dir.glob("*.json"))),
        }

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self.cache_dir.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.cache_dir.glob("*.npz"):
            path.unlink(missing_ok=True)
        return removed


def cache_for(config) -> Optional[ResultCache]:
    """The :class:`ResultCache` a :class:`RunConfig` asks for, or None."""
    if getattr(config, "cache_dir", None):
        return ResultCache(config.cache_dir)
    return None
