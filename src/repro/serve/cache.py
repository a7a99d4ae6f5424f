"""Content-addressed result store for scenario queries.

Results are keyed by :meth:`~repro.serve.spec.ScenarioSpec.spec_hash` —
the SHA-256 of the canonical spec JSON — so the cache never needs an
invalidation protocol for *inputs*: a different question is a different
key.  The caveat (documented in ``docs/SERVICE.md``) is code drift: the
key does not encode the solver implementation, so cached blobs must be
discarded when the numerics change (the on-disk directory is safe to
delete wholesale at any time).

Each entry is the result's JSON encoding (:func:`encode_result`), made
once when the result completes.  The HTTP front end splices those bytes
into its answers as they are, so a cache hit encodes nothing; library
callers of :meth:`ResultCache.get` still receive a dict, decoded on
demand.  Two tiers:

* an in-memory LRU (``OrderedDict`` behind a lock) bounded by
  ``max_entries``;
* an optional on-disk tier (``disk_dir``) storing the same bytes as
  ``<hash>.json``.  Disk blobs survive restarts and LRU eviction;
  reads re-populate the memory tier.  Floats round-trip JSON exactly
  (shortest repr), so a disk hit returns the same numbers as the run
  that produced it.

Hit/miss accounting lives here as plain counters and is mirrored into
the observability :class:`~repro.obs.metrics.MetricsRegistry`
(``serve.cache.hits`` / ``misses`` / ``evictions``) when an observer is
installed — the service layer decides *what* counts as a hit (a
coalesced in-flight wait does), so it calls :meth:`record_hit` /
:meth:`record_miss` explicitly rather than having ``get`` guess.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Mapping

from repro.obs.trace import get_observer

__all__ = ["ResultCache", "encode_result"]


def encode_result(result: Mapping[str, object]) -> bytes:
    """The JSON bytes a result is cached, stored on disk and served as."""
    return json.dumps(result).encode("utf-8")


class ResultCache:
    """Bounded LRU of scenario results, optionally backed by disk.

    Parameters
    ----------
    max_entries:
        In-memory capacity; the least-recently-used entry is evicted on
        overflow (evictions only drop the memory copy when a disk tier
        holds the blob).
    disk_dir:
        Optional directory for persistent ``<hash>.json`` blobs; created
        on first write.
    """

    def __init__(self, max_entries: int = 1024,
                 disk_dir: str | Path | None = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_errors = 0

    # -- storage -----------------------------------------------------------
    def get(self, key: str, *,
            encoded: bool = False) -> dict[str, object] | bytes | None:
        """The cached result for ``key`` as a dict, or ``None``.

        ``encoded=True`` returns the stored JSON bytes instead, which
        is how the service answers a hit without decoding or encoding.
        A memory hit is promoted to most-recently-used; a disk hit is
        loaded back into the memory tier.  No hit/miss accounting
        happens here — the service layer owns that (see module
        docstring).
        """
        with self._lock:
            body = self._entries.get(key)
            if body is not None:
                self._entries.move_to_end(key)
        if body is None:
            body = self._read_disk(key)
            if body is None:
                return None
            self._remember(key, body)
        return body if encoded else json.loads(body)

    def put(self, key: str,
            result: Mapping[str, object] | bytes) -> None:
        """Store a result, or its :func:`encode_result` bytes, under its
        content address (idempotent)."""
        body = result if isinstance(result, bytes) else encode_result(result)
        if self._remember(key, body):
            self._write_disk(key, body)

    def _remember(self, key: str, body: bytes) -> bool:
        """Put ``body`` in the memory tier; whether ``key`` was new."""
        with self._lock:
            new = key not in self._entries
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                self._inc("serve.cache.evictions")
        return new

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return self._disk_path(key) is not None

    def clear(self) -> None:
        """Drop the memory tier (disk blobs are left in place)."""
        with self._lock:
            self._entries.clear()

    # -- accounting --------------------------------------------------------
    def record_hit(self) -> None:
        """Count one answered-from-cache (or coalesced) request."""
        with self._lock:
            self._hits += 1
        self._inc("serve.cache.hits")

    def record_miss(self) -> None:
        """Count one request that required a fresh integration."""
        with self._lock:
            self._misses += 1
        self._inc("serve.cache.misses")

    def stats(self) -> dict[str, int]:
        """Snapshot of the counters (hits, misses, evictions, entries)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
            }

    def disk_status(self) -> dict[str, object]:
        """Disk-tier summary for ``/healthz``.

        ``tier`` is ``"disabled"`` (no ``disk_dir``), ``"ok"``, or
        ``"degraded"`` (at least one unreadable blob observed).  Blob
        counting only happens when a directory exists; a missing
        directory just means nothing has been written yet.
        """
        with self._lock:
            errors = self._disk_errors
        if self.disk_dir is None:
            return {"tier": "disabled", "blobs": 0, "read_errors": errors}
        try:
            blobs = sum(1 for _ in self.disk_dir.glob("*.json"))
        except OSError:
            return {"tier": "degraded", "blobs": 0,
                    "read_errors": errors + 1}
        return {"tier": "degraded" if errors else "ok", "blobs": blobs,
                "read_errors": errors}

    @staticmethod
    def _inc(metric: str) -> None:
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc(metric)

    # -- disk tier ---------------------------------------------------------
    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        path = self.disk_dir / f"{key}.json"
        return path if path.is_file() else None

    def _read_disk(self, key: str) -> bytes | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            body = path.read_bytes()
            json.loads(body)
        except (OSError, ValueError) as exc:
            # A torn blob is just a miss (it will be recomputed and
            # rewritten), but it is also a cache-integrity signal the
            # health watchdog should see: a stream of them points at a
            # failing disk or an unsafe concurrent writer.
            with self._lock:
                self._disk_errors += 1
            observer = get_observer()
            if observer is not None:
                observer.health.check_cache_blob(
                    False, path=str(path),
                    detail=f"{type(exc).__name__}: {exc}")
            return None
        observer = get_observer()
        if observer is not None:
            observer.health.check_cache_blob(True, path=str(path))
        return body

    def _write_disk(self, key: str, body: bytes) -> None:
        if self.disk_dir is None:
            return
        self.disk_dir.mkdir(parents=True, exist_ok=True)
        path = self.disk_dir / f"{key}.json"
        tmp = path.with_suffix(".json.tmp")
        try:
            tmp.write_bytes(body)
            tmp.replace(path)  # atomic on POSIX: readers never see a torn blob
        except OSError:
            tmp.unlink(missing_ok=True)
