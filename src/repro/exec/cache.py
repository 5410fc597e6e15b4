"""Content-addressed on-disk result cache.

One entry per job, addressed by the job's sha256 digest (over the
canonical serialization of ``fn_id + config + seed + code_version``) in
a two-level fan-out directory. Every entry is written atomically
(temp file + rename) and carries a checksum of its own payload, so a
hit is **byte-verified** before it is trusted:

* payload bytes must re-hash to the stored ``payload_sha256``;
* the stored key material must match the requesting job (a collision
  or a hand-edited file can never alias another job's result);
* any :class:`repro.obs.report.RunReport`-shaped dict embedded in the payload
  must still pass :func:`repro.obs.report.validate_report`.

A verification failure is not an error: the entry is *evicted* and the
caller recomputes — a corrupt cache can cost time, never correctness.
"""

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

from repro.exec.canonical import config_digest, decode, encode
from repro.exec.jobs import Job
from repro.obs.report import SCHEMA_ID, validate_report

__all__ = ["CacheStats", "ResultCache"]

#: Schema tag of one cache entry file.
ENTRY_SCHEMA = "repro.exec/cache-entry/v1"

#: Sentinel distinguishing "miss" from a legitimately-``None`` result.
_MISS = object()


class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    __slots__ = ("hits", "misses", "evictions", "writes")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, writes={self.writes})"
        )


def _iter_reports(payload: Any) -> Iterator[Dict[str, Any]]:
    """Every RunReport-shaped dict embedded anywhere in a payload."""
    if isinstance(payload, dict):
        if payload.get("schema") == SCHEMA_ID:
            yield payload
            return
        for value in payload.values():
            yield from _iter_reports(value)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            yield from _iter_reports(value)


class ResultCache:
    """Content-addressed job-result store under one directory.

    Args:
        directory: Cache root; created on first write.
    """

    def __init__(self, directory: "str | os.PathLike[str]"):
        self.directory = Path(directory)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def path_for(self, job: Job) -> Path:
        digest = job.digest()
        return self.directory / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def get(self, job: Job) -> Tuple[bool, Any]:
        """``(hit, result)`` — verified result on hit, else ``(False,
        None)`` with the entry evicted if it existed but failed
        verification."""
        value = self._load_verified(job)
        if value is _MISS:
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, value

    def _load_verified(self, job: Job) -> Any:
        path = self.path_for(job)
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, OSError):
            return _MISS
        try:
            entry = json.loads(raw)
        except ValueError:
            return self._evict(path, "entry is not valid JSON")
        if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
            return self._evict(path, "entry schema mismatch")
        payload_text = entry.get("payload_json")
        if not isinstance(payload_text, str):
            return self._evict(path, "entry has no payload")
        if config_digest(payload_text) != entry.get("payload_sha256"):
            return self._evict(path, "payload checksum mismatch")
        if entry.get("key") != job.key_material():
            return self._evict(path, "key material mismatch")
        try:
            payload = json.loads(payload_text)
        except ValueError:
            return self._evict(path, "payload is not valid JSON")
        for report in _iter_reports(payload):
            problems = validate_report(report)
            if problems:
                return self._evict(
                    path, f"embedded RunReport invalid: {problems[0]}"
                )
        return decode(payload_text)

    def _evict(self, path: Path, reason: str) -> Any:
        """Drop a corrupt entry; the caller recomputes.

        Guarded by an exclusive-create lock file so two processes
        sharing a cache directory cannot race: without it, a slow
        evictor could unlink an entry a concurrent writer *just*
        recomputed and stored (classic check-then-act). The loser of
        the ``O_CREAT | O_EXCL`` race skips the unlink and simply
        reports a miss — recomputing costs time, never correctness.
        No staleness timeout is kept on the lock (``repro`` never reads
        the wall clock on these paths); an orphaned lock from a killed
        process only suppresses future evictions of that one corrupt
        entry, and the entry's verified read path still misses.
        """
        self.stats.evictions += 1
        lock_path = path.with_suffix(".evict.lock")
        try:
            fd = os.open(str(lock_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            # Another process holds the eviction; treat as a miss.
            return _MISS
        except OSError:
            return _MISS
        try:
            os.close(fd)
            try:
                path.unlink()
            except OSError:
                pass
        finally:
            try:
                lock_path.unlink()
            except OSError:
                pass
        return _MISS

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------

    def put(self, job: Job, result: Any) -> Path:
        """Store one (already canonical-normalized) job result."""
        payload_text = encode(result)
        entry = {
            "schema": ENTRY_SCHEMA,
            "fn_id": job.fn_id,
            "seed": job.seed,
            "code_version": job.resolved_code_version(),
            "key": job.key_material(),
            "payload_json": payload_text,
            "payload_sha256": config_digest(payload_text),
        }
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(entry, sort_keys=True, indent=1)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=".tmp-", suffix=".json",
            delete=False, encoding="utf-8",
        )
        try:
            with handle:
                handle.write(text)
            os.replace(handle.name, path)
        except OSError:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path
