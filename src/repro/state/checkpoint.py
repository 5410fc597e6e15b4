"""The completed-work journal: the one crash-recovery record.

The **completion journal** is the resume log of the execution engine:
one line per finished work unit, appended with flush+fsync before the
result is reported. Each line carries its own payload checksum, and a
torn trailing line (the crash case) is silently dropped on load —
everything before it is intact by construction. ``--resume`` replays
the journal the way the scheduler consults the result cache: completed
jobs are served from the log, in-flight work restarts.

Lines go through :mod:`repro.exec.canonical`, so journal bytes are a
pure function of the results they record — the foundation of the
bit-exact resume contract.
"""

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exec.canonical import canonical_json, config_digest, decode

__all__ = ["CheckpointError", "CompletionJournal"]

#: Schema tag of every journal line (bump on layout changes).
JOURNAL_SCHEMA = "repro.state/journal/v1"


class CheckpointError(ValueError):
    """A journal exists but cannot be trusted (schema mismatch,
    checksum failure, corruption before the last line). Never raised
    for an *absent* journal — missing means "start from zero", broken
    means stop."""


class CompletionJournal:
    """Append-only log of finished work units, tolerant of torn tails.

    One canonical-JSON line per completion::

        {"key": ..., "result": ..., "schema": ..., "sha256": ...}

    where ``sha256`` covers ``{"key", "result"}``. ``append`` flushes
    and fsyncs before returning, so a journal line exists iff its
    result was durably recorded — the scheduler appends *before*
    surfacing a result, making the journal a prefix of the truth. On
    load, a trailing line that fails to parse or checksum is dropped
    (the kill -9 case: a partially flushed last line); a corrupt line
    *followed by valid lines* is real corruption and raises.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._entries: Dict[str, Any] = {}
        self._loaded = False

    def _iter_lines(self) -> Iterator[Tuple[int, str]]:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        for number, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                yield number, line

    def load(self) -> Dict[str, Any]:
        """Replay the journal into a ``key -> result`` map (cached)."""
        if self._loaded:
            return self._entries
        lines: List[Tuple[int, str]] = list(self._iter_lines())
        for position, (number, line) in enumerate(lines):
            entry = self._parse(number, line, last=position == len(lines) - 1)
            if entry is not None:
                key, result = entry
                self._entries[key] = result
        self._loaded = True
        return self._entries

    def _parse(
        self, number: int, line: str, *, last: bool
    ) -> Optional[Tuple[str, Any]]:
        try:
            record = json.loads(line)
            if record.get("schema") != JOURNAL_SCHEMA:
                raise CheckpointError(
                    f"{self.path}:{number}: journal schema "
                    f"{record.get('schema')!r}, expected {JOURNAL_SCHEMA!r}"
                )
            body = {"key": record["key"], "result": record["result"]}
            if config_digest(from_canonical(body)) != record["sha256"]:
                raise CheckpointError(
                    f"{self.path}:{number}: journal line checksum mismatch"
                )
            return str(record["key"]), from_canonical(body)["result"]
        except (json.JSONDecodeError, KeyError, AttributeError) as exc:
            if last:
                return None  # torn tail from a crash mid-append
            raise CheckpointError(
                f"{self.path}:{number}: corrupt journal line "
                f"followed by valid lines ({exc})"
            ) from exc
        except CheckpointError:
            if last:
                return None
            raise

    def get(self, key: str) -> Optional[Any]:
        return self.load().get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.load()

    def __len__(self) -> int:
        return len(self.load())

    def append(self, key: str, result: Any) -> None:
        """Durably record one completion (flush + fsync before return).

        The journal line is built by splicing ``schema`` and ``sha256``
        into the already-canonical body text: canonical JSON sorts keys
        (``key`` < ``result`` < ``schema`` < ``sha256``) and both
        spliced values are plain ASCII, so the spliced line is
        byte-identical to ``canonical_json`` of the full record while
        serializing the result once instead of three times — on
        large-result jobs that serialization, not the fsync, dominates
        the barrier cost.
        """
        entries = self.load()
        body_text = canonical_json({"key": str(key), "result": result})
        digest = hashlib.sha256(body_text.encode("utf-8")).hexdigest()
        line = (
            body_text[:-1]
            + f',"schema":"{JOURNAL_SCHEMA}","sha256":"{digest}"}}'
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        # Cache the *normalized* result so in-process reads match what a
        # fresh process would replay from disk.
        entries[str(key)] = decode(body_text)["result"]


def from_canonical(value: Any) -> Any:
    """Round-trip a value through canonical JSON (normalization).

    Journal checksums must be computed over the *normalized* form —
    what a reader reconstructs from the line — or a result containing
    e.g. a tuple would checksum differently before and after the disk
    round-trip.
    """
    return decode(canonical_json(value))
