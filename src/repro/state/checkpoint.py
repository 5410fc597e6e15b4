"""Checkpoint files and the completed-work journal.

Two persistence primitives with one durability story:

* **Checkpoint files** hold one canonical-JSON state dict (a sweep's
  job counters, an experiment capture's ``state_dict()``) under the
  ``repro.state/checkpoint/v1`` schema. They are written
  atomically — canonical JSON to a temp file in the target directory,
  fsync, then ``os.replace`` — and carry a sha256 over their own
  payload, so a reader sees either a complete, verified checkpoint or
  none at all. A kill -9 mid-write leaves the previous checkpoint
  intact.

* The **completion journal** is the resume log of the execution
  engine: one line per finished work unit, appended with flush+fsync
  before the result is reported. Each line carries its own payload
  checksum, and a torn trailing line (the crash case) is silently
  dropped on load — everything before it is intact by construction.
  ``--resume`` replays the journal the way the scheduler consults the
  result cache: completed jobs are served from the log, in-flight work
  restarts.

Both go through :mod:`repro.exec.canonical`, so checkpoint bytes are a
pure function of the state they record — the foundation of the
bit-exact resume contract.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exec.canonical import canonical_json, config_digest, decode

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointStore",
    "CompletionJournal",
    "read_checkpoint",
    "write_checkpoint",
]

#: Schema tag of every checkpoint document (bump on layout changes).
CHECKPOINT_SCHEMA = "repro.state/checkpoint/v1"

#: Journal lines carry their own schema: the journal is a different
#: artifact (append-only log vs. single document) with its own layout.
JOURNAL_SCHEMA = "repro.state/journal/v1"


class CheckpointError(ValueError):
    """A checkpoint file exists but cannot be trusted (schema mismatch,
    checksum failure, malformed JSON). Never raised for *absent*
    checkpoints — missing means "start from zero", broken means stop."""


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp + fsync + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=".tmp-", suffix=".json",
        delete=False, encoding="utf-8",
    ) as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
        temp_name = handle.name
    os.replace(temp_name, path)


def write_checkpoint(
    path: Path, state: Any, *, kind: str, step: int = 0
) -> str:
    """Atomically persist one state dict; returns its payload digest.

    ``kind`` names what was saved (e.g. ``"sweep"``, ``"capture.fig7"``)
    and is verified on read so a checkpoint cannot be read by the wrong
    consumer. ``step`` is the consumer's progress marker (jobs
    completed, capture windows) — informational, but part of the
    checksummed payload.
    """
    payload = {"kind": str(kind), "step": int(step), "state": state}
    payload_text = canonical_json(payload)
    digest = config_digest(payload)
    document = {
        "schema": CHECKPOINT_SCHEMA,
        "payload": payload_text,
        "payload_sha256": digest,
    }
    _atomic_write_text(path, canonical_json(document))
    return digest


def read_checkpoint(path: Path, *, kind: Optional[str] = None) -> Dict[str, Any]:
    """Load and verify one checkpoint; returns the payload dict
    (``kind`` / ``step`` / ``state``).

    Raises :class:`CheckpointError` on any integrity failure and
    ``FileNotFoundError`` when the file is absent — the two cases
    demand different reactions (stop vs. cold start), so they are
    different exceptions.
    """
    text = path.read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"{path}: checkpoint document is not an object")
    if document.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path}: schema {document.get('schema')!r}, "
            f"expected {CHECKPOINT_SCHEMA!r}"
        )
    payload_text = document.get("payload")
    if not isinstance(payload_text, str):
        raise CheckpointError(f"{path}: missing payload")
    if config_digest(decode(payload_text)) != document.get("payload_sha256"):
        raise CheckpointError(f"{path}: payload checksum mismatch")
    payload = decode(payload_text)
    if kind is not None and payload.get("kind") != kind:
        raise CheckpointError(
            f"{path}: checkpoint kind {payload.get('kind')!r}, "
            f"expected {kind!r}"
        )
    return payload


class CheckpointStore:
    """Latest-wins checkpoint files, one per ``kind``, in one directory.

    Each ``save`` atomically replaces ``<dir>/<kind>.ckpt.json``; the
    store never keeps history (the bit-exact contract makes any valid
    checkpoint as good as any other — resuming from an older one just
    recomputes more). ``load`` returns ``None`` when no checkpoint of
    that kind exists yet.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def path_for(self, kind: str) -> Path:
        return self.directory / f"{kind}.ckpt.json"

    def save(self, kind: str, state: Any, *, step: int = 0) -> Path:
        path = self.path_for(kind)
        write_checkpoint(path, state, kind=kind, step=step)
        return path

    def load(self, kind: str) -> Optional[Dict[str, Any]]:
        """The latest payload of ``kind``, or ``None`` before the first
        save. Corrupt files raise :class:`CheckpointError`."""
        path = self.path_for(kind)
        try:
            return read_checkpoint(path, kind=kind)
        except FileNotFoundError:
            return None


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
