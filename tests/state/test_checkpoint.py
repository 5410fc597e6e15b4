"""The completion journal: checksums, torn-tail tolerance and
canonical-form byte identity."""

import pytest

from repro.exec.canonical import canonical_json, config_digest
from repro.state.checkpoint import (
    JOURNAL_SCHEMA,
    CheckpointError,
    CompletionJournal,
)


class TestCompletionJournal:
    def test_append_replay_across_instances(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CompletionJournal(path)
        journal.append("job-a", {"value": 1})
        journal.append("job-b", [1, 2, 3])
        replayed = CompletionJournal(path)
        assert len(replayed) == 2
        assert "job-a" in replayed
        assert replayed.get("job-a") == {"value": 1}
        assert replayed.get("job-b") == [1, 2, 3]
        assert replayed.get("never-ran") is None

    def test_line_is_byte_identical_to_canonical_record(self, tmp_path):
        """The splice-built line (one result serialization) must equal
        ``canonical_json`` of the full record byte for byte — the
        on-disk format is part of the schema, not an implementation
        detail."""
        path = tmp_path / "journal.jsonl"
        journal = CompletionJournal(path)
        results = {
            "k1": {"nested": {"t": (1, 2)}, "f": 2.5},
            "k2": [float("inf"), float("nan"), "héllo ✓"],
        }
        for key, result in results.items():
            journal.append(key, result)
        for (key, result), line in zip(
            results.items(), path.read_text().splitlines()
        ):
            record = {
                "schema": JOURNAL_SCHEMA,
                "key": key,
                "result": result,
                "sha256": config_digest({"key": key, "result": result}),
            }
            assert line == canonical_json(record)

    def test_in_process_reads_match_disk_replay(self, tmp_path):
        """Results are normalized (tuples -> lists) the moment they are
        journaled, so the writing process and a resumed process see the
        same values."""
        path = tmp_path / "journal.jsonl"
        journal = CompletionJournal(path)
        journal.append("k", {"t": (1, 2)})
        assert journal.get("k") == {"t": [1, 2]}
        assert CompletionJournal(path).get("k") == {"t": [1, 2]}

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CompletionJournal(path)
        for index in range(3):
            journal.append(f"job-{index}", index)
        text = path.read_text()
        lines = text.splitlines()
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
        survivor = CompletionJournal(path)
        assert len(survivor) == 2
        assert "job-2" not in survivor

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CompletionJournal(path)
        for index in range(3):
            journal.append(f"job-{index}", index)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="followed by valid"):
            CompletionJournal(path).load()

    def test_tampered_result_fails_its_checksum(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CompletionJournal(path)
        journal.append("job-a", {"value": 1})
        journal.append("job-b", {"value": 2})
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"value":1', '"value":9')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum"):
            CompletionJournal(path).load()

    def test_absent_journal_is_empty(self, tmp_path):
        journal = CompletionJournal(tmp_path / "never-written.jsonl")
        assert len(journal) == 0
        assert journal.get("anything") is None
