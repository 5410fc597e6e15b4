"""ResultCache: content addressing, byte verification, eviction."""

import json

import pytest

from repro.exec.cache import ENTRY_SCHEMA, ResultCache
from repro.exec.jobs import Job


def _job(config=None, seed=0, code_version="v1"):
    return Job(
        "exec.probe",
        {"mode": "echo", **(config or {})},
        seed=seed,
        code_version=code_version,
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestHitMiss:
    def test_empty_cache_misses(self, cache):
        hit, value = cache.get(_job())
        assert not hit and value is None
        assert cache.stats.misses == 1

    def test_put_then_hit(self, cache):
        job = _job()
        cache.put(job, {"answer": 42})
        hit, value = cache.get(job)
        assert hit and value == {"answer": 42}
        assert cache.stats.hits == 1

    def test_config_delta_misses(self, cache):
        cache.put(_job({"payload": 1}), {"r": 1})
        hit, _ = cache.get(_job({"payload": 2}))
        assert not hit

    def test_seed_delta_misses(self, cache):
        cache.put(_job(seed=0), {"r": 1})
        hit, _ = cache.get(_job(seed=1))
        assert not hit

    def test_code_version_delta_misses(self, cache):
        cache.put(_job(code_version="v1"), {"r": 1})
        hit, _ = cache.get(_job(code_version="v2"))
        assert not hit

    def test_config_key_order_still_hits(self, cache):
        a = Job("exec.probe", {"mode": "echo", "x": 1}, code_version="v")
        b = Job("exec.probe", {"x": 1, "mode": "echo"}, code_version="v")
        cache.put(a, {"r": 1})
        hit, value = cache.get(b)
        assert hit and value == {"r": 1}

    def test_none_result_round_trips(self, cache):
        """A legitimately-None result is distinguishable from a miss."""
        job = _job()
        cache.put(job, None)
        hit, value = cache.get(job)
        assert hit and value is None


class TestVerification:
    def test_truncated_entry_evicted_and_recomputed(self, cache):
        job = _job()
        path = cache.put(job, {"r": 1})
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        hit, _ = cache.get(job)
        assert not hit
        assert cache.stats.evictions == 1
        assert not path.exists(), "corrupt entry must be removed"
        # Recompute path: a fresh put restores service.
        cache.put(job, {"r": 1})
        hit, value = cache.get(job)
        assert hit and value == {"r": 1}

    def test_tampered_payload_checksum_evicts(self, cache):
        job = _job()
        path = cache.put(job, {"r": 1})
        entry = json.loads(path.read_text())
        entry["payload_json"] = '{"r":999}'
        path.write_text(json.dumps(entry))
        hit, _ = cache.get(job)
        assert not hit and cache.stats.evictions == 1

    def test_aliased_key_material_evicts(self, cache):
        """An entry renamed onto another job's address is rejected."""
        a, b = _job({"payload": "a"}), _job({"payload": "b"})
        src = cache.put(a, {"r": "a"})
        dst = cache.path_for(b)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(src.read_bytes())
        hit, _ = cache.get(b)
        assert not hit and cache.stats.evictions == 1

    def test_wrong_schema_evicts(self, cache):
        job = _job()
        path = cache.put(job, {"r": 1})
        entry = json.loads(path.read_text())
        entry["schema"] = "something/else"
        path.write_text(json.dumps(entry))
        hit, _ = cache.get(job)
        assert not hit

    def test_embedded_invalid_run_report_evicts(self, cache):
        from repro.obs.report import SCHEMA_ID

        job = _job()
        report_shaped = {"schema": SCHEMA_ID, "name": "x"}  # missing fields
        # Write through the normal path (put doesn't validate payload
        # semantics), then verify the read side rejects it.
        cache.put(job, {"nested": [{"artifact": report_shaped}]})
        hit, _ = cache.get(job)
        assert not hit and cache.stats.evictions == 1

    def test_valid_embedded_report_passes(self, cache):
        from repro.obs.report import RunReport

        artifact = RunReport(name="t", kind="experiment", config={}).to_dict()
        job = _job()
        cache.put(job, {"artifact": artifact})
        hit, value = cache.get(job)
        assert hit and value["artifact"]["name"] == "t"


class TestMaintenance:
    def test_two_level_fanout(self, cache):
        job = _job()
        path = cache.put(job, {"r": 1})
        digest = job.digest()
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.json"

    def test_entry_is_schema_tagged(self, cache):
        path = cache.put(_job(), {"r": 1})
        assert json.loads(path.read_text())["schema"] == ENTRY_SCHEMA
