"""Bench harness: pinned suite, schema validation, artifact naming."""

import json

import pytest

from repro.exec import bench


@pytest.fixture(scope="module")
def quick_doc():
    """One cheap kernel, once — enough to exercise the whole pipeline."""
    return bench.run_suite(repeats=1, kernels=["arith.hbfp_quantize"])


class TestSuite:
    def test_at_least_four_pinned_kernels(self):
        assert len(bench.pinned_kernels()) >= 4

    def test_document_shape(self, quick_doc):
        assert quick_doc["schema"] == bench.BENCH_SCHEMA
        record = quick_doc["kernels"]["arith.hbfp_quantize"]
        assert record["repeats"] == 1
        assert len(record["per_repeat_s"]) == 1
        wall = record["wall_s"]
        assert 0 < wall["min"] <= wall["mean"] <= wall["max"]

    def test_work_proof_is_deterministic(self):
        _, kernel = bench.pinned_kernels()["arith.hbfp_quantize"]
        assert kernel() == kernel()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown bench kernels"):
            bench.run_suite(repeats=1, kernels=["no.such.kernel"])

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            bench.run_suite(repeats=0)


class TestKernelPairs:
    """The dual-backend pair entries and their speedups section."""

    PAIR_BASES = (
        "kernels.bfp_matmul", "kernels.quantize",
        "kernels.systolic", "kernels.im2col",
    )

    def test_every_pair_pinned_under_both_backends(self):
        suite = bench.pinned_kernels()
        for base in self.PAIR_BASES:
            assert f"{base}.reference" in suite
            assert f"{base}.fast" in suite

    def test_pair_work_proofs_match_across_backends(self):
        """The timed payloads compute the same checksum — the bench is
        timing the same work, not two different problems."""
        suite = bench.pinned_kernels()
        _, reference = suite["kernels.im2col.reference"]
        _, fast = suite["kernels.im2col.fast"]
        assert reference() == fast()

    def test_speedups_section_built_from_pairs(self):
        doc = bench.run_suite(
            repeats=1,
            kernels=["kernels.im2col.reference", "kernels.im2col.fast"],
        )
        record = doc["speedups"]["kernels.im2col"]
        assert record["speedup"] == pytest.approx(
            record["reference_s"] / record["fast_s"]
        )
        assert bench.validate_bench(doc) == []

    def test_lone_backend_yields_no_speedups(self, quick_doc):
        assert "speedups" not in quick_doc

    def test_render_includes_speedup_table(self):
        doc = bench.run_suite(
            repeats=1,
            kernels=["kernels.im2col.reference", "kernels.im2col.fast"],
        )
        text = bench.render_suite(doc)
        assert "speedup" in text
        assert "kernels.im2col" in text


class TestSimDrainPair:
    """The event-loop microbench entries (old scheme vs new scheme)."""

    def test_both_arms_pinned(self):
        suite = bench.pinned_kernels()
        assert "sim.drain.reference" in suite
        assert "sim.drain.batched" in suite

    def test_work_proofs_identical(self):
        """Both arms fire the same events at the same times — the
        arrival stream is stream-equal by the next_gaps contract."""
        suite = bench.pinned_kernels()
        _, reference = suite["sim.drain.reference"]
        _, batched = suite["sim.drain.batched"]
        assert reference() == batched()

    def test_speedups_pair_reference_with_batched(self):
        doc = bench.run_suite(
            repeats=1,
            kernels=["sim.drain.reference", "sim.drain.batched"],
        )
        record = doc["speedups"]["sim.drain"]
        assert record["speedup"] == pytest.approx(
            record["reference_s"] / record["fast_s"]
        )
        assert bench.validate_bench(doc) == []


def _synthetic_doc(times, created=1000, work=None):
    """A minimal valid BENCH document with the given kernel min times."""
    kernels = {}
    for name, min_s in times.items():
        kernels[name] = {
            "description": name,
            "repeats": 1,
            "wall_s": {"min": min_s, "mean": min_s, "max": min_s},
            "per_repeat_s": [min_s],
            "work": 1.0 if work is None else work.get(name, 1.0),
        }
    return {
        "schema": bench.BENCH_SCHEMA,
        "code_version": "f" * 64,
        "python": "3.11.0",
        "platform": "test",
        "cpu_count": 1,
        "created_unix": created,
        "kernels": kernels,
    }


class TestDiff:
    def test_no_regression_within_tolerance(self):
        base = _synthetic_doc({"a": 0.010, "b": 0.020})
        cur = _synthetic_doc({"a": 0.015, "b": 0.019})
        regressions, notes = bench.diff_benches(base, cur, tolerance=2.0)
        assert regressions == []
        assert notes == []

    def test_regression_past_tolerance_flagged(self):
        base = _synthetic_doc({"a": 0.010})
        cur = _synthetic_doc({"a": 0.025})
        regressions, _ = bench.diff_benches(base, cur, tolerance=2.0)
        assert len(regressions) == 1
        assert "a:" in regressions[0]
        assert "2.50x" in regressions[0]

    def test_exactly_at_tolerance_passes(self):
        base = _synthetic_doc({"a": 0.010})
        cur = _synthetic_doc({"a": 0.020})
        regressions, _ = bench.diff_benches(base, cur, tolerance=2.0)
        assert regressions == []

    def test_one_sided_kernels_are_notes_not_failures(self):
        base = _synthetic_doc({"a": 0.010, "gone": 0.010})
        cur = _synthetic_doc({"a": 0.010, "new": 0.010})
        regressions, notes = bench.diff_benches(base, cur)
        assert regressions == []
        assert any("gone" in note for note in notes)
        assert any("new" in note for note in notes)

    def test_work_proof_drift_is_a_note(self):
        base = _synthetic_doc({"a": 0.010}, work={"a": 5.0})
        cur = _synthetic_doc({"a": 0.010}, work={"a": 6.0})
        regressions, notes = bench.diff_benches(base, cur)
        assert regressions == []
        assert any("work proof changed" in note for note in notes)

    def test_bad_tolerance_rejected(self):
        base = _synthetic_doc({"a": 0.010})
        with pytest.raises(ValueError, match="tolerance"):
            bench.diff_benches(base, base, tolerance=1.0)

    def test_latest_bench_path_picks_newest_stamp(self, tmp_path):
        old = _synthetic_doc({"a": 0.010}, created=100)
        new = _synthetic_doc({"a": 0.010}, created=200)
        (tmp_path / "BENCH_aaa.json").write_text(json.dumps(new))
        (tmp_path / "BENCH_bbb.json").write_text(json.dumps(old))
        assert bench.latest_bench_path(tmp_path) == str(
            tmp_path / "BENCH_aaa.json"
        )

    def test_latest_bench_path_skips_invalid_files(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (tmp_path / "BENCH_schema.json").write_text(json.dumps({"schema": "x"}))
        good = _synthetic_doc({"a": 0.010}, created=50)
        (tmp_path / "BENCH_good.json").write_text(json.dumps(good))
        assert bench.latest_bench_path(tmp_path) == str(
            tmp_path / "BENCH_good.json"
        )

    def test_latest_bench_path_empty_dir(self, tmp_path):
        assert bench.latest_bench_path(tmp_path) is None

    def test_committed_baseline_is_discoverable(self):
        """The repo must always carry a valid baseline for the CI gate."""
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        path = bench.latest_bench_path(repo / "benchmarks")
        assert path is not None
        with open(path) as handle:
            data = json.load(handle)
        assert bench.validate_bench(data) == []


class TestValidation:
    def test_valid_document_passes(self, quick_doc):
        assert bench.validate_bench(quick_doc) == []

    def test_wrong_schema_fails(self, quick_doc):
        doc = dict(quick_doc, schema="nope")
        assert any("schema" in p for p in bench.validate_bench(doc))

    def test_nonfinite_timing_fails(self, quick_doc):
        doc = json.loads(json.dumps(quick_doc))
        doc["kernels"]["arith.hbfp_quantize"]["wall_s"]["min"] = 0.0
        assert bench.validate_bench(doc)

    def test_unordered_stats_fail(self, quick_doc):
        doc = json.loads(json.dumps(quick_doc))
        wall = doc["kernels"]["arith.hbfp_quantize"]["wall_s"]
        wall["min"] = wall["max"] * 2
        assert any("out of order" in p for p in bench.validate_bench(doc))

    def test_empty_kernels_fail(self, quick_doc):
        doc = dict(quick_doc, kernels={})
        assert bench.validate_bench(doc)

    def test_speedups_must_be_an_object(self, quick_doc):
        doc = dict(quick_doc, speedups=[1.0])
        assert any("speedups" in p for p in bench.validate_bench(doc))

    def test_nonpositive_speedup_timing_fails(self, quick_doc):
        doc = dict(quick_doc, speedups={
            "kernels.x": {"reference_s": 0.0, "fast_s": 1.0, "speedup": 0.0},
        })
        assert any("speedups.kernels.x" in p for p in bench.validate_bench(doc))

    def test_wellformed_speedups_pass(self, quick_doc):
        doc = dict(quick_doc, speedups={
            "kernels.x": {
                "reference_s": 2.0, "fast_s": 0.5, "speedup": 4.0,
            },
        })
        assert bench.validate_bench(doc) == []


class TestArtifact:
    def test_default_path_uses_fingerprint(self, tmp_path):
        from repro.exec.canonical import code_fingerprint

        path = bench.default_bench_path(tmp_path)
        assert path.endswith(f"BENCH_{code_fingerprint()[:12]}.json")

    def test_write_and_reload(self, quick_doc, tmp_path):
        path = bench.default_bench_path(tmp_path, rev="testrev")
        bench.write_bench(quick_doc, path)
        with open(path) as handle:
            assert bench.validate_bench(json.load(handle)) == []

    def test_refuses_invalid_document(self, tmp_path):
        with pytest.raises(ValueError, match="refusing to write"):
            bench.write_bench({"schema": "bad"}, str(tmp_path / "b.json"))

    def test_render_mentions_every_kernel(self, quick_doc):
        text = bench.render_suite(quick_doc)
        assert "arith.hbfp_quantize" in text
