"""The EQX4xx whole-program pass: broken-fixture corpus, escape
hatches, real-tree acceptance and the call-graph cache."""

from pathlib import Path

import pytest

from repro.analysis.suite import repo_source_root
from repro.analysis.whole_program import analyze_tree, coverage_lines

FIXTURES = Path(__file__).parent / "fixtures" / "whole_program"

#: Each broken mini-package and the single rule it must trip.
BROKEN = [
    ("eqx401_nondet_job", "EQX401"),
    ("eqx402_rng_divergence", "EQX402"),
    ("eqx403_cache_escape", "EQX403"),
    ("eqx404_unregistered", "EQX404"),
    ("eqx405_impure_merge", "EQX405"),
    ("eqx406_asymmetric_snapshot", "EQX406"),
]


def _ids(report):
    return [d.rule_id for d in report.diagnostics]


class TestBrokenFixtures:
    @pytest.mark.parametrize("package,rule_id", BROKEN)
    def test_fixture_trips_exactly_its_rule(self, package, rule_id):
        report = analyze_tree(FIXTURES / package)
        assert set(_ids(report)) == {rule_id}

    def test_eqx401_witness_names_the_chain(self):
        report = analyze_tree(FIXTURES / "eqx401_nondet_job")
        (diag,) = report.diagnostics
        assert "_stamp" in diag.message  # the interprocedural hop
        assert "time.time" in diag.message  # the actual source

    def test_eqx402_reports_both_streams(self):
        report = analyze_tree(FIXTURES / "eqx402_rng_divergence")
        (diag,) = report.diagnostics
        assert "rng.normal" in diag.message
        assert "rng.random" in diag.message

    def test_eqx404_fires_for_both_shapes(self):
        """Unresolvable target AND unregistered job-shaped function."""
        report = analyze_tree(FIXTURES / "eqx404_unregistered")
        messages = [d.message for d in report.diagnostics]
        assert len(messages) == 2
        assert any("cannot resolve" in m for m in messages)
        assert any("not registered" in m for m in messages)

    def test_eqx406_fires_for_both_shapes(self):
        """Missing pair on a mutating class AND a one-sided pair —
        while the frozen dataclass and the suppressed class stay
        quiet."""
        report = analyze_tree(FIXTURES / "eqx406_asymmetric_snapshot")
        messages = [d.message for d in report.diagnostics]
        assert len(messages) == 2
        assert any(
            "neither to_state nor from_state" in m and "Counter" in m
            for m in messages
        )
        assert any(
            "to_state but not from_state" in m and "Gauge" in m
            for m in messages
        )
        assert not any("Audited" in m or "Settings" in m for m in messages)

    def test_eqx406_witness_names_the_mutation(self):
        report = analyze_tree(FIXTURES / "eqx406_asymmetric_snapshot")
        missing = [
            d for d in report.diagnostics if "neither" in d.message
        ]
        assert len(missing) == 1
        assert "self.count" in missing[0].message
        assert "bump()" in missing[0].message

    def test_diagnostics_are_errors(self):
        for package, _ in BROKEN:
            report = analyze_tree(FIXTURES / package)
            assert all(
                str(d.severity) == "error" for d in report.diagnostics
            )


class TestEscapeHatches:
    def test_audited_and_suppressed_jobs_are_quiet(self):
        report = analyze_tree(FIXTURES / "eqx40x_clean")
        assert report.diagnostics == []

    def test_clean_fixture_still_covers_its_jobs(self):
        coverage = analyze_tree(FIXTURES / "eqx40x_clean").coverage()
        assert coverage["jobs_covered"] == 2


class TestRealTree:
    """Acceptance: the shipped package analyzes clean with full
    entry-point coverage."""

    @pytest.fixture(scope="class")
    def report(self):
        return analyze_tree(repo_source_root())

    def test_no_diagnostics(self, report):
        assert report.diagnostics == []

    def test_job_registry_fully_covered(self, report):
        coverage = report.coverage()
        assert coverage["jobs_covered"] == len(coverage["jobs"])
        assert coverage["jobs_covered"] >= 3

    def test_kernel_pairs_fully_covered(self, report):
        coverage = report.coverage()
        assert coverage["kernels_covered"] == len(coverage["kernels"])
        assert coverage["kernels_covered"] >= 5

    def test_merge_state_folds_are_seen(self, report):
        assert len(report.coverage()["merge_state"]) >= 2

    def test_checkpoint_roots_fully_covered(self, report):
        """Every CHECKPOINT_ROOTS entry resolves to an indexed class —
        the EQX406 walk starts from all of them."""
        coverage = report.coverage()
        roots = coverage["checkpoint_roots"]
        assert coverage["checkpoint_roots_covered"] == len(roots)
        assert coverage["checkpoint_roots_covered"] >= 13
        assert roots["simulator"] == "repro.sim.engine.Simulator"
        assert roots["accelerator"] == "repro.core.equinox.EquinoxAccelerator"

    def test_coverage_lines_render(self, report):
        lines = coverage_lines(report.coverage())
        assert any("jobs covered" in line for line in lines)
        assert any("kernel pairs covered" in line for line in lines)
        assert any("checkpoint roots covered" in line for line in lines)


class TestCallGraphCache:
    def test_artifact_roundtrip(self, tmp_path):
        root = FIXTURES / "eqx401_nondet_job"
        cache = tmp_path / "cg"
        first = analyze_tree(root, cache_dir=cache)
        second = analyze_tree(root, cache_dir=cache)
        assert not first.from_cache
        assert second.from_cache
        assert _ids(first) == _ids(second)
        assert first.coverage()["digest"] == second.coverage()["digest"]

    def test_tree_change_invalidates(self, tmp_path):
        src = FIXTURES / "eqx401_nondet_job"
        root = tmp_path / "eqx401_nondet_job"  # keep registry targets valid
        root.mkdir()
        for path in src.glob("*.py"):
            (root / path.name).write_text(path.read_text())
        cache = tmp_path / "cg"
        first = analyze_tree(root, cache_dir=cache)
        (root / "tasks.py").write_text(
            "def run_demo(config, seed):\n    return {'seed': seed}\n"
        )
        second = analyze_tree(root, cache_dir=cache)
        assert not second.from_cache
        assert first.coverage()["digest"] != second.coverage()["digest"]

    def test_corrupt_artifact_is_rebuilt(self, tmp_path):
        root = FIXTURES / "eqx403_cache_escape"
        cache = tmp_path / "cg"
        analyze_tree(root, cache_dir=cache)
        (artifact,) = cache.glob("callgraph_*.json")
        artifact.write_text("{not json")
        report = analyze_tree(root, cache_dir=cache)
        assert not report.from_cache
        assert set(_ids(report)) == {"EQX403"}
