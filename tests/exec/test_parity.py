"""End-to-end determinism: --jobs N is byte-identical to --jobs 1.

These run the real ``python -m repro`` entry points (in-process) and
compare artifacts with byte equality — the guarantee the ISSUE pins.
Sizes are shrunk (small n-max, one load, few requests) to keep the
suite interactive; the guarantee itself is size-independent because it
rests on ordered aggregation + canonical normalization, not on luck.
"""

from repro.__main__ import main
from repro.exec import JobRunner


def _sweep_artifact(tmp_path, tag, *flags):
    out = tmp_path / tag
    code = main(
        ["sweep", "--n-max", "24", "--encodings", "hbfp8",
         "--report-dir", str(out), *flags]
    )
    assert code == 0
    return (out / "sweep.json").read_bytes()


class TestSweepParity:
    def test_jobs2_byte_identical_to_jobs1(self, tmp_path, capsys):
        serial = _sweep_artifact(tmp_path, "j1", "--jobs", "1")
        parallel = _sweep_artifact(
            tmp_path, "j2", "--jobs", "2", "--chunk", "5"
        )
        assert serial == parallel

    def test_cache_replay_byte_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        first = _sweep_artifact(
            tmp_path, "c1", "--jobs", "1", "--cache-dir", str(cache)
        )
        replay = _sweep_artifact(
            tmp_path, "c2", "--jobs", "2", "--cache-dir", str(cache)
        )
        assert first == replay


class TestFig7Parity:
    def test_executor_modes_agree(self):
        from repro.eval import fig7
        from repro.eval.runner import capture_run

        loads = (0.5,)

        def run_with(executor):
            with capture_run("fig7") as capture:
                result = fig7.run(
                    loads=loads, encodings=("hbfp8",), executor=executor
                )
            return result, capture.build_report().to_json()

        r1, report1 = run_with(JobRunner(jobs=1))
        r2, report2 = run_with(JobRunner(jobs=2))
        assert r1 == r2
        assert report1 == report2, "experiment artifact must be byte-equal"

    def test_executor_curves_match_inline(self):
        from repro.eval import fig7

        loads = (0.5,)
        inline = fig7.run(loads=loads, encodings=("hbfp8",))
        fanned = fig7.run(
            loads=loads, encodings=("hbfp8",), executor=JobRunner(jobs=1)
        )
        assert inline == fanned


class TestChaosParity:
    def test_executor_matches_inline(self):
        from repro.faults import chaos

        inline = chaos.run(requests=48)
        fanned = chaos.run(requests=48, executor=JobRunner(jobs=2))
        assert inline["rows"] == fanned["rows"]
        assert {
            name: artifact.to_json()
            for name, artifact in inline["artifacts"].items()
        } == {
            name: artifact.to_json()
            for name, artifact in fanned["artifacts"].items()
        }
        assert all(row.reproducible for row in fanned["rows"])


class TestExperimentFlags:
    def test_fig6_accepts_jobs_flag(self, tmp_path, capsys):
        assert main(["fig6", "--jobs", "2"]) == 0
