"""End-to-end determinism: --jobs N is byte-identical to --jobs 1.

These run the real ``python -m repro`` entry points (in-process) and
compare artifacts with byte equality — the guarantee the ISSUE pins.
Sizes are shrunk (small n-max, one load, few requests) to keep the
suite interactive; the guarantee itself is size-independent because it
rests on ordered aggregation + canonical normalization, not on luck.
"""

import pytest

from repro.__main__ import main
from repro.exec.scheduler import JobRunner


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


#: experiment -> (small-size ``run`` kwargs, load points they make).
LOAD_POINT_EXPERIMENTS = {
    "fig7": ({"loads": (0.5,), "batches": 2, "encodings": ("hbfp8",)}, 4),
    "fig8": ({"loads": (0.05,), "batches": 2}, 2),
    "fig9": ({"loads": (0.6,), "classes": ("min", "500us"), "batches": 2}, 2),
    "fig10": ({"loads": (0.5,), "batches": 2}, 3),
    "fig11": ({"loads": (0.2,), "thresholds": (2.0,), "batches": 2}, 3),
    "table2": ({"gru_steps": 40, "resnet_side": 64}, 6),
}


class TestLoadPointFanOut:
    """Every simulator experiment runs its points as ``eval.load_point``
    jobs: fanned out over two workers it returns the same result and
    writes the same artifact bytes as a plain call, and each point is
    exactly one executed job."""

    @pytest.mark.parametrize("name", sorted(LOAD_POINT_EXPERIMENTS))
    def test_two_workers_match_a_plain_run(self, name):
        import importlib

        from repro.eval.runner import capture_run

        module = importlib.import_module(f"repro.eval.{name}")
        kwargs, points = LOAD_POINT_EXPERIMENTS[name]
        with capture_run(name) as capture:
            plain = module.run(**kwargs)
        plain_bytes = capture.build_report().to_json()

        runner = JobRunner(jobs=2)
        with capture_run(name) as capture:
            fanned = module.run(**kwargs, executor=runner)
        assert fanned == plain
        assert capture.build_report().to_json() == plain_bytes
        assert runner.counters["executed"] == points


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
