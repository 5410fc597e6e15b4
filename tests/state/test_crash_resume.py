"""End-to-end crash recovery: a sweep or a paper experiment
interrupted at a job boundary (graceful signal or SIGKILL drill) and
restarted with ``--resume`` converges to the byte-identical artifact of
an uninterrupted run."""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import cli as exec_cli
from repro.faults.killswitch import KillSwitch
from repro.state.signals import ShutdownRequested

SRC = Path(__file__).resolve().parents[2] / "src"

SWEEP_FLAGS = ["--encodings", "hbfp8", "--n-max", "24", "--chunk", "4"]


def _sweep_args(extra):
    parser = argparse.ArgumentParser()
    exec_cli.add_sweep_arguments(parser)
    return parser.parse_args(SWEEP_FLAGS + [str(a) for a in extra])


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _repro(extra, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", "sweep"] + SWEEP_FLAGS
        + [str(a) for a in extra],
        capture_output=True, text=True, env=_env(), **kwargs,
    )


#: Figure 9 at one load: one ``eval.load_point`` job per latency
#: class, so four journaled jobs.
FIG9_FLAGS = ["fig9", "--loads", "0.6"]


def _fig9(extra):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + FIG9_FLAGS + [str(a) for a in extra],
        capture_output=True, text=True, env=_env(),
    )


class _StubShutdown:
    """Raises like GracefulShutdown would, after N quiet checks —
    deterministic stand-in for a SIGTERM landing mid-sweep."""

    def __init__(self, after):
        self.after = after
        self.checks = 0

    def check(self):
        self.checks += 1
        if self.checks > self.after:
            raise ShutdownRequested(signal.SIGTERM)


class TestGracefulBoundary:
    def test_interrupted_then_resumed_sweep_is_byte_identical(self, tmp_path):
        ref_dir = tmp_path / "reference"
        out_dir = tmp_path / "resumed"
        ckpt = tmp_path / "ckpt"

        assert exec_cli.run_sweep(_sweep_args(["--report-dir", ref_dir])) == 0
        reference = (ref_dir / "sweep.json").read_bytes()

        # Shutdown lands after 3 job boundaries: exactly 3 journal
        # lines, never a torn one — the check runs between jobs.
        stub = _StubShutdown(after=3)
        interrupted = _sweep_args(
            ["--checkpoint-dir", ckpt, "--report-dir", out_dir]
        )
        with pytest.raises(ShutdownRequested):
            exec_cli.run_sweep(interrupted, shutdown=stub)
        journal_lines = (ckpt / "journal.jsonl").read_text().splitlines()
        assert len(journal_lines) == 3
        # The journal is the only record the run leaves.
        assert sorted(p.name for p in ckpt.iterdir()) == ["journal.jsonl"]

        resumed = _sweep_args(
            ["--checkpoint-dir", ckpt, "--resume", "--report-dir", out_dir]
        )
        assert exec_cli.run_sweep(resumed) == 0
        assert (out_dir / "sweep.json").read_bytes() == reference

    def test_fresh_run_discards_a_stale_journal(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "journal.jsonl").write_text("poison\n")
        args = _sweep_args(["--checkpoint-dir", ckpt])
        assert exec_cli.run_sweep(args) == 0
        lines = (ckpt / "journal.jsonl").read_text().splitlines()
        assert lines and "poison" not in lines[0]


class TestKillNineDrill:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """The CI drill, in miniature: ``--kill-after 3`` SIGKILLs the
        process after the third journal append; ``--resume`` skips the
        journaled jobs and the artifact matches the uninterrupted run
        byte for byte."""
        ref_dir = tmp_path / "reference"
        out_dir = tmp_path / "resumed"
        ckpt = tmp_path / "ckpt"

        reference = _repro(["--report-dir", ref_dir])
        assert reference.returncode == 0, reference.stderr

        killed = _repro(
            ["--checkpoint-dir", ckpt, "--kill-after", 3,
             "--report-dir", out_dir]
        )
        assert killed.returncode == -signal.SIGKILL
        assert len((ckpt / "journal.jsonl").read_text().splitlines()) == 3
        assert not (out_dir / "sweep.json").exists()

        resumed = _repro(
            ["--checkpoint-dir", ckpt, "--resume", "--report-dir", out_dir]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "journal_hits=3" in resumed.stderr
        assert (out_dir / "sweep.json").read_bytes() == (
            (ref_dir / "sweep.json").read_bytes()
        )


class TestExperimentDrill:
    def test_fig9_sigkill_then_resume(self, tmp_path):
        """The same drill on a paper experiment: fig9's four load-point
        jobs, SIGKILLed after the second journal append, resume to the
        bytes of a plain in-process run."""
        ref_dir = tmp_path / "reference"
        out_dir = tmp_path / "resumed"
        ckpt = tmp_path / "ckpt"

        reference = _fig9(["--report-dir", ref_dir])
        assert reference.returncode == 0, reference.stderr

        drill = ["--jobs", 1, "--checkpoint-dir", ckpt]
        killed = _fig9(drill + ["--kill-after", 2, "--report-dir", out_dir])
        assert killed.returncode == -signal.SIGKILL
        assert len((ckpt / "journal.jsonl").read_text().splitlines()) == 2
        assert not (out_dir / "fig9.json").exists()

        resumed = _fig9(drill + ["--resume", "--report-dir", out_dir])
        assert resumed.returncode == 0, resumed.stderr
        assert (out_dir / "fig9.json").read_bytes() == (
            (ref_dir / "fig9.json").read_bytes()
        )


class TestPlainRunShutdown:
    @pytest.mark.parametrize(
        "argv, partial, quiet_checks",
        [
            # An experiment's first check is the poll before it starts.
            (["fig9", "--loads", "0.6"], "fig9.json", 2),
            (["chaos", "--requests", "48"], None, 1),
            (["serve", "--fleet", "2", "4"], None, 1),
        ],
        ids=["fig9", "chaos", "serve"],
    )
    def test_no_executor_flags_still_stop_at_a_job_boundary(
        self, argv, partial, quiet_checks, tmp_path
    ):
        """Without ``--jobs``, ``--cache-dir`` or ``--checkpoint-dir``
        the jobs run in-process through the same runner, which polls
        the shutdown check between them. An experiment flushes its
        partial artifact; chaos and serve write none."""
        from repro.__main__ import _build_parser, _dispatch

        args = _build_parser().parse_args(
            argv + ["--report-dir", str(tmp_path)]
        )
        with pytest.raises(ShutdownRequested):
            _dispatch(args, _StubShutdown(after=quiet_checks))
        if partial is None:
            assert not any(tmp_path.iterdir())
        else:
            report = json.loads((tmp_path / partial).read_text())
            assert report["config"]["partial"] is True


class TestPartialArtifactHoldsFinishedPoints:
    @pytest.mark.parametrize(
        "quiet_checks, windows", [(1, 0), (2, 1)],
        ids=["before-first-job", "before-second-job"],
    )
    def test_partial_fig9_folds_the_load_points_that_finished(
        self, quiet_checks, windows, tmp_path
    ):
        """fig9 at one load runs four jobs. A stop before the second
        one leaves the first job's capture in the partial artifact; a
        stop before the first leaves an empty one."""
        from repro.__main__ import _build_parser, _dispatch

        args = _build_parser().parse_args(
            ["fig9", "--loads", "0.6", "--report-dir", str(tmp_path)]
        )
        with pytest.raises(ShutdownRequested):
            _dispatch(args, _StubShutdown(after=quiet_checks))
        report = json.loads((tmp_path / "fig9.json").read_text())
        assert report["config"] == {"partial": True, "windows": windows}
        if windows:
            assert report["latency_us"]["p99"] > 0
        else:
            assert report["latency_us"]["p99"] is None


class _FlagShutdown:
    """GracefulShutdown's polling surface with the flag set by hand."""

    def __init__(self):
        self.pending = None

    def check(self):
        if self.pending is not None:
            raise ShutdownRequested(self.pending)


class TestAllStopsBetweenExperiments:
    """fig2, fig6, spike, table1 and table3 run no jobs, so no job
    boundary polls the flag while they run; ``all`` polls it between
    experiments and after the last."""

    @pytest.mark.parametrize("landing", ["fig2", "table3"])
    def test_signal_in_a_jobless_experiment_stops_the_run(
        self, monkeypatch, landing
    ):
        import repro.__main__ as cli

        shutdown = _FlagShutdown()
        started = []

        def run_one(name, loads, report_dir=None, executor=None):
            started.append(name)
            if name == landing:
                shutdown.pending = signal.SIGTERM

        monkeypatch.setattr(cli, "_run_one", run_one)
        args = cli._build_parser().parse_args(["all"])
        with pytest.raises(ShutdownRequested):
            cli._dispatch(args, shutdown)
        names = sorted(cli.EXPERIMENTS)
        assert started == names[: names.index(landing) + 1]


class TestSignalExit:
    def test_sigterm_exits_named_and_tracebackless(self, tmp_path):
        """``python -m repro`` under SIGTERM: final journal state is
        consistent, the exit code is 143, stderr names the reason and
        points at --resume — and never shows a traceback."""
        ckpt = tmp_path / "ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep",
             "--encodings", "hbfp8", "--n-max", "220", "--chunk", "2",
             "--checkpoint-dir", str(ckpt)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_env(),
        )
        journal = ckpt / "journal.jsonl"
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if journal.exists() and journal.read_text().count("\n") >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("sweep never journaled a completion")
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 143
        assert "[shutdown] SIGTERM" in stderr
        assert "--resume" in stderr
        assert "Traceback" not in stderr
        # Every journal line is complete: a fresh replay parses them all.
        from repro.state.checkpoint import CompletionJournal

        assert len(CompletionJournal(journal)) >= 1


class TestKillSwitch:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="kill-after"):
            KillSwitch(0)

    def test_armed_counts_up_to_the_mark(self):
        switch = KillSwitch(1000)
        for _ in range(3):
            switch.note_unit_done()
        assert switch.units_done == 3
