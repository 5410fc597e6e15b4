"""``python -m repro`` argument checks: the sweep's own flags and the
executor flags every experiment subcommand shares.

A bad argument is a usage error (exit 2, one line on stderr), decided
before any job runs; exit 1 is reserved for a job that failed.
"""

import signal

import pytest

from repro.__main__ import main
from repro.exec.scheduler import JobRunner
from repro.state.signals import GracefulShutdown


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--chunk", "0"], "--chunk must be >= 1, got 0"),
        (
            ["--encodings", "hbfp8", "fp32"],
            "unknown encoding 'fp32'; choose from "
            "['bfloat16', 'fixed8', 'hbfp8']",
        ),
    ],
)
def test_bad_argument_exits_2_before_any_job(
    flags, message, capsys, monkeypatch
):
    def no_jobs(self, jobs):
        raise AssertionError("a job ran before the arguments were checked")

    monkeypatch.setattr(JobRunner, "map", no_jobs)
    assert main(["sweep", "--n-max", "4", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fig7", "--jobs", "0"],
         "--jobs must be an integer >= 1 or 'auto', got '0'"),
        (["fig7", "--jobs", "abc"],
         "--jobs must be an integer >= 1 or 'auto', got 'abc'"),
        (["fig7", "--jobs", "1", "--kill-after", "0"],
         "--kill-after must be >= 1, got 0"),
        (["fig8", "--resume"],
         "--resume needs --checkpoint-dir: there is no journal to replay"),
        (["fig7", "--jobs", "1", "--kill-after", "1"],
         "--kill-after needs --checkpoint-dir: the killed run would "
         "leave no journal to resume from"),
    ],
    ids=[
        "jobs-zero", "jobs-not-a-number", "kill-after-zero",
        "resume-without-checkpoint-dir", "kill-after-without-checkpoint-dir",
    ],
)
def test_bad_executor_flag_exits_2_before_dispatch(
    argv, message, capsys, monkeypatch
):
    """The shared executor flags are checked once, for every
    subcommand, before anything runs — ``--kill-after 1`` must never
    get as far as killing the process."""
    import repro.__main__ as cli

    def no_dispatch(args, shutdown):
        raise AssertionError("dispatched before the flags were checked")

    monkeypatch.setattr(cli, "_dispatch", no_dispatch)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


#: Experiments whose ``run`` takes no ``executor`` or no ``loads``.
_IN_PROCESS = ("fig2", "fig6", "spike", "table1", "table3")
_FIXED_GRID = ("fig2", "fig6", "spike", "table1", "table2", "table3")


@pytest.mark.parametrize(
    "argv",
    [[name, "--jobs", "2"] for name in _IN_PROCESS]
    + [["table3", "--cache-dir", "D"], ["table1", "--checkpoint-dir", "D"],
       ["spike", "--cache-dir", "D"], ["fig2", "--checkpoint-dir", "D"],
       ["fig7", "--checkpoint-every", "8"]]
    + [[name, "--loads", "0.3"] for name in _FIXED_GRID],
    ids=lambda argv: argv[0] + argv[1],
)
def test_flag_the_experiment_cannot_use_exits_2(argv, capsys, monkeypatch):
    """A subcommand offers ``--loads`` and the executor flags only when
    its ``run`` takes them, so argparse rejects the rest before any
    work — none is silently ignored. No subcommand offers the deleted
    ``--checkpoint-every``."""
    import repro.__main__ as cli

    def no_dispatch(args, shutdown):
        raise AssertionError("dispatched a flag the experiment ignores")

    monkeypatch.setattr(cli, "_dispatch", no_dispatch)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: Commands that run no jobs, and commands that do.
_NO_JOBS = ("table1", "fig2", "list", "analyze")
_RUNS_JOBS = ("fig7", "sweep", "chaos", "all")


@pytest.mark.parametrize("command", _NO_JOBS + _RUNS_JOBS)
def test_only_job_running_commands_trap_sigterm(command, monkeypatch):
    """SIGINT/SIGTERM become a polled flag only where a job boundary
    polls it; a command that runs no jobs keeps the default signal
    handling, so a signal stops it at once instead of being
    swallowed."""
    import repro.__main__ as cli

    before = signal.getsignal(signal.SIGTERM)
    seen = []

    def record(args, shutdown):
        seen.append(signal.getsignal(signal.SIGTERM))
        return 0

    monkeypatch.setattr(cli, "_dispatch", record)
    assert cli.main([command]) == 0
    if command in _RUNS_JOBS:
        assert isinstance(getattr(seen[0], "__self__", None), GracefulShutdown)
    else:
        assert seen[0] is before
    assert signal.getsignal(signal.SIGTERM) is before
