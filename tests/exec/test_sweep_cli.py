"""``python -m repro sweep`` argument checks.

A bad argument is a usage error (exit 2, one line on stderr), decided
before any job runs; exit 1 is reserved for a job that failed.
"""

import pytest

from repro.__main__ import main
from repro.exec import JobRunner


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
