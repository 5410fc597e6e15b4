"""ExperimentCapture: the experiment-level observability aggregate."""

import json

import pytest

from repro.eval import runner
from repro.eval.runner import ExperimentCapture, capture_run
from repro.obs.report import validate_report


class TestCaptureRun:
    def test_context_sets_and_clears_the_active_capture(self):
        assert runner._ACTIVE_CAPTURE is None
        with capture_run("unit") as capture:
            assert runner._ACTIVE_CAPTURE is capture
        assert runner._ACTIVE_CAPTURE is None

    def test_captures_do_not_nest(self):
        with capture_run("outer"):
            with pytest.raises(RuntimeError):
                with capture_run("inner"):
                    pass

    def test_cleared_even_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with capture_run("unit"):
                raise RuntimeError("boom")
        assert runner._ACTIVE_CAPTURE is None


class TestEmptyCapture:
    def test_empty_report_is_schema_valid_with_null_latency(self):
        report = ExperimentCapture("empty").build_report()
        assert report.latency_us == {
            "p50": None, "p99": None, "mean": None, "max": None
        }
        assert validate_report(json.loads(report.to_json())) == []
        assert report.config["windows"] == 0


class TestObservedCapture:
    @pytest.fixture(scope="class")
    def observed(self):
        accelerator = runner.build_accelerator("500us")
        capture = ExperimentCapture("unit")
        accelerator.run(load=0.5, requests=64, seed=3)
        capture.observe(accelerator)
        return capture, accelerator

    def test_report_carries_the_headline_quantities(self, observed):
        capture, _ = observed
        report = capture.build_report()
        assert validate_report(json.loads(report.to_json())) == []
        assert report.latency_us["p99"] > 0
        assert report.throughput_top_s["inference"] > 0
        assert abs(sum(report.cycle_breakdown.values()) - 1.0) < 1e-6

    def test_reobserving_does_not_double_count(self, observed):
        """Cumulative collectors are read as deltas keyed by accelerator
        identity: observing twice with no new work changes nothing."""
        capture, accelerator = observed
        count = capture.latency_us.count
        ops = dict(capture.ops)
        capture.observe(accelerator)
        assert capture.latency_us.count == count
        assert capture.ops == ops

    def test_accelerator_at_a_reused_address_starts_from_zero(
        self, monkeypatch
    ):
        """CPython can give a new accelerator the address of a freed
        one, so ``id()`` cannot key the deltas. Simulate that reuse by
        giving every object the same ``id()``: two accelerators running
        the same work must still count twice."""
        monkeypatch.setattr(runner, "id", lambda obj: 0, raising=False)
        capture = ExperimentCapture("unit")
        for _ in range(2):
            accelerator = runner.build_accelerator("500us")
            accelerator.run(load=0.5, requests=64, seed=3)
            capture.observe(accelerator)
        single = ExperimentCapture("unit")
        single.observe(accelerator)
        assert capture.latency_us.count == 2 * single.latency_us.count > 0
        assert capture.duration_cycles == 2 * single.duration_cycles
