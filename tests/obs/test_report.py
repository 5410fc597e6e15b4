"""RunReport: schema validation, canonical JSON, diffing, determinism.

The determinism class is the ISSUE's acceptance check: two identically
seeded accelerator runs must serialize to byte-identical artifacts.
"""

import json
import math

import pytest

from repro.obs.report import (
    SCHEMA_ID,
    RunReport,
    diff_reports,
    report_from_simulation,
    validate_report,
    write_artifact,
)


def _report(**overrides):
    fields = dict(
        name="unit",
        kind="accelerator",
        latency_us={"p50": 10.0, "p99": 42.0, "mean": 12.0, "max": 50.0},
        throughput_top_s={"inference": 1.5, "training": 0.5},
        cycle_breakdown={
            "working": 0.5, "dummy": 0.1, "idle": 0.3, "other": 0.1
        },
        faults={"hbm_errors": 2.0},
    )
    fields.update(overrides)
    return RunReport(**fields)


class TestSerialization:
    def test_round_trip(self):
        report = _report(metrics={"counters": {"ops": 3.0}})
        assert RunReport.from_json(report.to_json()) == report

    def test_canonical_json_sorted_and_nan_free(self):
        text = _report().to_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        # Canonical dumps never emit bare NaN/Infinity literals.
        assert "NaN" not in text and "Infinity" not in text

    def test_inf_round_trips_as_sentinel_string(self):
        report = _report(latency_us={"p99": math.inf})
        data = json.loads(report.to_json())
        assert data["latency_us"]["p99"] == "inf"
        assert RunReport.from_json(report.to_json()).latency_us["p99"] == (
            math.inf
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            _report(kind="mystery")

    def test_from_dict_rejects_structural_breakage(self):
        data = json.loads(_report().to_json())
        data["schema"] = "something/else"
        with pytest.raises(ValueError):
            RunReport.from_dict(data)


class TestValidation:
    def test_valid_report_has_no_problems(self):
        assert validate_report(json.loads(_report().to_json())) == []

    def test_nan_latency_flagged_with_prefix(self):
        data = json.loads(_report().to_json())
        data["latency_us"]["p99"] = "nan"
        problems = validate_report(data)
        assert problems and all(p.startswith("nan:") for p in problems)

    def test_null_latency_means_unmeasured_and_is_legal(self):
        data = json.loads(_report().to_json())
        data["latency_us"]["p50"] = None
        assert validate_report(data) == []

    def test_inf_latency_is_legal(self):
        data = json.loads(_report(latency_us={"p99": math.inf}).to_json())
        assert validate_report(data) == []

    def test_unknown_cycle_category_rejected(self):
        data = json.loads(_report().to_json())
        data["cycle_breakdown"]["waiting"] = 0.1
        assert any("waiting" in p for p in validate_report(data))

    def test_breakdown_fraction_out_of_range(self):
        data = json.loads(_report().to_json())
        data["cycle_breakdown"]["working"] = 1.5
        assert any("outside [0, 1]" in p for p in validate_report(data))

    def test_negative_fault_counter_rejected(self):
        data = json.loads(_report().to_json())
        data["faults"]["hbm_errors"] = -1
        assert any("faults.hbm_errors" in p for p in validate_report(data))

    def test_missing_schema_and_kind(self):
        problems = validate_report({"name": "x"})
        assert any("schema" in p for p in problems)
        assert any("kind" in p for p in problems)


class TestWriteArtifact:
    def test_writes_named_json_and_prints_its_path(self, tmp_path, capsys):
        report = _report()
        directory = tmp_path / "reports"
        write_artifact(report, str(directory))
        path = directory / "unit.json"
        assert path.read_text() == report.to_json() + "\n"
        captured = capsys.readouterr()
        assert captured.out == f"[artifact] {path}\n"
        assert captured.err == ""

    def test_prints_each_problem_and_still_writes(self, tmp_path, capsys):
        report = _report(
            cycle_breakdown={
                "working": 1.5, "dummy": -0.1, "idle": 0.3, "other": 0.1
            }
        )
        write_artifact(report, str(tmp_path))
        assert (tmp_path / "unit.json").read_text() == report.to_json() + "\n"
        problems = capsys.readouterr().err.splitlines()
        assert len(problems) == 2
        assert all(p.startswith("invalid artifact unit: ") for p in problems)


class TestDiff:
    def test_identical_reports_diff_empty(self):
        assert diff_reports(_report(), _report()) == {}

    def test_changed_field_reported_with_both_values(self):
        changed = _report(
            latency_us={"p50": 10.0, "p99": 99.0, "mean": 12.0, "max": 50.0}
        )
        delta = diff_reports(_report(), changed)
        assert delta == {"latency_us.p99": (42.0, 99.0)}

    def test_missing_field_shows_none(self):
        smaller = _report(faults={})
        delta = diff_reports(_report(), smaller)
        assert delta == {"faults.hbm_errors": (2.0, None)}

    def test_relative_tolerance(self):
        close = _report(
            latency_us={"p50": 10.0, "p99": 42.1, "mean": 12.0, "max": 50.0}
        )
        assert diff_reports(_report(), close, rel_tolerance=0.01) == {}
        assert diff_reports(_report(), close) != {}


class _StubSimReport:
    """SimulationReport-shaped object for the duck-typed builder."""

    def __init__(self, p99=42.0, p50=10.0):
        from repro.faults.counters import FaultCounters

        self.config_name = "stub"
        self.load = 0.5
        self.duration_cycles = 1000.0
        self.frequency_hz = 1e9
        self.p50_latency_us = p50
        self.p99_latency_us = p99
        self.mean_latency_us = 12.0
        self.max_latency_us = 50.0
        self.inference_top_s = 1.5
        self.training_top_s = 0.5
        self.cycle_breakdown = {
            "working": 0.5, "dummy": 0.1, "idle": 0.3, "other": 0.1
        }
        self.faults = FaultCounters()


class TestBuilder:
    def test_builds_valid_artifact(self):
        report = report_from_simulation("run", _StubSimReport())
        assert report.schema == SCHEMA_ID
        assert validate_report(json.loads(report.to_json())) == []
        assert report.latency_us["p99"] == 42.0
        assert report.config["load"] == 0.5

    def test_nan_latency_becomes_null(self):
        """The no-traffic sentinel maps to JSON null (unmeasured), so
        the artifact stays schema-valid."""
        stub = _StubSimReport(p99=math.nan, p50=math.nan)
        stub.mean_latency_us = math.nan
        stub.max_latency_us = math.nan
        report = report_from_simulation("run", stub)
        assert report.latency_us == {
            "p50": None, "p99": None, "mean": None, "max": None
        }
        assert validate_report(json.loads(report.to_json())) == []

    def test_inf_latency_preserved(self):
        report = report_from_simulation("run", _StubSimReport(p99=math.inf))
        assert report.latency_us["p99"] == math.inf


def _accelerator_report(seed):
    from repro.core.equinox import EquinoxAccelerator
    from repro.dse.table1 import equinox_configuration
    from repro.models.lstm import deepbench_lstm

    model = deepbench_lstm()
    accelerator = EquinoxAccelerator(
        equinox_configuration("500us"), model, training_model=model
    )
    sim_report = accelerator.run(load=0.5, requests=64, seed=seed)
    return accelerator.run_report(sim_report, "determinism")


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        assert _accelerator_report(3).to_json() == (
            _accelerator_report(3).to_json()
        )

    def test_different_seeds_actually_differ(self):
        assert _accelerator_report(3).to_json() != (
            _accelerator_report(11).to_json()
        )

    def test_full_artifact_is_schema_valid(self):
        report = _accelerator_report(3)
        assert validate_report(json.loads(report.to_json())) == []
        # The headline quantities the ISSUE requires of every artifact.
        assert report.latency_us["p50"] is not None
        assert report.latency_us["p99"] is not None
        assert set(report.throughput_top_s) == {"inference", "training"}
        assert set(report.cycle_breakdown) == {
            "working", "dummy", "idle", "other"
        }
        assert report.profile == {}
        assert "request" in report.spans
        assert "train.step" in report.spans
