"""The tenant-mix scenario matrix: determinism, starvation regression,
chip-kill accounting, and the ``python -m repro serve`` CLI."""

import json

import pytest

from repro.exec.scheduler import JobRunner
from repro.faults.plan import FaultPlan, WorkerFaultSpec
from repro.serve import scenarios
from repro.serve.classes import TenantSpec
from repro.serve.report import validate_fleet_report
from tests.serve.conftest import SMALL_REQUESTS, SMALL_SEED, SMALL_SIZES

SERVICE = 1000.0
SLOTS = 8


def _config(tenants, fleet_size=2, requests=200, plan=None):
    return {
        "fleet_size": fleet_size,
        "requests": requests,
        "tenants": [spec.to_dict() for spec in tenants],
        "plan": plan,
        "batch_service_cycles": SERVICE,
        "batch_slots": SLOTS,
        "frequency_hz": 1e9,
    }


def _default_mix():
    return [
        TenantSpec("interactive", "latency-critical", 0.25),
        TenantSpec("bulk", "best-effort", 1.0),
        TenantSpec("trainer", "batch-training", 0.35),
    ]


class TestDefaultTenants:
    def test_cycles_the_mix_with_suffixes(self):
        tenants = scenarios.default_tenants(5)
        assert [spec.name for spec in tenants] == [
            "interactive", "bulk", "trainer", "interactive-2", "bulk-2",
        ]
        assert tenants[3].service_class == tenants[0].service_class

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scenarios.default_tenants(0)


class TestRunScenario:
    def test_double_run_is_reproducible(self):
        point = scenarios.run_scenario(_config(_default_mix()), seed=3)
        assert point["reproducible"] is True

    def test_accounting_identity_per_class(self):
        point = scenarios.run_scenario(_config(_default_mix()), seed=3)
        for name, entry in point["classes"].items():
            assert entry["submitted"] == (
                entry["completed"] + entry["shed"] + entry["timed_out"]
                + entry["failover_dropped"]
            ), name
        totals = point["totals"]
        assert totals["submitted"] == sum(
            entry["submitted"] for entry in point["classes"].values()
        )

    def test_starvation_regression(self):
        """A saturating best-effort flash crowd (3× one chip's capacity
        per chip) must not push the latency-critical tenant past its
        p99 SLO — the fair-share weights and per-tenant admission
        bounds contain it. This is the tentpole's isolation guarantee."""
        mix = [
            TenantSpec("interactive", "latency-critical", 0.25),
            TenantSpec("bulk", "best-effort", 3.0),
        ]
        point = scenarios.run_scenario(
            _config(mix, fleet_size=2, requests=520), seed=3
        )
        critical = point["classes"]["latency-critical"]
        effort = point["classes"]["best-effort"]
        # The flash crowd really saturated: best-effort shed load...
        assert effort["shed"] > 0
        # ...while the latency-critical tenant lost nothing and stayed
        # inside its objective.
        assert critical["shed"] == 0
        assert critical["timed_out"] == 0
        assert critical["completed"] > 0
        assert critical["slo_met"] is True
        assert critical["p99_cycles"] <= critical["slo_cycles"]

    def test_chip_kill_point_keeps_the_identity(self):
        plan = FaultPlan(
            seed=5, workers=WorkerFaultSpec(crashed=(1,))
        ).to_dict()
        point = scenarios.run_scenario(
            _config(_default_mix(), fleet_size=4, requests=400, plan=plan),
            seed=3,
        )
        assert point["totals"]["chips_killed"] == 1
        assert point["totals"]["failover_redispatched"] > 0
        assert point["reproducible"] is True
        for entry in point["classes"].values():
            assert entry["submitted"] == (
                entry["completed"] + entry["shed"] + entry["timed_out"]
                + entry["failover_dropped"]
            )


class TestMatrix:
    def test_report_is_schema_valid(self, small_report):
        assert validate_fleet_report(small_report.to_dict()) == []
        assert small_report.reproducible

    def test_matrix_rerun_is_byte_identical(self, small_report):
        again = scenarios.run(
            fleet_sizes=SMALL_SIZES,
            requests_per_chip=SMALL_REQUESTS,
            seed=SMALL_SEED,
        )
        assert again.to_json() == small_report.to_json()

    def test_parallel_fanout_is_byte_identical(self, small_report):
        fanned = scenarios.run(
            fleet_sizes=SMALL_SIZES,
            requests_per_chip=SMALL_REQUESTS,
            seed=SMALL_SEED,
            executor=JobRunner(jobs=2),
        )
        assert fanned.to_json() == small_report.to_json()

    def test_fleet_two_exercises_failover(self, small_report):
        by_size = {
            point["fleet_size"]: point for point in small_report.curve
        }
        assert by_size[1]["totals"]["chips_killed"] == 0
        assert by_size[2]["totals"]["chips_killed"] == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            scenarios.run(fleet_sizes=(2, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            scenarios.run(fleet_sizes=(4, 2))
        with pytest.raises(ValueError, match="requests_per_chip"):
            scenarios.run(fleet_sizes=(1,), requests_per_chip=0)

    def test_render_mentions_every_class(self, small_report):
        text = scenarios.render(small_report)
        for name in small_report.service_classes:
            assert name in text
        assert "determinism self-check" in text
        assert "FAIL" not in text


class TestCLI:
    def test_serve_writes_and_validates_artifact(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main([
            "serve", "--fleet", "1", "--tenants", "2",
            "--requests-per-chip", "24", "--seed", "3",
            "--report-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet serving matrix" in out
        artifact = tmp_path / "serve.fleet.json"
        assert artifact.exists()

        assert main(["serve", "--validate-only", str(artifact)]) == 0

        data = json.loads(artifact.read_text())
        data["schema"] = "bogus"
        classes = data["curve"][0]["classes"]
        classes[sorted(classes)[0]]["completed"] = None
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["serve", "--validate-only", str(broken)]) == 1
        problems = capsys.readouterr().err.splitlines()
        assert len(problems) == 2  # the schema and the null count
        assert all(p.startswith("invalid fleet report: ") for p in problems)

    @pytest.mark.parametrize(
        "name, content",
        [
            ("missing.json", None),
            ("garbled.json", "{not json"),
            ("list.json", "[1, 2]"),
        ],
        ids=["missing", "not-json", "json-list"],
    )
    def test_validate_only_reports_an_unusable_file(
        self, tmp_path, capsys, name, content
    ):
        from repro.__main__ import main

        path = tmp_path / name
        if content is not None:
            path.write_text(content)
        assert main(["serve", "--validate-only", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
