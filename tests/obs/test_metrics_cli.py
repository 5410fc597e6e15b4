"""``python -m repro metrics``: smoke, validate, diff."""

import hashlib
import json

import pytest

from repro.__main__ import main
from repro.exec.canonical import canonical_json


@pytest.fixture(scope="module")
def smoke_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("metrics") / "smoke.json"
    assert main(["metrics", "smoke", "--out", str(path)]) == 0
    return path


class TestSmoke:
    def test_artifact_written_and_valid(self, smoke_artifact, capsys):
        assert main(["metrics", "validate", str(smoke_artifact)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_artifact_shape(self, smoke_artifact):
        data = json.loads(smoke_artifact.read_text())
        assert data["name"] == "smoke"
        assert data["kind"] == "accelerator"
        assert data["latency_us"]["p99"] is not None
        assert data["throughput_top_s"]["training"] > 0

    def test_profile_is_the_runs_event_count(self, smoke_artifact):
        from repro.core.equinox import EquinoxAccelerator
        from repro.dse.table1 import equinox_configuration
        from repro.models.lstm import deepbench_lstm
        from repro.obs.cli import SMOKE_LOAD, SMOKE_REQUESTS, SMOKE_SEED

        model = deepbench_lstm()
        sim_report = EquinoxAccelerator(
            equinox_configuration("500us"), model, training_model=model
        ).run(load=SMOKE_LOAD, requests=SMOKE_REQUESTS, seed=SMOKE_SEED)
        data = json.loads(smoke_artifact.read_text())
        assert data["profile"] == {
            "events": float(sim_report.events_processed)
        }
        assert sim_report.events_processed > 0

    def test_artifact_matches_its_pin(self, smoke_artifact):
        """Everything the smoke run reports but its ``profile`` section:
        headline numbers, the registry snapshot with every
        ``span.*.cycles`` histogram, and the span aggregates. A change to
        the span or metrics plumbing must leave this digest alone."""
        data = json.loads(smoke_artifact.read_text())
        data.pop("profile")
        digest = hashlib.sha256(canonical_json(data).encode()).hexdigest()
        assert digest == (
            "df7384c61f37ddc0767217d7bf8075ae1a6688dfbde28b5aca6188bfad209541"
        )

    def test_repeat_run_is_byte_identical(self, smoke_artifact, tmp_path):
        second = tmp_path / "smoke2.json"
        assert main(["metrics", "smoke", "--out", str(second)]) == 0
        assert second.read_text() == smoke_artifact.read_text()


class TestValidate:
    def test_broken_artifact_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["metrics", "validate", str(path)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_nan_latency_fails(self, smoke_artifact, tmp_path, capsys):
        data = json.loads(smoke_artifact.read_text())
        data["latency_us"]["p99"] = "nan"
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert main(["metrics", "validate", str(path)]) == 1
        assert "nan" in capsys.readouterr().err

    def test_unreadable_path_fails(self, tmp_path):
        assert main(["metrics", "validate", str(tmp_path / "no.json")]) == 1

    def test_no_paths_is_a_usage_error(self):
        assert main(["metrics", "validate"]) == 2


class TestDiff:
    def test_identical_artifacts(self, smoke_artifact, capsys):
        code = main([
            "metrics", "diff", str(smoke_artifact), str(smoke_artifact),
        ])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_differing_artifacts_exit_nonzero(
        self, smoke_artifact, tmp_path, capsys
    ):
        data = json.loads(smoke_artifact.read_text())
        data["latency_us"]["p99"] = 123456.0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        code = main(["metrics", "diff", str(smoke_artifact), str(other)])
        assert code == 1
        assert "latency_us.p99" in capsys.readouterr().out

    def test_wrong_arity_is_a_usage_error(self, smoke_artifact):
        assert main(["metrics", "diff", str(smoke_artifact)]) == 2

    @pytest.mark.parametrize(
        "content", [None, "{not json", json.dumps({"name": "x"})],
        ids=["missing", "bad-json", "not-a-run-report"],
    )
    def test_unreadable_artifact_is_a_usage_error(
        self, smoke_artifact, tmp_path, capsys, content
    ):
        """Exit 1 means the artifacts differ; an input that cannot be
        compared exits 2 with one line on stderr, either side."""
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        for pair in ([smoke_artifact, bad], [bad, smoke_artifact]):
            assert main(["metrics", "diff"] + [str(p) for p in pair]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{bad}: unreadable (")
            assert len(err.splitlines()) == 1


class TestUnknownTarget:
    def test_unknown_experiment_name(self, capsys):
        assert main(["metrics", "nosuch"]) == 2
        assert "unknown metrics target" in capsys.readouterr().err
