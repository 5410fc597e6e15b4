"""The fleet-report artifact: schema validation and round-trips."""

import copy

import pytest

from repro.serve.report import SCHEMA_ID, FleetReport, validate_fleet_report


@pytest.fixture
def data(small_report):
    return copy.deepcopy(small_report.to_dict())


def _first_class(data):
    classes = data["curve"][0]["classes"]
    return classes[sorted(classes)[0]]


class TestValidate:
    def test_real_report_is_valid(self, data):
        assert validate_fleet_report(data) == []

    def test_schema_is_enforced(self, data):
        data["schema"] = "repro.serve/fleet-report/v0"
        assert any("schema" in p for p in validate_fleet_report(data))

    @pytest.mark.parametrize(
        "value", [[1, 2], "fleet", None], ids=["list", "string", "null"]
    )
    def test_non_object_is_one_problem(self, value):
        assert validate_fleet_report(value) == [
            "fleet report must be a JSON object"
        ]

    def test_missing_top_level_key(self, data):
        del data["calibration"]
        assert any("calibration" in p for p in validate_fleet_report(data))

    def test_empty_curve_rejected(self, data):
        data["curve"] = []
        assert any("non-empty" in p for p in validate_fleet_report(data))

    def test_fleet_sizes_must_increase(self, data):
        for point in data["curve"]:
            point["fleet_size"] = 2
        assert any(
            "strictly increasing" in p for p in validate_fleet_report(data)
        )

    def test_accounting_identity_enforced(self, data):
        entry = _first_class(data)
        entry["completed"] += 1
        assert any(
            "accounting identity" in p for p in validate_fleet_report(data)
        )

    def test_nan_percentile_rejected(self, data):
        entry = _first_class(data)
        entry["p99_cycles"] = float("nan")
        assert any("non-nan" in p for p in validate_fleet_report(data))

    def test_null_percentiles_allowed_without_completions(self, data):
        # A class with zero completions legitimately has no latency.
        entry = _first_class(data)
        shifted = entry["completed"]
        entry["shed"] += shifted
        entry["completed"] = 0
        entry["p50_cycles"] = None
        entry["p99_cycles"] = None
        entry["p999_cycles"] = None
        entry["slo_met"] = False
        assert validate_fleet_report(data) == []

    def test_slo_met_must_match_p99(self, data):
        entry = _first_class(data)
        entry["slo_met"] = not entry["slo_met"]
        assert any("slo_met" in p for p in validate_fleet_report(data))

    def test_negative_count_rejected(self, data):
        entry = _first_class(data)
        entry["shed"] = -1
        assert any("non-negative" in p for p in validate_fleet_report(data))

    @pytest.mark.parametrize(
        "value", [None, [1], "3"], ids=["null", "list", "string"]
    )
    def test_non_int_count_is_one_problem(self, data, value):
        entry = _first_class(data)
        entry["completed"] = value
        problems = validate_fleet_report(data)
        assert len(problems) == 1
        assert "completed must be a non-negative int" in problems[0]

    def test_missing_reproducible_flag(self, data):
        del data["curve"][0]["reproducible"]
        assert any("reproducible" in p for p in validate_fleet_report(data))

    def test_missing_totals_keys(self, data):
        del data["curve"][0]["totals"]["chips_killed"]
        assert any("totals" in p for p in validate_fleet_report(data))


class TestRoundTrip:
    def test_from_dict_round_trips(self, small_report, data):
        restored = FleetReport.from_dict(data)
        assert restored.schema == SCHEMA_ID
        assert restored.seed == small_report.seed
        assert restored.to_json() == small_report.to_json()
        assert restored.reproducible == small_report.reproducible

    def test_from_dict_rejects_invalid(self, data):
        data["schema"] = "bogus"
        with pytest.raises(ValueError, match="invalid fleet report"):
            FleetReport.from_dict(data)

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            FleetReport.from_dict([1, 2])
