"""Diagnostics core: severities, rendering, gating, the rule catalog."""

import json

import pytest

from repro.analysis import rules
from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    count_by_severity,
    errors,
    exit_code,
    max_severity,
    render_json,
    render_text,
)


def _diag(severity, rule_id="EQX999", **loc):
    return Diagnostic(
        rule_id=rule_id, severity=severity, message="msg", location=Location(**loc)
    )


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_parse(self):
        assert Severity.parse("warning") is Severity.WARNING
        assert Severity.parse("ERROR") is Severity.ERROR

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")

    def test_str(self):
        assert str(Severity.ERROR) == "error"


class TestLocation:
    def test_file_and_line(self):
        assert Location(file="a.py", line=3).render() == "a.py:3"

    def test_file_only(self):
        assert Location(file="a.py").render() == "a.py"

    def test_object_path(self):
        loc = Location(obj="training:lstm/step[3]/job[0]")
        assert loc.render() == "training:lstm/step[3]/job[0]"

    def test_unknown(self):
        assert Location().render() == "<unknown>"


class TestDiagnostic:
    def test_render(self):
        diag = _diag(Severity.ERROR, rule_id="EQX104", obj="training:lstm")
        assert diag.render() == "error: EQX104 at training:lstm: msg"

    def test_to_dict(self):
        diag = _diag(Severity.WARNING, rule_id="EQX106", file="x.py", line=7)
        assert diag.to_dict() == {
            "rule_id": "EQX106",
            "severity": "warning",
            "message": "msg",
            "file": "x.py",
            "line": 7,
            "object": None,
        }


class TestBatchHelpers:
    def test_count_by_severity(self):
        batch = [_diag(Severity.ERROR), _diag(Severity.WARNING), _diag(Severity.ERROR)]
        assert count_by_severity(batch) == {"error": 2, "warning": 1, "info": 0}

    def test_max_severity(self):
        assert max_severity([]) is None
        batch = [_diag(Severity.INFO), _diag(Severity.WARNING)]
        assert max_severity(batch) is Severity.WARNING

    def test_errors_filter(self):
        batch = [_diag(Severity.WARNING), _diag(Severity.ERROR)]
        assert [d.severity for d in errors(batch)] == [Severity.ERROR]

    def test_exit_code_default_gate(self):
        assert exit_code([]) == 0
        assert exit_code([_diag(Severity.WARNING)]) == 0
        assert exit_code([_diag(Severity.ERROR)]) == 1

    def test_exit_code_warning_gate(self):
        batch = [_diag(Severity.WARNING)]
        assert exit_code(batch, fail_on=Severity.WARNING) == 1
        assert exit_code([_diag(Severity.INFO)], fail_on=Severity.WARNING) == 0


class TestRenderers:
    def test_text_lines_and_summary(self):
        batch = [_diag(Severity.ERROR, rule_id="EQX104", obj="p")]
        text = render_text(batch)
        assert "error: EQX104 at p: msg" in text
        assert text.endswith("analysis: 1 error, 0 warnings, 0 infos")

    def test_text_pluralization(self):
        batch = [_diag(Severity.WARNING), _diag(Severity.WARNING)]
        assert render_text(batch).endswith("analysis: 0 errors, 2 warnings, 0 infos")

    def test_json_round_trip(self):
        batch = [_diag(Severity.ERROR, rule_id="EQX104", obj="p")]
        document = json.loads(render_json(batch))
        assert document["counts"]["error"] == 1
        assert document["diagnostics"][0]["rule_id"] == "EQX104"
        assert document["diagnostics"][0]["object"] == "p"

    def test_json_is_schemad_and_canonical(self):
        batch = [_diag(Severity.ERROR, rule_id="EQX104", obj="p")]
        text = render_json(batch)
        assert json.loads(text)["schema"] == "repro.analysis/diagnostics/v1"
        # canonical: sorted keys, compact separators — byte-stable, so
        # the document itself can be checksummed like any artifact
        document = json.loads(text)
        assert text == json.dumps(
            document, sort_keys=True, separators=(",", ":")
        )


class TestRuleCatalog:
    def test_catalog_bands(self):
        ids = [r.rule_id for r in rules.catalog()]
        assert ids == sorted(ids)
        assert all(i.startswith("EQX") for i in ids)
        assert {"EQX101", "EQX104", "EQX201", "EQX205", "EQX301"} <= set(ids)

    def test_lookup(self):
        assert rules.rule("EQX104").name == "staging-overflow"
        assert rules.rule("EQX104").severity is Severity.ERROR
        assert rules.is_known_rule("EQX301")
        assert not rules.is_known_rule("EQX999")
        with pytest.raises(KeyError, match="EQX999"):
            rules.rule("EQX999")

    def test_diagnostic_builder_defaults(self):
        diag = rules.diagnostic(rules.TILING_WASTE, "padded", obj="step")
        assert diag.rule_id == "EQX106"
        assert diag.severity is Severity.WARNING
        assert diag.location.obj == "step"

    def test_diagnostic_builder_severity_override(self):
        diag = rules.diagnostic(
            rules.TILING_WASTE, "padded", obj="step", severity=Severity.ERROR
        )
        assert diag.severity is Severity.ERROR
