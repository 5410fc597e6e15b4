"""The ``python -m repro analyze`` subcommand and the fixture corpus."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.suite import FixtureError, iter_fixture_artifacts

FIXTURES = Path(__file__).parent / "fixtures"

#: Every error-severity corpus entry and the rule it must trip.
ERROR_FIXTURES = [
    ("oversized_image.py", "EQX201"),
    ("staging_overflow.py", "EQX104"),
    ("missing_barrier.py", "EQX205"),
    ("bad_loop.py", "EQX202"),
]


class TestFixtureCorpus:
    @pytest.mark.parametrize("name,rule_id", ERROR_FIXTURES)
    def test_broken_fixture_fails_the_gate(self, capsys, name, rule_id):
        code = main(["--fixture", str(FIXTURES / name), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        tripped = {d["rule_id"] for d in document["diagnostics"]}
        assert rule_id in tripped

    def test_dead_code_fails_only_the_warning_gate(self, capsys):
        fixture = str(FIXTURES / "dead_code.py")
        assert main(["--fixture", fixture]) == 0
        assert main(["--fixture", fixture, "--fail-on", "warning"]) == 1
        assert "EQX203" in capsys.readouterr().out

    def test_fixture_with_multiple_artifacts(self):
        pairs = list(iter_fixture_artifacts(FIXTURES / "bad_loop.py"))
        assert len(pairs) == 2

    def test_fixture_without_build_is_rejected(self, tmp_path):
        bogus = tmp_path / "nothing.py"
        bogus.write_text("VALUE = 1\n")
        with pytest.raises(FixtureError, match="defines no build"):
            list(iter_fixture_artifacts(bogus))

    def test_error_inside_build_propagates(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def build():\n    raise ValueError('boom')\n")
        with pytest.raises(ValueError, match="boom") as info:
            main(["--fixture", str(broken)])
        assert not isinstance(info.value, FixtureError)


class TestFlags:
    def test_ignore_drops_a_rule(self, capsys):
        fixture = str(FIXTURES / "staging_overflow.py")
        assert main(["--fixture", fixture, "--ignore", "EQX104"]) == 0
        capsys.readouterr()

    def test_text_report_has_summary(self, capsys):
        main(["--fixture", str(FIXTURES / "staging_overflow.py")])
        out = capsys.readouterr().out
        assert "error: EQX104" in out
        assert "analysis:" in out


class TestDefaultSuite:
    """Acceptance: the shipped tree and builtin models analyze clean."""

    def test_codebase_pass_is_clean(self, capsys):
        assert main(["--skip-programs"]) == 0
        capsys.readouterr()

    def test_full_suite_has_zero_errors(self, capsys):
        code = main(["--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["counts"]["error"] == 0


class TestMissingPaths:
    """A typo in a path must not pass the gate or look like findings."""

    def test_missing_lint_root_is_a_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "no" / "such" / "dir")
        assert main(["--path", missing, "--skip-programs"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"analyze: --path {missing} does not exist\n"

    def test_missing_fixture_is_a_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.py")
        fixtures = [str(FIXTURES / "bad_loop.py"), missing]
        assert main(["--fixture", *fixtures]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"analyze: --fixture {missing} does not exist\n"

    def test_non_fixture_is_a_usage_error(self, capsys):
        package_init = FIXTURES / "__init__.py"
        fixtures = [str(FIXTURES / "bad_loop.py"), str(package_init)]
        assert main(["--fixture", *fixtures]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"analyze: --fixture {package_init} ")
        assert "defines no build()" in lines[0]

    @pytest.mark.parametrize("name,source,reason", [
        ("notes.txt", "def build():\n    pass\n", "cannot load fixture"),
        ("broken.py", "def build(:\n", "cannot load fixture"),
        ("broken.py", "def build():\n    return None\n",
         "build() returned NoneType"),
    ])
    def test_broken_fixture_file_is_a_usage_error(
        self, capsys, tmp_path, name, source, reason
    ):
        broken = tmp_path / name
        broken.write_text(source)
        assert main(["--fixture", str(broken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"analyze: --fixture {broken} is not a fixture")
        assert reason in lines[0]

    def test_fixture_directory_is_a_usage_error(self, capsys):
        assert main(["--fixture", str(FIXTURES)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"analyze: --fixture {FIXTURES} ")
        assert len(captured.err.splitlines()) == 1
