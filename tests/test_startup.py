"""What a repro process starts: one OpenBLAS thread, and only the
modules it uses (a package ``__init__`` imports nothing).

Each check runs in a fresh interpreter, since this test process has
long since imported numpy and most of ``repro``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code, **env):
    """Run ``code`` in a fresh interpreter with ``OPENBLAS_NUM_THREADS``
    unset unless given in ``env``; return its stripped stdout."""
    child_env = {
        key: value for key, value in os.environ.items()
        if key != "OPENBLAS_NUM_THREADS"
    }
    paths = [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    child_env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    child_env.update(env)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=child_env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _loaded_after(statement):
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_python(code)))


class TestOneBlasThread:
    READ = "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"

    def test_import_sets_one_thread(self):
        assert _python(self.READ) == "1"

    def test_a_user_setting_wins(self):
        assert _python(self.READ, OPENBLAS_NUM_THREADS="3") == "3"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
        reason="needs /proc and more than one CPU",
    )
    def test_a_gemm_starts_no_worker_thread(self):
        code = (
            "import os, repro, numpy as np\n"
            "a = np.ones((512, 512))\n"
            "a @ a\n"
            "print(len(os.listdir('/proc/self/task')))"
        )
        assert _python(code) == "1"


class TestImportSurface:
    def test_canonical_starts_no_process_machinery(self):
        assert "multiprocessing" not in _loaded_after("import repro.exec.canonical")

    def test_runner_loads_no_experiment_and_no_linter(self):
        loaded = _loaded_after("import repro.eval.runner")
        assert "repro.analysis.codebase_linter" not in loaded
        assert not [m for m in loaded if re.match(r"repro\.eval\.(fig|table)", m)]

    def test_runner_loads_no_hbfp_numerics_and_no_mlp(self):
        loaded = _loaded_after("import repro.eval.runner")
        unused = {
            "repro.arith.gemm",
            "repro.arith.bfp",
            "repro.arith.hbfp",
            "repro.arith.fixed_point",
            "repro.arith.bfloat16",
            "repro.models.mlp",
        }
        assert unused & loaded == set()

    def test_package_inits_import_nothing(self):
        """A package ``__init__`` holds only its docstring, so every name
        is imported from its defining module. ``repro.kernels`` registers
        its kernel pairs at import, and ``repro`` sets the OpenBLAS thread
        count through ``os``."""
        imports = {}
        for init in sorted((SRC / "repro").rglob("__init__.py")):
            package = init.parent.relative_to(SRC).as_posix()
            if package == "repro/kernels":
                continue
            imports[package] = [
                ast.unparse(node)
                for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
        assert len(imports) >= 18
        assert imports.pop("repro") == ["import os"]
        assert {p: i for p, i in imports.items() if i} == {}
