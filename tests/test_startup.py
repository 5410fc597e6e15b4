"""What a repro process starts: one OpenBLAS thread, and only the
modules it uses (package re-exports load on first use).

Each check runs in a fresh interpreter, since this test process has
long since imported numpy and most of ``repro``.
"""

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


class TestLazyReExports:
    def test_canonical_starts_no_process_machinery(self):
        assert "multiprocessing" not in _loaded_after("import repro.exec.canonical")

    def test_runner_loads_no_experiment_and_no_linter(self):
        loaded = _loaded_after("import repro.eval.runner")
        assert "repro.analysis.codebase_linter" not in loaded
        assert not [m for m in loaded if re.match(r"repro\.eval\.(fig|table)", m)]

    def test_every_export_resolves_to_its_typed_import(self):
        """Each name in a package's ``__all__`` is the object its
        ``__init__`` imports it from (under ``TYPE_CHECKING`` or
        eagerly), even when the defining module was imported first: a
        name that shadows its own submodule must not become the module."""
        code = """
import ast, importlib, json, pkgutil
from pathlib import Path

import repro

packages = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)
failures = []
for package in packages:
    pkg = importlib.import_module(package)
    tree = ast.parse(Path(pkg.__file__).read_text())
    declared = {
        alias.name: node.module
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in pkg.__all__:
        if name == "__version__":
            continue
        module = declared.get(name)
        if module is None:
            failures.append(f"{package}.{name}: not imported")
        elif module == package:
            submodule = importlib.import_module(f"{package}.{name}")
            if getattr(pkg, name) is not submodule:
                failures.append(f"{package}.{name}: not its submodule")
        else:
            source = importlib.import_module(module)  # before the lookup
            if getattr(pkg, name) is not getattr(source, name):
                failures.append(f"{package}.{name}: not {module}.{name}")
print(json.dumps([len(packages), failures]))
"""
        packages, failures = json.loads(_python(code))
        assert packages >= 18 and failures == []
