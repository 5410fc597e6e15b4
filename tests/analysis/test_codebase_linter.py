"""AST lint rules: violating and clean sources per rule, suppression."""

import pytest

from repro.analysis.codebase_linter import lint_source
from repro.analysis.diagnostics import Severity
from repro.analysis.suite import lint_repository

SIM_PATH = "src/repro/sim/engine.py"
CORE_PATH = "src/repro/core/dispatcher.py"
ARITH_PATH = "src/repro/arith/bfp.py"
EVAL_PATH = "src/repro/eval/fig9.py"


def _ids(diags):
    return [d.rule_id for d in diags]


class TestSyntaxError:
    def test_eqx300(self):
        diags = lint_source("def broken(:\n", path=SIM_PATH)
        assert _ids(diags) == ["EQX300"]
        assert diags[0].severity is Severity.ERROR


class TestDtypeLeak:
    LEAKY = "import numpy as np\n\nACC = np.float64(0.0)\n"

    def test_eqx301_outside_arith(self):
        diags = lint_source(self.LEAKY, path=CORE_PATH)
        assert "EQX301" in _ids(diags)
        assert diags[0].location.line == 3

    def test_arith_is_the_quantization_boundary(self):
        assert lint_source(self.LEAKY, path=ARITH_PATH) == []

    def test_kernels_package_shares_the_boundary(self):
        """The registered bfp kernel pairs are arith's math, moved."""
        path = "src/repro/kernels/fast_bfp.py"
        assert lint_source(self.LEAKY, path=path) == []

    def test_float32_is_fine(self):
        clean = "import numpy as np\n\nACC = np.float32(0.0)\n"
        assert lint_source(clean, path=CORE_PATH) == []


class TestSuppression:
    def test_targeted_suppression(self):
        source = (
            "import numpy as np\n\n"
            "ACC = np.float64(0.0)  # eqx: ignore[EQX301]\n"
        )
        assert lint_source(source, path=CORE_PATH) == []

    def test_blanket_suppression(self):
        source = "import numpy as np\n\nACC = np.float64(0.0)  # eqx: ignore\n"
        assert lint_source(source, path=CORE_PATH) == []

    def test_wrong_id_does_not_suppress(self):
        source = (
            "import numpy as np\n\n"
            "ACC = np.float64(0.0)  # eqx: ignore[EQX302]\n"
        )
        assert "EQX301" in _ids(lint_source(source, path=CORE_PATH))

    def test_disable_alias_targeted(self):
        source = (
            "import numpy as np\n\n"
            "ACC = np.float64(0.0)  # eqx: disable=EQX301\n"
        )
        assert lint_source(source, path=CORE_PATH) == []

    def test_disable_alias_blanket(self):
        source = "import numpy as np\n\nACC = np.float64(0.0)  # eqx: disable\n"
        assert lint_source(source, path=CORE_PATH) == []

    MULTI = (
        "import time\n"
        "import numpy as np\n\n"
        "X = np.float64(time.time()){comment}\n"
    )

    def test_multi_rule_line_partial_suppression(self):
        source = self.MULTI.format(comment="  # eqx: disable=EQX301")
        assert _ids(lint_source(source, path=SIM_PATH)) == ["EQX302"]

    def test_multi_rule_line_full_suppression(self):
        source = self.MULTI.format(comment="  # eqx: disable=EQX301,EQX302")
        assert lint_source(source, path=SIM_PATH) == []

    def test_multi_rule_line_unsuppressed(self):
        source = self.MULTI.format(comment="")
        assert _ids(lint_source(source, path=SIM_PATH)) == ["EQX301", "EQX302"]


class TestNondeterminism:
    def test_eqx302_wall_clock(self):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        assert "EQX302" in _ids(lint_source(source, path=SIM_PATH))

    def test_wall_clock_errors_outside_sim_hw_core(self):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        diags = lint_source(source, path=EVAL_PATH)
        assert _ids(diags) == ["EQX302"]
        assert diags[0].severity is Severity.ERROR

    def test_wall_clock_allowed_in_audited_modules(self):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        for path in ("src/repro/exec/tasks.py", "src/repro/__main__.py"):
            assert lint_source(source, path=path) == []

    def test_wall_clock_errors_in_obs(self):
        """Only the two timing modules are exempt; no observability
        module is on the audited list."""
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        for path in ("src/repro/obs/profile.py", "src/repro/obs/spans.py"):
            assert _ids(lint_source(source, path=path)) == ["EQX302"]

    def test_uuid_is_an_error_everywhere(self):
        source = "import uuid\n\nRUN_ID = uuid.uuid4()\n"
        for path in (SIM_PATH, EVAL_PATH):
            diags = lint_source(source, path=path)
            assert _ids(diags) == ["EQX302"]
            assert diags[0].severity is Severity.ERROR

    def test_bare_uuid4_import_is_caught(self):
        source = "from uuid import uuid4\n\nRUN_ID = uuid4()\n"
        assert "EQX302" in _ids(lint_source(source, path=EVAL_PATH))

    def test_unseeded_rng_is_an_error_everywhere(self):
        source = "import numpy as np\n\nRNG = np.random.default_rng()\n"
        diags = lint_source(source, path=EVAL_PATH)
        assert _ids(diags) == ["EQX302"]
        assert diags[0].severity is Severity.ERROR

    def test_eqx302_unseeded_generator(self):
        source = "import numpy as np\n\nRNG = np.random.default_rng()\n"
        assert "EQX302" in _ids(lint_source(source, path=SIM_PATH))

    def test_seeded_generator_is_deterministic(self):
        source = "import numpy as np\n\nRNG = np.random.default_rng(42)\n"
        assert lint_source(source, path=SIM_PATH) == []

    def test_eqx302_global_rng_state(self):
        source = "import numpy as np\n\nX = np.random.rand(3)\n"
        assert "EQX302" in _ids(lint_source(source, path=SIM_PATH))

    @pytest.mark.parametrize("source,path,line", [
        pytest.param(
            "import time\n\n\n"
            "def _stamp():\n"
            "    return time.time()\n\n\n"
            "def run_demo(config, seed):\n"
            '    return {"stamp": _stamp(), "seed": seed}\n',
            "src/repro/dse/jobs.py", 5,
            id="wall-clock-one-call-below-a-job",
        ),
        pytest.param(
            "import os\n\n\n"
            "def run_env(config, seed):\n"
            '    return {"home": os.environ.get("HOME", ""), "seed": seed}\n',
            EVAL_PATH, 5,
            id="environ-get",
        ),
        pytest.param(
            'import os\n\nHOME = os.getenv("HOME")\n', EVAL_PATH, 3,
            id="getenv",
        ),
        pytest.param(
            'import os\n\nHOME = os.environ["HOME"]\n', EVAL_PATH, 3,
            id="environ-subscript",
        ),
        pytest.param(
            "import time\n\n\n"
            "class Collector:\n"
            "    def merge_state(self, state):\n"
            '        self.total += float(state["total"])\n'
            "        self.stamp = time.time()\n",
            "src/repro/obs/sketch.py", 7,
            id="wall-clock-in-merge-state",
        ),
        pytest.param(
            "from time import perf_counter\n\nSTART = perf_counter()\n",
            EVAL_PATH, 3,
            id="from-import-resolved",
        ),
        pytest.param(
            "KEY = id(object())\n", EVAL_PATH, 1,
            id="id-value",
        ),
        pytest.param(
            "import numpy as np\n\n\n"
            "def quantize(x, rng=None):\n"
            "    rng = rng or np.random.default_rng()\n"
            "    return x + rng.random(x.shape)\n",
            "src/repro/kernels/fast_bfp.py", 5,
            id="unseeded-rng-in-kernels",
        ),
    ])
    def test_error_in_any_package(self, source, path, line):
        diags = lint_source(source, path=path)
        assert _ids(diags) == ["EQX302"]
        assert diags[0].severity is Severity.ERROR
        assert diags[0].location.line == line


class TestSwallowedException:
    def test_eqx303_bare_except(self):
        source = "try:\n    x = 1\nexcept:\n    x = 2\n"
        assert "EQX303" in _ids(lint_source(source, path=SIM_PATH))

    def test_eqx303_broad_noop_handler(self):
        source = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert "EQX303" in _ids(lint_source(source, path=SIM_PATH))

    def test_broad_handler_with_real_body_is_fine(self):
        source = "try:\n    x = 1\nexcept Exception as exc:\n    raise exc\n"
        assert lint_source(source, path=SIM_PATH) == []

    def test_narrow_noop_handler_is_fine(self):
        source = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert lint_source(source, path=SIM_PATH) == []


class TestUnboundedRetry:
    """EQX305: a ``while True`` retry whose except handler never leaves
    the loop."""

    @staticmethod
    def _retry(handler_body, loop="while True:", handler_comment=""):
        return (
            "import os\n\n\n"
            "def fetch(attempts):\n"
            f"    {loop}\n"
            "        try:\n"
            "            return os.read(0, 1)\n"
            f"        except OSError:{handler_comment}\n"
            f"            {handler_body}\n"
        )

    @pytest.mark.parametrize("body", ["pass", "continue"])
    def test_eqx305_handler_that_stays_in_the_loop(self, body):
        diags = lint_source(self._retry(body), path=SIM_PATH)
        assert _ids(diags) == ["EQX305"]
        assert diags[0].severity is Severity.WARNING
        assert diags[0].location.line == 8  # the except line

    @pytest.mark.parametrize("body", ["break", "return None", "raise"])
    def test_handler_that_leaves_the_loop_is_fine(self, body):
        assert lint_source(self._retry(body), path=SIM_PATH) == []

    def test_try_in_an_inner_loop_is_not_charged_to_the_outer(self):
        source = (
            "def fetch(paths):\n"
            "    while True:\n"
            "        for path in paths:\n"
            "            try:\n"
            "                return open(path)\n"
            "            except OSError:\n"
            "                continue\n"
            "        paths = paths[1:]\n"
        )
        assert lint_source(source, path=SIM_PATH) == []

    def test_return_in_a_nested_function_does_not_bound_the_loop(self):
        source = self._retry("def fallback():\n                return None")
        diags = lint_source(source, path=SIM_PATH)
        assert _ids(diags) == ["EQX305"]
        assert diags[0].location.line == 8

    def test_conditional_loop_is_not_checked(self):
        source = self._retry("pass", loop="while attempts:")
        assert lint_source(source, path=SIM_PATH) == []

    def test_suppression(self):
        source = self._retry(
            "pass", handler_comment="  # eqx: ignore[EQX305]"
        )
        assert lint_source(source, path=SIM_PATH) == []


class TestDirectPercentile:
    _SOURCE = (
        "import numpy as np\n"
        "p99 = np.percentile([1.0, 2.0], 99)\n"
    )

    def test_eqx306_outside_the_stats_layer(self):
        diags = lint_source(self._SOURCE, path=EVAL_PATH)
        assert _ids(diags) == ["EQX306"]
        assert diags[0].location.line == 2

    def test_eqx306_module_alias(self):
        source = "import numpy\np = numpy.percentile([1.0], 50)\n"
        diags = lint_source(source, path=CORE_PATH)
        assert "EQX306" in _ids(diags)

    def test_obs_package_implements_the_sanctioned_path(self):
        diags = lint_source(self._SOURCE, path="src/repro/obs/sketch.py")
        assert "EQX306" not in _ids(diags)

    def test_sim_stats_is_exempt(self):
        diags = lint_source(self._SOURCE, path="src/repro/sim/stats.py")
        assert "EQX306" not in _ids(diags)

    def test_other_numpy_calls_unflagged(self):
        source = "import numpy as np\nm = np.mean([1.0, 2.0])\n"
        assert "EQX306" not in _ids(lint_source(source, path=EVAL_PATH))

    def test_suppression(self):
        source = (
            "import numpy as np\n"
            "p = np.percentile([1.0], 50)  # eqx: ignore[EQX306]\n"
        )
        assert _ids(lint_source(source, path=EVAL_PATH)) == []


class TestKernelImplImport:
    def test_eqx308_import_of_impl_module(self):
        source = "import repro.kernels.ref_bfp as ref\n\nQ = ref.quantize\n"
        diags = lint_source(source, path=EVAL_PATH)
        assert "EQX308" in _ids(diags)
        assert diags[0].location.line == 1

    def test_eqx308_from_impl_module(self):
        source = "from repro.kernels.fast_bfp import matmul\n\nM = matmul\n"
        assert "EQX308" in _ids(lint_source(source, path=CORE_PATH))

    def test_eqx308_impl_module_out_of_package(self):
        source = "from repro.kernels import ref_bfp\n\nR = ref_bfp\n"
        assert "EQX308" in _ids(lint_source(source, path=EVAL_PATH))

    def test_registry_api_is_sanctioned(self):
        source = (
            "from repro.kernels import dispatch, use_backend\n\n"
            "PAIR = (dispatch, use_backend)\n"
        )
        assert "EQX308" not in _ids(lint_source(source, path=EVAL_PATH))

    def test_kernels_package_registers_the_pairs(self):
        source = "from repro.kernels.ref_bfp import quantize\n\nQ = quantize\n"
        path = "src/repro/kernels/__init__.py"
        assert lint_source(source, path=path) == []

    def test_tests_may_reach_implementations(self):
        source = "from repro.kernels.fast_bfp import matmul\n\nM = matmul\n"
        path = "tests/kernels/test_parity_fuzz.py"
        assert "EQX308" not in _ids(lint_source(source, path=path))

    def test_suppression(self):
        source = (
            "import repro.kernels.ref_bfp as ref  # eqx: ignore[EQX308]\n\n"
            "Q = ref.quantize\n"
        )
        assert "EQX308" not in _ids(lint_source(source, path=EVAL_PATH))


class TestDirectHeapq:
    def test_eqx309_plain_import(self):
        source = "import heapq\n\nH = heapq.heappush\n"
        diags = lint_source(source, path=CORE_PATH)
        assert "EQX309" in _ids(diags)

    def test_eqx309_from_import(self):
        source = "from heapq import heappush, heappop\n\nH = (heappush, heappop)\n"
        assert "EQX309" in _ids(lint_source(source, path=EVAL_PATH))

    def test_sim_package_owns_the_heap(self):
        source = "import heapq\n\nH = heapq.heappush\n"
        assert "EQX309" not in _ids(
            lint_source(source, path="src/repro/sim/engine.py")
        )

    def test_tests_may_build_reference_heaps(self):
        source = "import heapq\n\nH = heapq.heappush\n"
        assert "EQX309" not in _ids(
            lint_source(source, path="tests/sim/test_batch_drain.py")
        )

    def test_other_imports_unflagged(self):
        source = "import heapq_like_lib\n\nL = heapq_like_lib\n"
        assert "EQX309" not in _ids(lint_source(source, path=CORE_PATH))

    def test_suppression(self):
        source = "import heapq  # eqx: ignore[EQX309]\n\nH = heapq.heappush\n"
        assert "EQX309" not in _ids(lint_source(source, path=CORE_PATH))


class TestUnkeyedServeRng:
    """EQX310: ambient random sources are banned inside repro.serve —
    the fleet matrix promises byte-identical reports for any --jobs
    value, so every draw must come from a seeded, keyed substream."""

    SERVE_PATH = "src/repro/serve/router.py"

    def test_import_and_use_of_random_flagged(self):
        source = "import random\n\nx = random.random()\n"
        diags = lint_source(source, path=self.SERVE_PATH)
        assert _ids(diags) == ["EQX310", "EQX310"]
        assert [d.location.line for d in diags] == [1, 3]

    def test_from_random_import_flagged(self):
        source = "from random import choice\n\nx = choice([1, 2])\n"
        assert "EQX310" in _ids(lint_source(source, path=self.SERVE_PATH))

    def test_ambient_numpy_random_attr_flagged_once(self):
        source = "import numpy as np\n\nnp.random.shuffle([1, 2])\n"
        diags = lint_source(source, path=self.SERVE_PATH)
        # One report per attribute chain, not one per sub-attribute.
        assert _ids(diags) == ["EQX310"]

    def test_numpy_random_submodule_import_flagged(self):
        source = "from numpy import random\n\nrandom.shuffle([1])\n"
        assert "EQX310" in _ids(lint_source(source, path=self.SERVE_PATH))

    def test_unseeded_default_rng_flagged(self):
        source = "import numpy as np\n\nrng = np.random.default_rng()\n"
        assert _ids(lint_source(source, path=self.SERVE_PATH)) == ["EQX310"]

    def test_seeded_default_rng_is_the_sanctioned_path(self):
        source = (
            "import zlib\n\n"
            "import numpy as np\n\n"
            'rng = np.random.default_rng([7, zlib.crc32(b"x")])\n'
        )
        assert lint_source(source, path=self.SERVE_PATH) == []

    def test_rule_is_inert_outside_serve(self):
        source = "import random\n\nx = random.random()\n"
        assert "EQX310" not in _ids(lint_source(source, path=EVAL_PATH))

    def test_suppression(self):
        source = (
            "import random  # eqx: ignore[EQX310]\n\n"
            "x = random.random()  # eqx: ignore[EQX310]\n"
        )
        assert lint_source(source, path=self.SERVE_PATH) == []


class TestOrdering:
    def test_diagnostics_sorted_by_line(self):
        source = (
            "import heapq\n"
            "import numpy as np\n"
            "\n"
            "ACC = np.float64(0.0)\n"
        )
        diags = lint_source(source, path=CORE_PATH)
        assert _ids(diags) == ["EQX309", "EQX301"]
        assert [d.location.line for d in diags] == [1, 4]


class TestRepositoryIsClean:
    def test_no_errors_in_tree(self):
        """The shipped package must lint clean at error severity."""
        errors = [
            d for d in lint_repository() if d.severity >= Severity.ERROR
        ]
        assert errors == [], "\n".join(d.render() for d in errors)
