"""The bit-exactness contract, enforced: the whole parity corpus.

Every case runs its kernel under both backends and compares payloads
bit for bit — values, shared exponents, RNG stream position. One
parametrized test per case keeps failures addressable by name
(``test_case[matmul/ragged]``).
"""

import warnings

import numpy as np
import pytest

from repro.kernels import ref_bfp
from tests.kernels import parity

_CASES = parity.corpus()


def _case_ids():
    return [case.name for case in _CASES]


class TestCorpusShape:
    def test_covers_every_registered_kernel(self):
        from repro import kernels

        assert {case.kernel for case in _CASES} == set(kernels.kernel_names())

    def test_includes_the_degenerate_geometry(self):
        names = {case.name for case in _CASES}
        for needle in (
            "quantize/single/nearest",      # 1x1 logical shape
            "quantize/unit-blocks/nearest",  # 1x1 blocks
            "quantize/ragged/stochastic",    # shape % block != 0
            "quantize/all-zero/nearest",     # all-zero tiles
            "matmul/wide-mantissa",          # never one float64 GEMM
            "matmul/saturating",             # accumulator clamp
        ):
            assert needle in names, f"corpus lost its {needle} case"

    def test_corpus_is_deterministic(self):
        assert _case_ids() == [case.name for case in parity.corpus()]


@pytest.mark.parametrize("case", _CASES, ids=_case_ids())
def test_case(case):
    with warnings.catch_warnings():
        # The huge-values cases overflow float32 identically under both
        # backends; the overflow itself is the scenario, not a bug.
        warnings.simplefilter("ignore", RuntimeWarning)
        problems = parity.check_case(case)
    assert problems == [], "\n".join(problems)


class TestSuiteRunner:
    def test_run_suite_reports_counts(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cases_run, problems = parity.run_suite()
        assert cases_run == len(_CASES) > 40
        assert problems == []


class TestDiffPrimitive:
    """_diff is what the whole contract rests on — pin its semantics."""

    def test_bitwise_not_approximate(self):
        a = np.array([1.0])
        b = np.array([np.nextafter(1.0, 2.0)])  # one ulp off
        assert parity._diff("x", a, a.copy()) == []
        assert parity._diff("x", a, b) != []

    def test_dtype_mismatch_is_a_problem(self):
        a = np.zeros(3, dtype=np.float32)
        b = np.zeros(3, dtype=np.float64)
        assert any("dtype" in p for p in parity._diff("x", a, b))

    def test_shape_mismatch_is_a_problem(self):
        a = np.zeros((2, 3))
        assert any("shape" in p for p in parity._diff("x", a, a.T))

    def test_sign_of_zero_counts(self):
        assert parity._diff("x", np.array([0.0]), np.array([-0.0])) != []

    def test_identical_nans_match(self):
        nan = np.array([np.nan], dtype=np.float32)
        assert parity._diff("x", nan, nan.copy()) == []

    def test_scalar_payloads_compare_by_equality(self):
        assert parity._diff("cycles", 7, 7) == []
        assert parity._diff("cycles", 7, 8) != []


class TestSingleGemmEdges:
    """The matmul cases at the edges of the fast arm's single float64
    GEMM: pin which side of its exactness guard each one lands on, so
    the corpus keeps exercising both the GEMM and the reference loop."""

    @pytest.mark.parametrize(
        "name, one_gemm",
        [
            ("matmul/fig2-ish", True),
            ("matmul/spread-under-budget", True),
            ("matmul/spread-at-budget", True),
            ("matmul/spread-over-budget", False),
            ("matmul/zero-row-negative-column", True),
            ("matmul/subnormal", False),
            ("matmul/subnormal-times-huge", True),
            ("matmul/ragged-k", True),
            ("matmul/narrow-exponent-zero-blocks", False),
            ("matmul/saturating", False),
            ("matmul/wide-mantissa", False),
        ],
    )
    def test_path(self, name, one_gemm, monkeypatch):
        fallbacks = []
        reference_matmul = ref_bfp.matmul

        def counting(*args, **kwargs):
            fallbacks.append(1)
            return reference_matmul(*args, **kwargs)

        monkeypatch.setattr(ref_bfp, "matmul", counting)
        case = next(case for case in _CASES if case.name == name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            case.run("fast")
        assert (fallbacks == []) == one_gemm
