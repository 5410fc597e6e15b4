"""End-to-end backend equivalence through the public entry points.

The parity corpus checks implementations; these tests check the
*wrappers* — that ``use_backend`` reaches the dispatch (observable via
the dispatch counters), and that results stay bit-identical through the
composed hbfp GEMM.
"""

import numpy as np

from repro import kernels
from repro.arith.bfp import BFPFormat, BlockFloatTensor, bfp_matmul
from repro.arith.hbfp import hbfp_gemm

FMT = BFPFormat(mantissa_bits=8, exponent_bits=12, block_rows=16,
                block_cols=16)


def _operands(seed=3, shape=(33, 47)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


def _under_both(fn):
    """``{backend: fn()}`` with ``fn`` run under each backend."""
    out = {}
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            out[backend] = fn()
    return out


class TestBfpWrappers:
    def test_from_float_backends_bit_identical(self):
        x = _operands()
        both = _under_both(lambda: BlockFloatTensor.from_float(x, FMT))
        ref, fast = both["reference"], both["fast"]
        assert np.array_equal(ref.mantissas, fast.mantissas)
        assert np.array_equal(ref.exponents, fast.exponents)
        assert np.array_equal(ref.to_float(), fast.to_float())

    def test_stochastic_rounding_consumes_identical_randomness(self):
        x = _operands(seed=9)

        def draw():
            rng = np.random.default_rng(1234)
            BlockFloatTensor.from_float(x, FMT, rounding="stochastic", rng=rng)
            return rng.bit_generator.state

        states = _under_both(draw)
        assert states["reference"] == states["fast"]

    def test_bfp_matmul_backends_bit_identical(self):
        a = BlockFloatTensor.from_float(_operands(1, (32, 64)), FMT)
        b = BlockFloatTensor.from_float(_operands(2, (64, 48)), FMT)
        both = _under_both(lambda: bfp_matmul(a, b))
        assert np.array_equal(both["reference"], both["fast"])

    def test_ambient_backend_reaches_the_wrappers(self):
        x = _operands()
        kernels.reset_dispatch_counts()
        with kernels.use_backend("reference"):
            BlockFloatTensor.from_float(x, FMT)
        counts = kernels.dispatch_counts()["bfp.quantize"]
        assert counts == {"reference": 1}
        kernels.reset_dispatch_counts()


class TestComposedPipelines:
    def test_hbfp_gemm_backend_invariant(self):
        a = _operands(11, (40, 56)).astype(np.float32)
        b = _operands(12, (56, 24)).astype(np.float32)
        both = _under_both(lambda: hbfp_gemm(a, b))
        assert np.array_equal(both["reference"], both["fast"])
