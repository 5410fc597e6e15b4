"""repro.kernels: dual-backend HBFP kernels with bit-exact parity.

The two HBFP primitives that Figure 2's training curves spend their
time in each exist twice:

* ``reference`` — the readable tile-loop code that defines the
  semantics (the former inline implementations, kept as the oracle);
* ``fast`` — a vectorized rewrite that must match the reference **bit
  for bit**: values, shared exponents and RNG stream position
  (the corpus in ``tests/kernels/parity.py`` is the executable
  contract).

Call sites never import implementations directly (lint rule EQX308);
they resolve through :func:`dispatch`. The default backend is ``fast``;
:func:`use_backend` switches it for a scope.

Registered pairs:

========================  ============================================
``bfp.quantize``          ``BlockFloatTensor.from_float`` body
``bfp.matmul``            ``bfp_matmul`` tile-lattice GEMM
========================  ============================================
"""

from repro.kernels import fast_bfp, ref_bfp
from repro.kernels.registry import (
    BACKENDS,
    KernelPair,
    dispatch,
    dispatch_counts,
    get_backend,
    get_kernel,
    kernel_names,
    register_kernel,
    reset_dispatch_counts,
    use_backend,
)

__all__ = [
    "BACKENDS",
    "KernelPair",
    "dispatch",
    "dispatch_counts",
    "get_backend",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "reset_dispatch_counts",
    "use_backend",
]

register_kernel(
    "bfp.quantize",
    ref_bfp.quantize,
    fast_bfp.quantize,
    doc="Block-floating-point encode (per-tile exponent + mantissas).",
)
register_kernel(
    "bfp.matmul",
    ref_bfp.matmul,
    fast_bfp.matmul,
    doc="Tile-lattice integer GEMM with saturating accumulators.",
)
