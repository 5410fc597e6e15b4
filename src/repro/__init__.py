"""repro — reproduction of *Equinox: Training (for Free) on a Custom
Inference Accelerator* (MICRO 2021).

The subpackages hold the full system (see README.md for the map). A
package ``__init__`` holds only its docstring, so every name is imported
from the module that defines it; :mod:`repro.kernels` is the one
exception, because it registers its kernel pairs at import.
"""

import os

# One OpenBLAS thread per process, set before numpy loads so that it
# holds in every process that imports repro first (pool workers inherit
# it); a value the user set wins. The thread count never changes a
# result: no kernel's bits depend on it (DESIGN.md, "Kernel backends"),
# and CI's golden-digest job checks that with two threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # eqx: ignore[EQX302]

__version__ = "1.0.0"
