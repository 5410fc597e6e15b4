"""repro — reproduction of *Equinox: Training (for Free) on a Custom
Inference Accelerator* (MICRO 2021).

The top-level namespace re-exports the objects most users need; the
subpackages hold the full system (see README.md for the map):

>>> import repro
>>> config = repro.equinox_configuration("500us")
>>> accelerator = repro.EquinoxAccelerator(
...     config, repro.deepbench_lstm(),
...     training_model=repro.deepbench_lstm(),
... )

Packages load their re-exported names on first use
(:mod:`repro._lazy`).
"""

import os
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# One OpenBLAS thread per process, set before numpy loads so that it
# holds in every process that imports repro first (pool workers inherit
# it); a value the user set wins. The thread count never changes a
# result: no kernel's bits depend on it (DESIGN.md, "Kernel backends"),
# and CI's golden-digest job checks that with two threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # eqx: ignore[EQX302]

if TYPE_CHECKING:
    from repro.core.equinox import EquinoxAccelerator, SimulationReport
    from repro.dse.table1 import equinox_configuration, pareto_table
    from repro.hw.config import AcceleratorConfig
    from repro.models.gru import deepbench_gru
    from repro.models.lstm import deepbench_lstm
    from repro.models.resnet import resnet50
    from repro.models.training import build_training_plan

__version__ = "1.0.0"

__all__ = [
    "EquinoxAccelerator",
    "SimulationReport",
    "AcceleratorConfig",
    "equinox_configuration",
    "pareto_table",
    "deepbench_lstm",
    "deepbench_gru",
    "resnet50",
    "build_training_plan",
    "__version__",
]

__getattr__ = lazy_exports(__name__, {
    "EquinoxAccelerator": "repro.core.equinox",
    "SimulationReport": "repro.core.equinox",
    "AcceleratorConfig": "repro.hw.config",
    "equinox_configuration": "repro.dse.table1",
    "pareto_table": "repro.dse.table1",
    "deepbench_lstm": "repro.models.lstm",
    "deepbench_gru": "repro.models.gru",
    "resnet50": "repro.models.resnet",
    "build_training_plan": "repro.models.training",
})
