"""SIMD (vector) unit timing model.

The SIMD unit performs the vector-vector work between GEMMs —
activations, gate nonlinearities, batch norm, pooling, residual adds —
and, in Equinox, the derivative and loss calculations training needs
(paper §3.2). It runs in bfloat16 regardless of the MMU encoding.

In the recurrent models the SIMD work of step *k* sits on the dependency
chain between the GEMM of step *k* and the GEMM of step *k+1*; when only
one batch is in flight those cycles surface as MMU dependence stalls
(part of Figure 8's "other"/idle), and under load they overlap with
other batches' GEMMs.
"""

from typing import Callable, Optional

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import SIMDJob
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource


class SIMDUnit:
    """Event-driven model of the SIMD unit."""

    def __init__(self, sim: Simulator, config: AcceleratorConfig):
        self.sim = sim
        self.config = config
        self._unit = SerialResource(sim, "simd")

    def issue(
        self,
        job: SIMDJob,
        on_done: Optional[Callable[[], None]] = None,
        priority: int = 0,
    ) -> None:
        """Run a vector job; ``on_done`` fires at completion."""
        if job.cycles <= 0:
            # Steps with no vector work complete immediately.
            if on_done is not None:
                self.sim.after_call(0.0, on_done)
            return
        self._unit.request(job.cycles, on_done=on_done, priority=priority)
