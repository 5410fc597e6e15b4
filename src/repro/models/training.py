"""Training-iteration planning and analytic throughput bounds.

Wraps a compiled training program with the quantities the evaluation
needs: useful ops per iteration, DRAM traffic per iteration, and the
compute/bandwidth-bound iteration time of a *dedicated* training
accelerator — the paper's reference point ("a training accelerator that
saturates the available compute resources and DRAM bandwidth", §1) that
Figure 9 and Table 2 measure Equinox against.
"""

from dataclasses import dataclass

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import Program
from repro.models.compiler import TileCompiler
from repro.models.graph import ModelSpec

#: Streaming HBM transfers sustain a fraction of the pin bandwidth
#: (row activation, refresh, read/write turnarounds); DRAMSim-validated
#: throughput models land in this range for 512-bit streams.
DRAM_STREAM_EFFICIENCY = 0.7


@dataclass(frozen=True)
class TrainingPlan:
    """A training iteration bound to one accelerator configuration."""

    model: ModelSpec
    config: AcceleratorConfig
    program: Program
    batch: int

    @property
    def ops_per_iteration(self) -> float:
        """Useful GEMM ops per iteration (fwd + dgrad + wgrad)."""
        return self.program.total_useful_ops

    @property
    def dram_bytes_per_iteration(self) -> float:
        """Weight streams, stashes, gradient and sync traffic."""
        return self.program.total_dram_bytes

    def compute_cycles(self) -> float:
        """MMU occupancy of one iteration at zero contention."""
        return self.program.total_mmu_cycles

    def dram_cycles(self) -> float:
        """Channel occupancy of one iteration at streaming efficiency."""
        bytes_per_cycle = self.config.dram_bytes_per_cycle * DRAM_STREAM_EFFICIENCY
        return self.dram_bytes_per_iteration / bytes_per_cycle

    def dedicated_iteration_cycles(self) -> float:
        """Iteration time on a dedicated accelerator of this shape.

        Each phase (step) is limited by the slower of its compute and
        its DRAM stream; phases pipeline against each other, so the
        iteration takes the max of the two aggregate occupancies.
        """
        return max(self.compute_cycles(), self.dram_cycles())

    def dedicated_throughput_top_s(self) -> float:
        """The paper's reference: training throughput when the whole
        accelerator (compute + HBM) serves training alone."""
        cycles = self.dedicated_iteration_cycles()
        seconds = self.config.cycles_to_seconds(cycles)
        return self.ops_per_iteration / seconds / 1e12


def build_training_plan(
    model: ModelSpec,
    config: AcceleratorConfig,
    batch: int = 128,
    chunk_us: float = 2.0,
) -> TrainingPlan:
    """Compile ``model`` for training on ``config`` and wrap the plan."""
    program = TileCompiler(config, chunk_us).compile_training(model, batch)
    return TrainingPlan(model=model, config=config, program=program, batch=batch)
