"""Instruction-stream representation consumed by the dispatchers.

The accelerator's real ISA (matrix-vector multiply, vector ops, data
movement — paper §3.1) issues one instruction per activation tile. A
cycle-accurate event per instruction is intractable in Python for
millisecond-scale simulations, so the compiler (:mod:`repro.models
.compiler`) groups consecutive same-step instructions into *jobs* whose
occupancy, op counts and utilization splits are exact aggregates of the
underlying instructions. Contention and scheduling behave identically
because instructions within one step of one batch are issued
back-to-back in order anyway; scheduling decisions happen at job
boundaries, which is also the granularity Equinox's hardware scheduler
uses (it never preempts a tile mid-stream).
"""

from dataclasses import dataclass, field
from typing import List

_INF = float("inf")


@dataclass(frozen=True)
class MMUJob:
    """A group of consecutive MMU instructions from one step.

    Attributes:
        cycles: MMU occupancy (issue) cycles.
        rows: Activation rows streamed per pass (the batch target; real
            requests plus padding dummies at runtime).
        macs: MAC capacity consumed, i.e. ``cycles × m·n²·w``.
        utilization: Fraction of ``macs`` that lands on real matrix
            elements (< 1 when K or N pad up to tile boundaries); the
            complement is Figure 8's "other" (dimension-mismatch stalls).
        weight_bytes: Weight traffic this job needs staged from DRAM
            before it may issue (0 for inference: weights are resident).
        instruction_count: Number of ISA instructions aggregated.
    """

    cycles: float
    rows: int
    macs: float
    utilization: float
    weight_bytes: float = 0.0
    instruction_count: int = 1

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN and ±inf fail
        # here too: the MMU books these fields with plain arithmetic.
        if not (
            0.0 <= self.cycles < _INF
            and 0.0 <= self.macs < _INF
            and 0.0 <= self.weight_bytes < _INF
        ):
            raise ValueError(f"job field not finite and non-negative: {self}")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError(f"utilization out of range: {self.utilization}")


@dataclass(frozen=True)
class SIMDJob:
    """Vector-unit work for one step (activations, gates, residuals).

    The SIMD unit consumes MMU output column-group by column-group, so
    most of its work overlaps the GEMM that produces its operands; only
    the tail — the last output chunk's worth — sits on the step's
    dependency chain.

    Attributes:
        cycles: Serialized (dependency-chain) SIMD cycles — the tail.
        overlap_cycles: Cycles overlapped with the producing GEMM
            (accounted for utilization, not for latency).
        ops: Scalar operations performed (not counted toward MMU
            throughput — the paper reports GEMM throughput).
    """

    cycles: float
    overlap_cycles: float = 0.0
    ops: float = 0.0


@dataclass(frozen=True)
class DRAMRequest:
    """Off-chip traffic attributable to one step.

    Attributes:
        bytes: Transfer size.
        kind: Traffic class — ``train_weights`` (streamed operands),
            ``grad_accum`` (dW read-modify-write), ``stash``
            (activation stash store/reload), ``param_sync`` (parameter-
            server exchange, amortized per step).
    """

    bytes: float
    kind: str = "train_weights"


@dataclass(frozen=True)
class StepProgram:
    """One dependency level: all jobs here may overlap with each other,
    but the next step starts only when this one fully completes (the
    recurrent chain of an LSTM/GRU, or a layer of a CNN/MLP)."""

    mmu_jobs: List[MMUJob] = field(default_factory=list)
    simd: SIMDJob = field(default_factory=lambda: SIMDJob(cycles=0.0))
    dram: List[DRAMRequest] = field(default_factory=list)
    label: str = "step"

    @property
    def mmu_cycles(self) -> float:
        return sum(job.cycles for job in self.mmu_jobs)

    @property
    def macs(self) -> float:
        return sum(job.macs for job in self.mmu_jobs)

    @property
    def useful_macs(self) -> float:
        return sum(job.macs * job.utilization for job in self.mmu_jobs)

    @property
    def weight_bytes(self) -> float:
        return sum(job.weight_bytes for job in self.mmu_jobs)

    @property
    def stream_bytes(self) -> float:
        """Bytes staged from DRAM ahead of this step's jobs: the weight
        stream plus any stashed-operand (``stash_in``) reloads. The
        training dispatcher splits it evenly across the step's jobs, and
        the program verifier bounds that share by the staging slice."""
        stash_in = sum(r.bytes for r in self.dram if r.kind == "stash_in")
        return self.weight_bytes + stash_in

    @property
    def dram_bytes(self) -> float:
        return sum(req.bytes for req in self.dram)


@dataclass(frozen=True)
class Program:
    """A compiled model execution: an ordered chain of steps.

    Attributes:
        name: Model identifier (``lstm``, ``gru``, ``resnet50``, ...).
        steps: Dependency-ordered step programs.
        rows: Batch rows the program was compiled for.
        useful_ops_per_row: GEMM ops (2 × MACs on real matrix elements)
            one real request contributes — the unit of Figure 7/9
            throughput accounting.
    """

    name: str
    steps: List[StepProgram]
    rows: int
    useful_ops_per_row: float

    @property
    def total_mmu_cycles(self) -> float:
        return sum(step.mmu_cycles for step in self.steps)

    @property
    def total_simd_cycles(self) -> float:
        return sum(step.simd.cycles for step in self.steps)

    @property
    def total_weight_bytes(self) -> float:
        return sum(step.weight_bytes for step in self.steps)

    @property
    def total_dram_bytes(self) -> float:
        return sum(step.dram_bytes + step.weight_bytes for step in self.steps)

    @property
    def total_useful_ops(self) -> float:
        return 2.0 * sum(step.useful_macs for step in self.steps)

    @property
    def step_count(self) -> int:
        return len(self.steps)
