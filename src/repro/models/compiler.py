"""Tile compiler: model specs → job streams (paper Figure 4).

A GEMM of shape (rows × k) @ (k × n_out) is divided into tiles whose
reduction side is ``tile_k = n·w`` and whose output side is the column
group ``m·n`` (one n-wide slice per systolic array). Each ISA
instruction streams one activation row pass (n rows) against one K-tile
of m weight tiles; producing an output tile row takes ``k_tiles``
instructions plus the accumulation of the intermediate tiles.

Weight reload bandwidth pins the minimum pass length at n cycles (a
tile set of m·n²·w weights refills at m·n·w values/cycle), which is
why vector-matrix models need batch ≥ n for full utilization — the
relationship at the heart of the paper's §4 analysis.

The compiler aggregates the instructions of one step into a small
number of jobs (see :mod:`repro.hw.isa` for why this is behaviour-
preserving) sized to a configurable occupancy target so the hardware
scheduler keeps a fine interleaving granularity. A layer's pass is
chunked once: its repeats (the time steps of a recurrent layer) get one
``list`` each of the same frozen :class:`MMUJob` objects.
"""

import math
from dataclasses import dataclass
from typing import List

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import DRAMRequest, MMUJob, Program, SIMDJob, StepProgram
from repro.models.graph import ModelSpec

#: Default job occupancy target: ~2 µs of MMU time, fine enough for the
#: hardware scheduler to interleave training into inference gaps.
DEFAULT_CHUNK_US = 2.0


@dataclass(frozen=True)
class Tiling:
    """Tile counts and utilization for one GEMM on one configuration."""

    rows: int
    k: int
    n_out: int
    row_passes: int
    k_tiles: int
    col_groups: int

    @property
    def instructions(self) -> int:
        return self.row_passes * self.k_tiles * self.col_groups

    def occupancy_cycles(self, n: int) -> float:
        """Total MMU issue cycles: every pass streams n row slots."""
        return float(self.instructions * n)

    def capacity_macs(self, config: AcceleratorConfig) -> float:
        return self.occupancy_cycles(config.n) * config.total_alus

    @property
    def real_macs(self) -> float:
        return float(self.rows) * self.k * self.n_out

    def utilization(self, config: AcceleratorConfig) -> float:
        """Fraction of streamed MACs landing on real matrix elements."""
        return self.real_macs / self.capacity_macs(config)


def tile_gemm(rows: int, k: int, n_out: int, config: AcceleratorConfig) -> Tiling:
    """Tile one GEMM onto the configuration's MMU."""
    if min(rows, k, n_out) < 1:
        raise ValueError(f"GEMM dims must be positive: {rows}x{k}x{n_out}")
    return Tiling(
        rows=rows,
        k=k,
        n_out=n_out,
        row_passes=math.ceil(rows / config.n),
        k_tiles=math.ceil(k / config.tile_k),
        col_groups=math.ceil(n_out / config.column_group),
    )


def tiling_utilization(
    rows: int, k: int, n_out: int, config: AcceleratorConfig
) -> float:
    """Convenience wrapper: utilization of one GEMM shape."""
    return tile_gemm(rows, k, n_out, config).utilization(config)


def _chunk_jobs(
    tiling: Tiling,
    config: AcceleratorConfig,
    batch_slots: int,
    weight_bytes: float,
    chunk_us: float,
    stream_bytes: float = 0.0,
    max_stream_bytes: float = 0.0,
) -> List[MMUJob]:
    """Split one step's instructions into occupancy-targeted jobs.

    When the step carries a DRAM operand stream (training), jobs are
    additionally capped so one job's stream share fits in half the
    staging slice — the double-buffering condition that lets the next
    job's prefetch overlap the current job's compute.
    """
    total_instr = tiling.instructions
    target_cycles = max(config.n, config.us_to_cycles(chunk_us))
    instr_per_job = max(1, int(target_cycles // config.n))
    if max_stream_bytes > 0 and stream_bytes > 0:
        stream_per_instr = stream_bytes / total_instr
        stream_cap = max(1, int(max_stream_bytes // stream_per_instr))
        instr_per_job = min(instr_per_job, stream_cap)
    job_count = math.ceil(total_instr / instr_per_job)
    utilization = tiling.utilization(config)

    jobs: List[MMUJob] = []
    remaining = total_instr
    for _ in range(job_count):
        instr = min(instr_per_job, remaining)
        remaining -= instr
        cycles = float(instr * config.n)
        jobs.append(
            MMUJob(
                cycles=cycles,
                rows=batch_slots,
                macs=cycles * config.total_alus,
                utilization=utilization,
                weight_bytes=weight_bytes * instr / total_instr,
                instruction_count=instr,
            )
        )
    return jobs


def _simd_job(
    total_ops: float, tiling: Tiling, config: AcceleratorConfig
) -> SIMDJob:
    """Build the step's SIMD job with its serialized tail."""
    if total_ops <= 0:
        return SIMDJob(cycles=0.0)
    total_cycles = total_ops / config.simd_lanes
    chunks = max(1, tiling.col_groups * tiling.row_passes)
    tail = total_cycles / chunks
    return SIMDJob(
        cycles=tail, overlap_cycles=total_cycles - tail, ops=total_ops
    )


class TileCompiler:
    """Compiles model specs into inference/training job streams."""

    def __init__(self, config: AcceleratorConfig, chunk_us: float = DEFAULT_CHUNK_US):
        if chunk_us <= 0:
            raise ValueError("chunk target must be positive")
        self.config = config
        self.chunk_us = chunk_us

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def compile_inference(self, model: ModelSpec, batch: int = 0) -> Program:
        """Compile one inference batch execution.

        Args:
            model: The model spec.
            batch: Sample slots per batch; 0 selects the model's batch
                target on this configuration (n for vector models).
        """
        config = self.config
        batch = batch or model.inference_batch(config.n)
        if batch < 1:
            raise ValueError("batch must be positive")
        steps: List[StepProgram] = []
        for layer in model.layers:
            rows = batch * layer.rows_per_sample
            tiling = tile_gemm(rows, layer.k, layer.n_out, config)
            simd = _simd_job(batch * layer.simd_ops_per_sample, tiling, config)
            jobs = _chunk_jobs(tiling, config, batch, 0.0, self.chunk_us)
            for rep in range(layer.repeats):
                steps.append(
                    StepProgram(
                        mmu_jobs=list(jobs),
                        simd=simd,
                        label=f"{layer.name}[{rep}]",
                    )
                )
        useful_ops_per_row = 2.0 * model.macs_per_sample
        return Program(
            name=model.name, steps=steps, rows=batch,
            useful_ops_per_row=useful_ops_per_row,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def compile_training(
        self,
        model: ModelSpec,
        batch: int = 128,
        master_bytes: float = 2.0,
        stash_bytes: float = 2.0,
        max_stream_bytes: float = 0.0,
    ) -> Program:
        """Compile one training iteration (fwd + dgrad + wgrad + sync).

        Training weights are DRAM-resident (footprints of GBs across
        services, paper §2.2); every forward and input-gradient step
        streams its layer's master weights (``master_bytes`` per value)
        through the staging buffers. Activations and output gradients
        are stashed to DRAM between the passes; weight gradients for
        recurrent layers accumulate over the sequence by concatenating
        the time steps along the reduction dimension. Gradients ship to
        the parameter server and the refreshed model ships back once
        per iteration (§5: synchronous training with a parameter
        server).

        Args:
            model: Model to train.
            batch: Samples per iteration.
            master_bytes: DRAM bytes per master-weight value (2 for the
                bfloat16 master copies HBFP training keeps off-chip).
            stash_bytes: DRAM bytes per stashed activation/gradient.
            max_stream_bytes: Job stream-size cap; pass half the staging
                capacity so prefetch double-buffers (0 disables).
        """
        config = self.config
        if batch < 1:
            raise ValueError("batch must be positive")
        steps: List[StepProgram] = []

        # Forward pass, stashing layer inputs for the backward pass.
        for layer in model.layers:
            rows = batch * layer.rows_per_sample
            w_bytes = layer.weight_count * master_bytes
            tiling = tile_gemm(rows, layer.k, layer.n_out, config)
            simd = _simd_job(batch * layer.simd_ops_per_sample, tiling, config)
            stash = DRAMRequest(rows * layer.k * stash_bytes, kind="stash_out")
            jobs = _chunk_jobs(
                tiling, config, batch, w_bytes, self.chunk_us,
                stream_bytes=w_bytes,
                max_stream_bytes=max_stream_bytes,
            )
            for rep in range(layer.repeats):
                steps.append(
                    StepProgram(
                        mmu_jobs=list(jobs),
                        simd=simd,
                        dram=[stash],
                        label=f"fwd:{layer.name}[{rep}]",
                    )
                )

        # Backward pass in reverse layer order.
        for index in range(len(model.layers) - 1, -1, -1):
            layer = model.layers[index]
            rows = batch * layer.rows_per_sample
            w_bytes = layer.weight_count * master_bytes

            # Input gradients: dX = dY @ W^T, skipped for the first
            # layer (no upstream consumer).
            if index > 0 or layer.repeats > 1:
                tiling = tile_gemm(rows, layer.n_out, layer.k, config)
                simd = _simd_job(batch * layer.simd_ops_per_sample, tiling, config)
                stash = DRAMRequest(rows * layer.n_out * stash_bytes, kind="stash_out")
                jobs = _chunk_jobs(
                    tiling, config, batch, w_bytes, self.chunk_us,
                    stream_bytes=w_bytes,
                    max_stream_bytes=max_stream_bytes,
                )
                for rep in range(layer.repeats):
                    steps.append(
                        StepProgram(
                            mmu_jobs=list(jobs),
                            simd=simd,
                            dram=[stash],
                            label=f"dgrad:{layer.name}[{rep}]",
                        )
                    )

            # Weight gradients: dW = X^T @ dY with the sequence
            # concatenated along the reduction dimension.
            reduce_dim = rows * layer.repeats
            tiling = tile_gemm(layer.k, reduce_dim, layer.n_out, config)
            reload_bytes = reduce_dim * (layer.k + layer.n_out) * stash_bytes
            dw_out = DRAMRequest(
                layer.weight_count * stash_bytes, kind="grad_out"
            )
            steps.append(
                StepProgram(
                    mmu_jobs=_chunk_jobs(
                        tiling, config, batch, 0.0, self.chunk_us,
                        stream_bytes=reload_bytes,
                        max_stream_bytes=max_stream_bytes,
                    ),
                    simd=SIMDJob(cycles=0.0),
                    dram=[DRAMRequest(reload_bytes, kind="stash_in"), dw_out],
                    label=f"wgrad:{layer.name}",
                )
            )

        # Parameter-server exchange: gradients out, fresh model in.
        sync_bytes = 2.0 * model.weight_count * master_bytes
        steps.append(
            StepProgram(
                mmu_jobs=[],
                simd=SIMDJob(cycles=0.0),
                dram=[DRAMRequest(sync_bytes, kind="param_sync")],
                label="param_sync",
            )
        )

        # Useful training ops per sample: fwd + dgrad + wgrad ≈ 3× the
        # inference MACs (dgrad exists for all recurrent steps).
        useful = 2.0 * sum(step.useful_macs for step in steps)
        return Program(
            name=f"{model.name}_train_b{batch}",
            steps=steps,
            rows=batch,
            useful_ops_per_row=useful / batch,
        )


def compile_inference(
    model: ModelSpec,
    config: AcceleratorConfig,
    batch: int = 0,
    chunk_us: float = DEFAULT_CHUNK_US,
) -> Program:
    """Module-level convenience wrapper over :class:`TileCompiler`."""
    return TileCompiler(config, chunk_us).compile_inference(model, batch)


def compile_training(
    model: ModelSpec,
    config: AcceleratorConfig,
    batch: int = 128,
    chunk_us: float = DEFAULT_CHUNK_US,
    master_bytes: float = 2.0,
    stash_bytes: float = 2.0,
    max_stream_bytes: float = 0.0,
) -> Program:
    """Module-level convenience wrapper over :class:`TileCompiler`."""
    return TileCompiler(config, chunk_us).compile_training(
        model,
        batch,
        master_bytes=master_bytes,
        stash_bytes=stash_bytes,
        max_stream_bytes=max_stream_bytes,
    )
