"""Static verifier for compiled programs and instruction images.

Pass 1 of the analysis subsystem: walks :class:`repro.hw.isa.Program`
job streams and :class:`repro.hw.instructions.InstructionImage` static
images and checks every hazard that is decidable before a simulation
runs — the hardware's static budgets (32 KB instruction buffer, the
< 2 % training staging cap), read-before-write hazards across steps,
loop-counter sanity, dead instructions, and job-field consistency.

:func:`verify_program` is also the install-time gate: the engines in
:mod:`repro.core.dispatcher` run it on every program they are handed
and refuse installation (``ProgramVerificationError``) on any
error-severity finding, so a violating service fails at install with a
diagnostic instead of deep inside a simulation.
"""

from typing import Iterable, List, Optional, Sequence, Union

from repro.analysis import rules
from repro.analysis.diagnostics import Diagnostic, errors, render_text
from repro.hw.config import AcceleratorConfig
from repro.hw.instructions import InstructionImage, Opcode
from repro.hw.isa import Program

#: Default utilization floor below which a job draws a tiling-waste
#: warning (Figure 8's "other" stalls).
DEFAULT_WASTE_THRESHOLD = 0.3

#: Hardware repeat-counter range: counts of 0/1 need no loop, and the
#: counter register is 16 bits wide.
MIN_LOOP_REPEAT = 2
MAX_LOOP_REPEAT = 1 << 16

#: Deepest loop nest the controller tracks (recurrence x row passes x
#: column groups, plus one level of slack).
MAX_LOOP_DEPTH = 4

#: DRAM traffic classes the dispatchers understand.
KNOWN_DRAM_KINDS = frozenset({
    "train_weights", "train_stream", "grad_accum", "grad_out",
    "stash", "stash_in", "stash_out", "param_sync",
})

#: Numeric slack for float aggregate comparisons.
_EPS = 1e-6


class ProgramVerificationError(RuntimeError):
    """A program failed install-time static verification.

    Attributes:
        diagnostics: Every finding of the verification run (the
            error-severity ones caused the raise).
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "program failed static verification:\n"
            + render_text(self.diagnostics)
        )


def raise_on_errors(diagnostics: Iterable[Diagnostic]) -> None:
    """Raise :class:`ProgramVerificationError` on error findings."""
    batch = list(diagnostics)
    if errors(batch):
        raise ProgramVerificationError(batch)


# ----------------------------------------------------------------------
# Job-level verification (the install-time gate)
# ----------------------------------------------------------------------


def _verify_job(
    diags: List[Diagnostic],
    job,
    where: str,
    program: Program,
    config: AcceleratorConfig,
) -> None:
    if job.cycles < 0 or job.macs < 0 or job.weight_bytes < 0:
        diags.append(rules.diagnostic(
            rules.INVALID_JOB_FIELD,
            f"negative field (cycles={job.cycles}, macs={job.macs}, "
            f"weight_bytes={job.weight_bytes})",
            obj=where,
        ))
    if not 0.0 <= job.utilization <= 1.0:
        diags.append(rules.diagnostic(
            rules.INVALID_JOB_FIELD,
            f"utilization {job.utilization} outside [0, 1]",
            obj=where,
        ))
    if job.instruction_count < 1:
        diags.append(rules.diagnostic(
            rules.INVALID_JOB_FIELD,
            f"instruction_count {job.instruction_count} < 1",
            obj=where,
        ))
    if job.rows < 1:
        diags.append(rules.diagnostic(
            rules.INVALID_JOB_FIELD, f"rows {job.rows} < 1", obj=where,
        ))
    elif job.rows > program.rows:
        diags.append(rules.diagnostic(
            rules.ROW_OVERFLOW,
            f"job streams {job.rows} rows but the program batches "
            f"{program.rows}",
            obj=where,
        ))
    capacity = job.cycles * config.total_alus
    if job.macs > capacity * (1.0 + _EPS):
        diags.append(rules.diagnostic(
            rules.DATAPATH_OVERCOMMIT,
            f"job claims {job.macs:.0f} MACs but {job.cycles:.0f} cycles "
            f"stream at most {capacity:.0f} on {config.total_alus} ALUs",
            obj=where,
        ))
def verify_program(
    program: Program,
    config: AcceleratorConfig,
    context: str = "service",
    waste_threshold: float = DEFAULT_WASTE_THRESHOLD,
) -> List[Diagnostic]:
    """Statically check one compiled job stream against ``config``.

    Covers rules EQX101-EQX107: empty programs/steps, invalid or
    overcommitted job fields, the < 2 % staging cap on per-job operand
    streams, the double-buffering condition, and tiling-waste warnings.
    """
    diags: List[Diagnostic] = []
    name = f"{context}:{program.name}"
    if not program.steps:
        diags.append(rules.diagnostic(
            rules.EMPTY_PROGRAM, "program has no steps", obj=name,
        ))
    if program.rows < 1:
        diags.append(rules.diagnostic(
            rules.INVALID_JOB_FIELD,
            f"program batches {program.rows} rows", obj=name,
        ))
    staging = config.staging_bytes
    for step_idx, step in enumerate(program.steps):
        where = f"{name}/step[{step_idx}]({step.label})"
        has_work = (
            bool(step.mmu_jobs) or step.simd.cycles > 0
            or step.simd.overlap_cycles > 0 or bool(step.dram)
        )
        if not has_work:
            diags.append(rules.diagnostic(
                rules.EMPTY_PROGRAM,
                "step carries no MMU, SIMD or DRAM work", obj=where,
            ))
        if step.simd.cycles < 0 or step.simd.overlap_cycles < 0 or step.simd.ops < 0:
            diags.append(rules.diagnostic(
                rules.INVALID_JOB_FIELD, "negative SIMD job field", obj=where,
            ))
        for request in step.dram:
            if request.bytes < 0:
                diags.append(rules.diagnostic(
                    rules.INVALID_JOB_FIELD,
                    f"negative DRAM request ({request.kind})", obj=where,
                ))
            if request.kind not in KNOWN_DRAM_KINDS:
                diags.append(rules.diagnostic(
                    rules.INVALID_JOB_FIELD,
                    f"unknown DRAM traffic kind {request.kind!r}", obj=where,
                ))
        for job_idx, job in enumerate(step.mmu_jobs):
            _verify_job(diags, job, f"{where}/job[{job_idx}]", program, config)
        # Tiling waste is a per-step property (every job of a step
        # shares one tiling), so report it once per step.
        step_macs = step.macs
        if step_macs > 0:
            mean_util = step.useful_macs / step_macs
            if 0 < mean_util < waste_threshold:
                diags.append(rules.diagnostic(
                    rules.TILING_WASTE,
                    f"utilization {mean_util:.2f} below the "
                    f"{waste_threshold:.2f} floor across "
                    f"{len(step.mmu_jobs)} jobs: "
                    f"{(1 - mean_util) * step_macs:.3g} padded MACs",
                    obj=where,
                ))
        # Staging budget: the dispatcher stages one job's stream share
        # at a time, so the per-job share is what the < 2 % cap bounds.
        stream = step.stream_bytes
        if stream > 0 and step.mmu_jobs:
            per_job = stream / len(step.mmu_jobs)
            if per_job > staging:
                diags.append(rules.diagnostic(
                    rules.STAGING_OVERFLOW,
                    f"per-job operand stream {per_job:.0f} B exceeds the "
                    f"staging slice ({staging:.0f} B, "
                    f"{config.staging_fraction * 100:.3g}% of SRAM)",
                    obj=where,
                ))
            elif per_job > staging / 2.0:
                diags.append(rules.diagnostic(
                    rules.STAGING_DOUBLE_BUFFER,
                    f"per-job operand stream {per_job:.0f} B exceeds half "
                    f"the staging slice ({staging / 2:.0f} B); prefetch "
                    "cannot overlap compute",
                    obj=where,
                ))
    return diags


# ----------------------------------------------------------------------
# Instruction-image verification
# ----------------------------------------------------------------------


def verify_image(
    image: InstructionImage,
    config: AcceleratorConfig,
    share: float = 1.0,
) -> List[Diagnostic]:
    """Statically check one instruction image against ``config``.

    Covers rules EQX201-EQX205: instruction-buffer residency (the
    32 KB budget, scaled by the service's ``share`` when two services
    space-share the buffer), loop-counter sanity and nesting depth,
    dead instructions, LOAD-before-MATMUL in training images, and
    missing-BARRIER read-before-write hazards.
    """
    diags: List[Diagnostic] = []
    name = f"image:{image.service}"
    budget = share * config.sram.instruction_bytes
    if image.bytes > budget:
        diags.append(rules.diagnostic(
            rules.INSTRUCTION_OVERFLOW,
            f"{image.bytes} B image exceeds its {budget:.0f} B share of "
            f"the {config.sram.instruction_bytes} B instruction buffer "
            f"({image.count} instructions)",
            obj=name,
        ))

    is_training = image.service == "training"
    loop_depth = 0
    seen_store = False
    loaded_since_barrier = not is_training  # inference weights resident
    previous: Optional[Opcode] = None
    for index, instruction in enumerate(image.instructions):
        where = f"{name}/instr[{index}]"
        opcode = instruction.opcode

        if opcode is Opcode.LOOP:
            repeat = instruction.operands[0] if instruction.operands else None
            if repeat is None:
                diags.append(rules.diagnostic(
                    rules.LOOP_MALFORMED, "LOOP without a repeat count",
                    obj=where,
                ))
            elif not MIN_LOOP_REPEAT <= repeat <= MAX_LOOP_REPEAT:
                diags.append(rules.diagnostic(
                    rules.LOOP_MALFORMED,
                    f"repeat count {repeat} outside "
                    f"[{MIN_LOOP_REPEAT}, {MAX_LOOP_REPEAT}]",
                    obj=where,
                ))
            loop_depth += 1
            if loop_depth > MAX_LOOP_DEPTH:
                diags.append(rules.diagnostic(
                    rules.LOOP_MALFORMED,
                    f"loop nesting depth {loop_depth} exceeds the "
                    f"controller's {MAX_LOOP_DEPTH} counters",
                    obj=where,
                ))
        else:
            if opcode is not Opcode.BARRIER:
                loop_depth = 0

        if opcode is Opcode.BARRIER:
            if previous is Opcode.LOOP:
                diags.append(rules.diagnostic(
                    rules.DEAD_INSTRUCTION,
                    "LOOP with an empty body (followed by BARRIER)",
                    obj=where,
                ))
            if previous is Opcode.BARRIER or previous is None:
                diags.append(rules.diagnostic(
                    rules.DEAD_INSTRUCTION,
                    "BARRIER fences nothing (leading or repeated)",
                    obj=where,
                ))
            loop_depth = 0
            seen_store = False
            loaded_since_barrier = not is_training

        if opcode in (Opcode.LOAD_WEIGHTS, Opcode.LOAD_ACTIVATIONS):
            loaded_since_barrier = True
            if seen_store:
                diags.append(rules.diagnostic(
                    rules.MISSING_BARRIER,
                    f"{opcode.value} after STORE_OUTPUT without a BARRIER "
                    "(read-before-write hazard)",
                    obj=where,
                ))
        if opcode is Opcode.MATMUL_TILE:
            if seen_store:
                diags.append(rules.diagnostic(
                    rules.MISSING_BARRIER,
                    "MATMUL_TILE after STORE_OUTPUT without a BARRIER "
                    "(read-before-write hazard)",
                    obj=where,
                ))
            if not loaded_since_barrier:
                diags.append(rules.diagnostic(
                    rules.MISSING_LOAD,
                    "training MATMUL_TILE with no LOAD since the last "
                    "BARRIER (operands were never staged)",
                    obj=where,
                ))
        if opcode is Opcode.STORE_OUTPUT:
            seen_store = True

        previous = opcode

    if previous is Opcode.LOOP:
        diags.append(rules.diagnostic(
            rules.DEAD_INSTRUCTION,
            "trailing LOOP with an empty body",
            obj=f"{name}/instr[{image.count - 1}]",
        ))
    return diags


Artifact = Union[Program, InstructionImage]


def verify(
    artifact: Artifact,
    config: AcceleratorConfig,
    context: str = "service",
    share: float = 1.0,
    waste_threshold: float = DEFAULT_WASTE_THRESHOLD,
) -> List[Diagnostic]:
    """Dispatch on the artifact type (fixture loader convenience)."""
    if isinstance(artifact, InstructionImage):
        return verify_image(artifact, config, share=share)
    if isinstance(artifact, Program):
        return verify_program(
            artifact, config, context=context, waste_threshold=waste_threshold
        )
    raise TypeError(f"cannot verify {type(artifact).__name__}")
