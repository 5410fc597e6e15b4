"""The rule catalog shared by both analysis passes.

Rule ids are stable API: CI configurations, suppression comments and
the regression corpus reference them. The bands are

* ``EQX1xx`` — program verifier, job-level (checked at service install),
* ``EQX2xx`` — program verifier, instruction-image level,
* ``EQX3xx`` — codebase lint (AST rules over ``src/repro``).

Each rule carries its default severity and a one-line rationale; the
full rationale catalog lives in ``DESIGN.md``.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.diagnostics import Diagnostic, Location, Severity


@dataclass(frozen=True)
class Rule:
    """One static-analysis rule's identity and defaults."""

    rule_id: str
    name: str
    severity: Severity
    rationale: str


_CATALOG: Dict[str, Rule] = {}


def _register(rule: Rule) -> Rule:
    if rule.rule_id in _CATALOG:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _CATALOG[rule.rule_id] = rule
    return rule


# ---------------------------------------------------------------- EQX1xx
EMPTY_PROGRAM = _register(Rule(
    "EQX101", "empty-program", Severity.ERROR,
    "A program (or step) with no MMU, SIMD or DRAM work wedges the "
    "engine's dependency chain.",
))
INVALID_JOB_FIELD = _register(Rule(
    "EQX102", "invalid-job-field", Severity.ERROR,
    "Negative cycles/MACs/bytes, out-of-range utilization or zero "
    "instruction counts corrupt throughput accounting.",
))
DATAPATH_OVERCOMMIT = _register(Rule(
    "EQX103", "datapath-overcommit", Severity.ERROR,
    "A job claiming more MACs than cycles x total ALUs cannot be "
    "streamed by the datapath (paper Eq. 3 peak bound).",
))
STAGING_OVERFLOW = _register(Rule(
    "EQX104", "staging-overflow", Severity.ERROR,
    "A training job's operand stream must fit the < 2 % staging slice "
    "of on-chip SRAM (paper section 2.2).",
))
STAGING_DOUBLE_BUFFER = _register(Rule(
    "EQX105", "staging-no-double-buffer", Severity.WARNING,
    "A stream above half the staging slice serializes prefetch behind "
    "compute instead of overlapping it.",
))
TILING_WASTE = _register(Rule(
    "EQX106", "tiling-waste", Severity.WARNING,
    "Low job utilization pads tiles with dummy MACs — Figure 8's "
    "'other' stall class.",
))
ROW_OVERFLOW = _register(Rule(
    "EQX107", "row-overflow", Severity.WARNING,
    "A job streaming more rows than the program's batch silently pads "
    "every pass.",
))

# ---------------------------------------------------------------- EQX2xx
INSTRUCTION_OVERFLOW = _register(Rule(
    "EQX201", "instruction-buffer-overflow", Severity.ERROR,
    "An installed image must fit its share of the 32 KB instruction "
    "buffer (paper section 5).",
))
LOOP_MALFORMED = _register(Rule(
    "EQX202", "loop-malformed", Severity.ERROR,
    "Hardware repeat counters need a repeat count in [2, 65536] and "
    "bounded nesting.",
))
DEAD_INSTRUCTION = _register(Rule(
    "EQX203", "dead-instruction", Severity.WARNING,
    "Loops with empty bodies and redundant barriers occupy buffer "
    "bytes without effect.",
))
MISSING_LOAD = _register(Rule(
    "EQX204", "missing-load", Severity.ERROR,
    "A training-image MATMUL with no LOAD since the last BARRIER "
    "reads stale staging data (weights are DRAM-resident in training).",
))
MISSING_BARRIER = _register(Rule(
    "EQX205", "missing-barrier", Severity.ERROR,
    "A LOAD or MATMUL after a STORE without an intervening BARRIER is "
    "a read-before-write hazard across steps.",
))

# ---------------------------------------------------------------- EQX3xx
SYNTAX_ERROR = _register(Rule(
    "EQX300", "syntax-error", Severity.ERROR,
    "A module that does not parse cannot be analyzed (or imported).",
))
DTYPE_LEAK = _register(Rule(
    "EQX301", "float64-leak", Severity.ERROR,
    "float64 arithmetic outside repro.arith bypasses HBFP block "
    "quantization and silently invalidates Figure 2's convergence "
    "claim.",
))
NONDETERMINISM = _register(Rule(
    "EQX302", "nondeterminism", Severity.ERROR,
    "Wall-clock reads, unseeded RNG, environment reads or id() in any "
    "module a job can run make its cached result irreproducible.",
))
SWALLOWED_EXCEPTION = _register(Rule(
    "EQX303", "swallowed-exception", Severity.ERROR,
    "Bare or pass-only exception handlers hide datapath model bugs.",
))
UNBOUNDED_RETRY = _register(Rule(
    "EQX305", "unbounded-retry", Severity.WARNING,
    "A while-True retry loop whose failure path neither breaks, "
    "returns nor re-raises can spin forever; recovery must be bounded "
    "(the fault subsystem's retry budgets exist for a reason).",
))
DIRECT_PERCENTILE = _register(Rule(
    "EQX306", "direct-percentile", Severity.ERROR,
    "np.percentile called outside repro.obs / repro.sim.stats: ad-hoc "
    "percentiles diverge from the inf-aware convention (timed-out "
    "requests carry an inf sentinel) and from the artifact sketch — "
    "use inf_aware_percentile / LatencyStats / QuantileSketch.",
))
ADHOC_CONFIG_DUMP = _register(Rule(
    "EQX307", "adhoc-config-dump", Severity.ERROR,
    "json.dumps of a config outside repro.exec.canonical: cache keys "
    "and artifact checksums are sha256 over *canonical* JSON (sorted "
    "keys, numpy coercion, the obs inf/nan policy); an ad-hoc dump "
    "hashes differently and silently defeats result caching — use "
    "repro.exec.canonical_json / config_digest.",
))
KERNEL_IMPL_IMPORT = _register(Rule(
    "EQX308", "kernel-impl-import", Severity.ERROR,
    "Importing repro.kernels.ref_* / fast_* implementation modules "
    "outside the kernels package bypasses the dispatch registry: "
    "use_backend and the dispatch counters stop applying — call the "
    "public wrappers (BlockFloatTensor.from_float, bfp_matmul) or "
    "kernels.dispatch() instead.",
))
DIRECT_HEAPQ = _register(Rule(
    "EQX309", "direct-heapq", Severity.ERROR,
    "heapq outside repro.sim builds a second event queue: entries "
    "scheduled there are invisible to the simulator's ordering, "
    "cancellation bookkeeping, queue_depth invariant and snapshot "
    "machinery, silently breaking determinism and resume — schedule "
    "through Simulator.at/after (or at_call/after_call for "
    "fire-and-forget work) instead.",
))
UNKEYED_SERVE_RNG = _register(Rule(
    "EQX310", "unkeyed-serve-rng", Severity.ERROR,
    "Module-level random / numpy.random use inside repro.serve: fleet "
    "scenarios promise byte-identical reports for any --jobs value, "
    "so every draw must come from a seeded, crc32-keyed substream "
    "(np.random.default_rng([seed, zlib.crc32(label), instance]) or a "
    "FaultPlan.rng stream) — ambient generators shared across workers "
    "break that silently.",
))


def catalog() -> List[Rule]:
    """All registered rules in id order."""
    return [_CATALOG[rule_id] for rule_id in sorted(_CATALOG)]


def rule(rule_id: str) -> Rule:
    try:
        return _CATALOG[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}") from None


def is_known_rule(rule_id: str) -> bool:
    return rule_id in _CATALOG


def diagnostic(
    rule_obj: Rule,
    message: str,
    *,
    file: Optional[str] = None,
    line: Optional[int] = None,
    obj: Optional[str] = None,
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a diagnostic for ``rule_obj`` at the given location."""
    return Diagnostic(
        rule_id=rule_obj.rule_id,
        severity=severity if severity is not None else rule_obj.severity,
        message=message,
        location=Location(file=file, line=line, obj=obj),
    )
