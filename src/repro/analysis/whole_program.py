"""The EQX4xx rules: whole-program determinism & cache soundness.

Where EQX3xx lints one file's AST, this pass judges *entry points*
against the interprocedural effect summary of
:mod:`repro.analysis.effects` over the call graph of
:mod:`repro.analysis.callgraph`:

* **EQX401 nondeterministic-job-fn** — every function registered in a
  job registry (the exec engine's ``fn_id → callable`` table) must
  export no nondeterminism effect: a wall-clock read or unseeded RNG
  draw three calls down makes the content-addressed result cache serve
  stale data silently.
* **EQX402 rng-stream-divergence** — a KernelPair's reference and fast
  implementations must interact with their ``rng`` parameter
  identically (same methods, same argument shapes, same order, same
  forwarding); any divergence desynchronizes the RNG stream and breaks
  the bit-exact parity contract on every later stochastic call.
* **EQX403 cache-key-escape** — a job function reading state outside
  ``(config, seed, code_fingerprint)`` (environment variables, files)
  computes results the cache key does not describe.
* **EQX404 unregistered-entry-point** — a registry target or kernel
  implementation the call graph cannot resolve is an entry point the
  other rules silently skip, and a job-shaped function living in a
  registry-target module without a registration can never be analyzed
  (or cached) at all. This rule is the analyzer's own soundness check.
* **EQX405 impure-merge_state** — ``merge_state`` implementations are
  the worker→parent aggregation hand-off; any effect there lets a
  parallel run diverge from the serial one, breaking the ``--jobs N``
  byte-identical guarantee.
* **EQX406 asymmetric-snapshot** — every stateful class reachable from
  a checkpoint root (``repro.state.CHECKPOINT_ROOTS``, decoded
  statically like the job registries) through ``__init__`` attribute
  assignments and base classes must carry a *symmetric*
  ``to_state``/``from_state`` pair: one side without the other, or
  neither on a class that mutates ``self`` outside ``__init__``, means
  a checkpoint through that root silently drops state and the
  bit-exact resume contract is void. Frozen dataclasses (config-only
  values) are exempt; classes that genuinely cannot snapshot must
  still define ``to_state`` and raise ``SnapshotError`` from it.

Escape hatch: audited sinks carry ``@pure``/``@audited`` annotations
(:mod:`repro.analysis.annotations`), recognized statically; line-level
``# eqx: ignore[...]`` / ``# eqx: disable=...`` comments on the ``def``
line work too, for parity with the per-file lint.
"""

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import rules
from repro.analysis.callgraph import (
    FunctionRecord,
    ProgramIndex,
    load_or_build_index,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.effects import (
    NONDETERMINISM_EFFECTS,
    STATE_EFFECTS,
    EffectSummary,
    propagate,
)

__all__ = [
    "WholeProgramReport",
    "analyze_tree",
    "coverage_lines",
]

#: Parameter spellings that mark a top-level function as job-shaped
#: (the registry contract is ``fn(config, seed)``).
_JOB_PARAMS = ("config", "seed")


class WholeProgramReport:
    """Analyzer output: diagnostics plus the coverage evidence."""

    def __init__(
        self,
        index: ProgramIndex,
        summary: EffectSummary,
        diagnostics: List[Diagnostic],
        from_cache: bool,
    ):
        self.index = index
        self.summary = summary
        self.diagnostics = diagnostics
        self.from_cache = from_cache

    def coverage(self) -> Dict[str, Any]:
        """What the call graph proved it can see (the EQX404 evidence).

        ``jobs`` / ``kernels`` map each registered entry point to the
        resolved qualified name (``None`` = unresolved, which EQX404
        reports); the counts let CI assert a floor without parsing
        names.
        """
        jobs: Dict[str, Optional[str]] = {}
        for fn_id, target in self.index.job_registry().items():
            record = self.index.resolve_target(target)
            jobs[fn_id] = record.qualname if record else None
        kernels: Dict[str, Dict[str, Optional[str]]] = {}
        for name, pair in self.index.kernel_pairs().items():
            resolved: Dict[str, Optional[str]] = {}
            for side in ("reference", "fast"):
                target = pair.get(side)
                record = (
                    self.index.functions.get(target) if target else None
                )
                resolved[side] = record.qualname if record else None
            kernels[name] = resolved
        merge_state = [r.qualname for r in self.index.merge_state_methods()]
        roots: Dict[str, Optional[str]] = {}
        for root_id, target in self.index.checkpoint_roots().items():
            qualname = target.replace(":", ".")
            roots[root_id] = (
                qualname if self.index.class_info(qualname) is not None
                else None
            )
        return {
            "modules": len(self.index.modules),
            "functions": len(self.index.functions),
            "call_edges": self.index.edge_count(),
            "jobs": jobs,
            "jobs_covered": sum(1 for q in jobs.values() if q),
            "kernels": kernels,
            "kernels_covered": sum(
                1 for pair in kernels.values()
                if pair["reference"] and pair["fast"]
            ),
            "merge_state": merge_state,
            "checkpoint_roots": roots,
            "checkpoint_roots_covered": sum(1 for q in roots.values() if q),
            "digest": self.index.digest,
            "from_cache": self.from_cache,
        }


def _location(
    index: ProgramIndex, record: FunctionRecord
) -> Tuple[Optional[str], int]:
    module = index.modules.get(record.module)
    return (module.path if module else None), record.line


def _suppressed(
    index: ProgramIndex, record: FunctionRecord, rule_id: str
) -> bool:
    return index.suppressed(record.module, record.line, rule_id)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------


def _check_job_functions(
    index: ProgramIndex, summary: EffectSummary
) -> List[Diagnostic]:
    """EQX401 + EQX403 over every registered job function."""
    diags: List[Diagnostic] = []
    for fn_id, target in index.job_registry().items():
        record = index.resolve_target(target)
        if record is None:
            continue  # EQX404's finding, not ours
        effects = summary.effects_of(record.qualname)
        file, line = _location(index, record)

        nondet = sorted(effects & NONDETERMINISM_EFFECTS)
        if nondet and not _suppressed(index, record, "EQX401"):
            witnesses = "; ".join(
                f"{effect}: {summary.witness(record.qualname, effect)}"
                for effect in nondet
            )
            diags.append(rules.diagnostic(
                rules.NONDET_JOB_FN,
                f"job {fn_id!r} ({record.qualname}) is transitively "
                f"nondeterministic — the result cache would serve stale "
                f"data for it [{witnesses}]",
                file=file, line=line,
            ))

        escapes = sorted(effects & STATE_EFFECTS)
        if escapes and not _suppressed(index, record, "EQX403"):
            witnesses = "; ".join(
                f"{effect}: {summary.witness(record.qualname, effect)}"
                for effect in escapes
            )
            diags.append(rules.diagnostic(
                rules.CACHE_KEY_ESCAPE,
                f"job {fn_id!r} ({record.qualname}) reads state outside "
                f"(config, seed, code_fingerprint) — results keyed only "
                f"on those inputs cannot be trusted [{witnesses}]",
                file=file, line=line,
            ))
    return diags


def _check_kernel_pairs(index: ProgramIndex) -> List[Diagnostic]:
    """EQX402: reference/fast rng-stream contract."""
    diags: List[Diagnostic] = []
    for name, pair in index.kernel_pairs().items():
        sides: Dict[str, Optional[FunctionRecord]] = {
            side: index.functions.get(pair.get(side) or "")
            for side in ("reference", "fast")
        }
        reference, fast = sides["reference"], sides["fast"]
        if reference is None or fast is None:
            continue  # EQX404's finding
        if reference.rng_trace == fast.rng_trace:
            continue
        if _suppressed(index, fast, "EQX402"):
            continue
        file, line = _location(index, fast)
        diags.append(rules.diagnostic(
            rules.RNG_STREAM_DIVERGENCE,
            f"kernel pair {name!r}: reference and fast backends consume "
            f"the rng stream differently — reference draws "
            f"{reference.rng_trace or ['nothing']}, fast draws "
            f"{fast.rng_trace or ['nothing']}; a switched backend "
            f"desynchronizes every later stochastic call",
            file=file, line=line,
        ))
    return diags


def _check_entry_point_coverage(index: ProgramIndex) -> List[Diagnostic]:
    """EQX404: everything registered must resolve; everything
    job-shaped in a registry-target module must be registered."""
    diags: List[Diagnostic] = []
    registry = index.job_registry()
    target_modules: Dict[str, str] = {}
    registered_qualnames = set()
    for fn_id, target in registry.items():
        qualname = target.replace(":", ".")
        registered_qualnames.add(qualname)
        target_modules[qualname.rsplit(".", 1)[0]] = fn_id
        if index.resolve_target(target) is None:
            module_name = target.partition(":")[0]
            module = index.modules.get(module_name)
            diags.append(rules.diagnostic(
                rules.UNREGISTERED_ENTRY_POINT,
                f"job {fn_id!r} targets {target!r}, which the call graph "
                f"cannot resolve — the entry point would run (or fail) "
                f"unanalyzed",
                file=module.path if module else None,
                obj=None if module else f"job:{fn_id}",
            ))
    for name, pair in index.kernel_pairs().items():
        for side in ("reference", "fast"):
            target = pair.get(side)
            if target is None or target not in index.functions:
                diags.append(rules.diagnostic(
                    rules.UNREGISTERED_ENTRY_POINT,
                    f"kernel pair {name!r}: the {side} implementation "
                    f"({target or 'unrenderable expression'}) is outside "
                    f"the call graph — its rng/effect contract is "
                    f"unverifiable",
                    obj=f"kernel:{name}.{side}",
                ))
    # Job-shaped functions in modules the registry points into that are
    # not themselves registered: they look like jobs, execute like
    # jobs, but bypass fn_id addressing, caching and this analysis.
    for module_name in sorted(target_modules):
        module = index.modules.get(module_name)
        if module is None:
            continue
        for qualname in module.functions:
            record = index.functions[qualname]
            fn_name = qualname.rsplit(".", 1)[-1]
            if qualname.count(".") != module_name.count(".") + 1:
                continue  # method, not a top-level function
            if fn_name.startswith("_"):
                continue
            if tuple(record.params[:2]) != _JOB_PARAMS:
                continue
            if qualname in registered_qualnames:
                continue
            if _suppressed(index, record, "EQX404"):
                continue
            file, line = _location(index, record)
            diags.append(rules.diagnostic(
                rules.UNREGISTERED_ENTRY_POINT,
                f"{qualname} is job-shaped (config, seed) and lives in a "
                f"registry-target module but is not registered — it can "
                f"never be cached, fanned out, or analyzed as an entry "
                f"point",
                file=file, line=line,
            ))
    return diags


def _reachable_snapshot_classes(index: ProgramIndex) -> Dict[str, List[str]]:
    """Class qualname -> sorted root ids it is reachable from.

    Breadth-first over the static attribute graph: a class reaches the
    classes its ``__init__`` assigns to ``self`` attributes, plus its
    base classes (their state is the object's state too).
    """
    reached: Dict[str, set] = {}
    for root_id, target in index.checkpoint_roots().items():
        start = target.replace(":", ".")
        queue = [start]
        while queue:
            current = queue.pop(0)
            if root_id in reached.setdefault(current, set()):
                continue
            reached[current].add(root_id)
            info = index.class_info(current)
            if info is None:
                continue
            queue.extend(info.get("attrs", {}).values())
            queue.extend(info.get("bases", []))
    return {
        qualname: sorted(roots) for qualname, roots in sorted(reached.items())
    }


def _check_snapshot_symmetry(index: ProgramIndex) -> List[Diagnostic]:
    """EQX406: snapshot coverage over the checkpoint-root closure."""
    diags: List[Diagnostic] = []
    for qualname, roots in _reachable_snapshot_classes(index).items():
        info = index.class_info(qualname)
        module_name, _, cls_name = qualname.rpartition(".")
        module = index.modules.get(module_name)
        via = f"checkpoint root(s) {', '.join(repr(r) for r in roots)}"
        if info is None or module is None:
            # A root table entry pointing outside the call graph is the
            # same soundness hole EQX404 guards registries against.
            diags.append(rules.diagnostic(
                rules.ASYMMETRIC_SNAPSHOT,
                f"{qualname} is named by {via} but is outside the call "
                f"graph — its snapshot contract is unverifiable",
                file=module.path if module else None,
                obj=qualname,
            ))
            continue
        if info.get("frozen"):
            continue  # immutable config value: nothing to snapshot
        if index.suppressed(module_name, int(info["line"]), "EQX406"):
            continue
        has_to = index.class_has_method(qualname, "to_state")
        has_from = index.class_has_method(qualname, "from_state")
        if has_to and has_from:
            continue
        file, line = module.path, int(info["line"])
        if has_to != has_from:
            present, absent = (
                ("to_state", "from_state") if has_to
                else ("from_state", "to_state")
            )
            diags.append(rules.diagnostic(
                rules.ASYMMETRIC_SNAPSHOT,
                f"{qualname} (reachable from {via}) defines {present} "
                f"but not {absent} — a one-sided snapshot contract can "
                f"checkpoint state it cannot restore (or vice versa)",
                file=file, line=line,
            ))
            continue
        mutations = info.get("mutations", [])
        if not mutations:
            continue  # set up in __init__, never mutated: config-like
        method, attr, mline = mutations[0]
        diags.append(rules.diagnostic(
            rules.ASYMMETRIC_SNAPSHOT,
            f"{qualname} (reachable from {via}) mutates self.{attr} in "
            f"{method}() (line {mline}) but defines neither to_state "
            f"nor from_state — checkpoints through its root silently "
            f"drop that state",
            file=file, line=line,
        ))
    return diags


def _check_merge_state(
    index: ProgramIndex, summary: EffectSummary
) -> List[Diagnostic]:
    """EQX405: aggregation hand-offs must be effect-free."""
    diags: List[Diagnostic] = []
    for record in index.merge_state_methods():
        effects = sorted(summary.effects_of(record.qualname))
        if not effects or _suppressed(index, record, "EQX405"):
            continue
        witnesses = "; ".join(
            f"{effect}: {summary.witness(record.qualname, effect)}"
            for effect in effects
        )
        file, line = _location(index, record)
        diags.append(rules.diagnostic(
            rules.IMPURE_MERGE_STATE,
            f"{record.qualname} has effects — worker→parent aggregation "
            f"must be pure or --jobs N diverges from --jobs 1 "
            f"[{witnesses}]",
            file=file, line=line,
        ))
    return diags


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def analyze_tree(
    root: Path, cache_dir: Optional[Path] = None
) -> WholeProgramReport:
    """Run the whole-program pass over the package tree at ``root``.

    With ``cache_dir``, the call-graph artifact is loaded when its
    digest matches the tree (and written otherwise); the effect fixed
    point always re-runs — it is linear and cheap next to parsing.
    """
    index, from_cache = load_or_build_index(Path(root), cache_dir)
    summary = propagate(index.functions)
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_job_functions(index, summary))
    diagnostics.extend(_check_kernel_pairs(index))
    diagnostics.extend(_check_entry_point_coverage(index))
    diagnostics.extend(_check_merge_state(index, summary))
    diagnostics.extend(_check_snapshot_symmetry(index))
    diagnostics.sort(key=lambda d: (
        d.location.file or "", d.location.line or 0, d.rule_id,
    ))
    return WholeProgramReport(index, summary, diagnostics, from_cache)


def coverage_lines(coverage: Dict[str, Any]) -> List[str]:
    """Human-readable coverage summary (the CLI's text footer)."""
    lines = [
        f"whole-program: {coverage['modules']} modules, "
        f"{coverage['functions']} functions, "
        f"{coverage['call_edges']} call edges"
        + (" (cached call graph)" if coverage["from_cache"] else ""),
        f"jobs covered: {coverage['jobs_covered']}/"
        f"{len(coverage['jobs'])} "
        f"({', '.join(sorted(coverage['jobs']))})",
        f"kernel pairs covered: {coverage['kernels_covered']}/"
        f"{len(coverage['kernels'])} "
        f"({', '.join(sorted(coverage['kernels']))})",
        f"merge_state implementations: {len(coverage['merge_state'])}",
        f"checkpoint roots covered: {coverage['checkpoint_roots_covered']}/"
        f"{len(coverage['checkpoint_roots'])} "
        f"({', '.join(sorted(coverage['checkpoint_roots']))})",
    ]
    return lines
