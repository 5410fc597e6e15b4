"""Pass 2: AST-based lint rules over the ``src/repro`` tree.

Rules are pluggable: each is a :class:`LintRule` with a stable id from
the catalog in :mod:`repro.analysis.rules`, applied file by file to a
parsed module. Shipping rules:

* **EQX301 float64-leak** — ``np.float64`` usage outside
  ``repro.arith``. The HBFP datapath's fp32-equivalent convergence
  claim depends on every tensor passing through block quantization;
  full-precision numpy escaping the arithmetic package silently
  invalidates it.
* **EQX302 nondeterminism** — wall-clock reads (``time.time``,
  ``datetime.now``...), unseeded RNG (``np.random.*`` without a seed,
  ``random.*`` module functions, ``uuid4``), environment reads
  (``os.environ``, ``os.getenv``) and ``id()``, anywhere in the package
  except the two timing modules (``exec.tasks``, ``__main__``). Any
  module may run inside a cached job, so none may depend on the host,
  the process or the run.
* **EQX303 swallowed-exception** — bare ``except:`` and
  ``except Exception: pass`` handlers.
* **EQX305 unbounded-retry** — ``while True`` retry loops whose except
  handler neither breaks, returns nor re-raises: the failure path spins
  forever. Retries must carry a budget, like the fault subsystem's
  bounded HBM retry and admission-control ``max_retries``.
* **EQX306 direct-percentile** — ``np.percentile`` calls outside
  ``repro.obs`` and ``repro.sim.stats``. Latency samples carry ``inf``
  sentinels for timed-out requests, which plain ``np.percentile``
  propagates as ``nan``; every percentile must go through
  ``inf_aware_percentile``, ``LatencyStats`` or the artifact sketch.
* **EQX307 adhoc-config-dump** — ``json.dumps``/``json.dump`` of a
  config object outside :mod:`repro.exec.canonical` (and the obs
  report serializer). Cache keys and artifact checksums are sha256
  over *canonical* JSON; an ad-hoc dump (unsorted keys, raw numpy
  scalars, default inf/nan handling) hashes differently and silently
  defeats result caching — use ``canonical_json``/``config_digest``.
* **EQX308 kernel-impl-import** — importing the
  ``repro.kernels.ref_*`` / ``fast_*`` implementation modules outside
  the kernels package (and its tests). The dispatch registry is the
  only sanctioned entry point: a direct import pins one backend
  forever, skipping ``use_backend`` and the dispatch counters that the
  end-to-end benchmark reads.
* **EQX309 direct-heapq** — ``heapq`` imported outside ``repro.sim``
  (and tests). The simulator owns the event heap; a second heap
  elsewhere schedules work the engine cannot order, cancel or count in
  ``queue_depth``.
* **EQX310 unkeyed-serve-rng** — ambient randomness inside
  ``repro.serve``: any ``random`` import/use, and any
  ``np.random``/``numpy.random`` attribute use other than
  ``default_rng`` called *with a seed*. Fleet reports promise
  byte-identical output across ``--jobs`` values, which only seeded,
  crc32-keyed substreams can deliver.

Suppression: append ``# eqx: ignore[EQX301]`` (or ``# eqx: ignore`` for
all rules) to the offending line; ``# eqx: disable=EQX301,EQX302`` is
an accepted spelling of the same thing. Suppressions are deliberate
escape hatches — e.g. the functional systolic-array model computes its
exact-accumulation reference in float64 on purpose.
"""

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis import rules
from repro.analysis.diagnostics import Diagnostic

#: ``# eqx: ignore`` / ``# eqx: ignore[EQX301, EQX302]`` /
#: ``# eqx: disable=EQX301,EQX302`` / ``# eqx: disable``
_SUPPRESS_RE = re.compile(
    r"#\s*eqx:\s*(?:ignore(?:\[(?P<ids>[A-Z0-9,\s]+)\])?"
    r"|disable(?:\s*=\s*(?P<disable_ids>[A-Z0-9,\s]+))?)"
)

#: The quantization boundary: float64 is legal only inside this package
#: (block conversion needs a full-precision staging representation).
QUANTIZATION_PACKAGE = "repro/arith"


@dataclass
class LintContext:
    """Everything a rule needs about the file under analysis."""

    path: str  #: display path (repo-relative when possible)
    module_path: str  #: normalized posix path used for package scoping
    source_lines: Sequence[str]
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)

    def in_package(self, *prefixes: str) -> bool:
        return any(
            f"/{prefix}/" in self.module_path
            or self.module_path.endswith(f"/{prefix}.py")
            for prefix in prefixes
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        if line not in self.suppressions:
            return False
        ids = self.suppressions[line]
        return ids is None or rule_id in ids


def _parse_suppressions(
    source_lines: Sequence[str],
) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to suppressed rule ids (None = all)."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for number, text in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        ids = match.group("ids") or match.group("disable_ids")
        if ids is None:
            suppressions[number] = None
        else:
            suppressions[number] = {
                part.strip() for part in ids.split(",") if part.strip()
            }
    return suppressions


class LintRule:
    """Base class for pluggable AST rules."""

    rule: rules.Rule

    def applies_to(self, context: LintContext) -> bool:
        return True

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        raise NotImplementedError


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DtypeLeakRule(LintRule):
    """EQX301: float64 escaping the quantization boundary."""

    rule = rules.DTYPE_LEAK

    _TARGETS = ("np.float64", "numpy.float64")

    def applies_to(self, context: LintContext) -> bool:
        # repro.kernels hosts the registered reference/fast pairs for
        # the arith quantizers; their staging math is arith's, moved.
        return not context.in_package("arith", "kernels")

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            name = _dotted_name(node) if isinstance(node, ast.Attribute) else None
            if name in self._TARGETS:
                diags.append(rules.diagnostic(
                    self.rule,
                    f"{name} used outside repro.arith: full-precision "
                    "arithmetic bypasses HBFP block quantization",
                    file=context.path, line=node.lineno,
                ))
        return diags


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """local name -> qualified dotted target."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                # `import a.b` binds `a`, but `import a.b as c` binds
                # the full dotted path to `c`.
                imports[local] = alias.name if alias.asname else (
                    alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports: rare here, skip
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _qualify(dotted: str, imports: Mapping[str, str]) -> str:
    """Resolve the head of a dotted name through the import table."""
    head, _, rest = dotted.partition(".")
    base = imports.get(head)
    if base is None:
        return dotted
    return f"{base}.{rest}" if rest else base


class NondeterminismRule(LintRule):
    """EQX302: wall clock, unseeded RNG, environment reads or ``id()``.

    Every source is an **error** in every module except the two whose
    job is measurement (the deliberately impure exec probe and the
    CLI's progress timers).
    Calls resolve through the module's import table, so
    ``from time import perf_counter`` and ``np.random.default_rng``
    both match. Inside ``repro.serve``, ``random``/``numpy.random`` use
    is left to the stricter EQX310, so each draw is reported once.
    """

    rule = rules.NONDETERMINISM

    _WALL_CLOCK_CALLS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.sleep",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })
    #: Constructors that are deterministic *with* a seed argument.
    _SEEDABLE_CALLS = frozenset({
        "numpy.random.default_rng", "numpy.random.RandomState",
        "random.Random",
    })
    _RNG_CALLS = frozenset({
        "uuid.uuid4", "uuid.uuid1", "os.urandom", "secrets.token_bytes",
        "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
        "secrets.choice",
    })
    _RNG_PREFIXES = ("numpy.random.", "random.", "secrets.")
    #: What EQX310 already reports inside repro.serve.
    _SERVE_RNG_PREFIXES = ("numpy.random.", "random.")
    _ENV_CALLS = frozenset({"os.getenv"})
    #: Modules audited to read the wall clock: measurement is their job.
    _AUDITED_MODULES = (
        "repro/exec/tasks.py",    # exec_probe sleeps on request
        "repro/__main__.py",      # CLI progress timers
    )

    def applies_to(self, context: LintContext) -> bool:
        return not any(
            context.module_path.endswith(suffix)
            for suffix in self._AUDITED_MODULES
        )

    def _call_source(
        self, node: ast.Call, imports: Mapping[str, str], serve: bool
    ) -> Optional[str]:
        """Why the call is nondeterministic, or None."""
        rendered = _dotted_name(node.func)
        if rendered is None:
            return None
        qualified = _qualify(rendered, imports)
        if serve and qualified.startswith(self._SERVE_RNG_PREFIXES):
            return None
        if qualified in self._WALL_CLOCK_CALLS:
            return f"{qualified}() reads the wall clock"
        if qualified in self._SEEDABLE_CALLS:
            if node.args or node.keywords:
                return None
            return f"{qualified}() without a seed draws from OS entropy"
        if qualified in self._RNG_CALLS or qualified.startswith(
            self._RNG_PREFIXES
        ):
            return f"{qualified}() draws from unseeded randomness"
        if qualified in self._ENV_CALLS:
            return f"{qualified}() reads the host environment"
        if qualified == "id":
            return "id() is a heap address that differs from run to run"
        return None

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        imports = _collect_imports(tree)
        serve = context.in_package("serve")
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            source: Optional[str] = None
            if isinstance(node, ast.Attribute):
                # os.environ[...], os.environ.get(...): the access itself
                dotted = _dotted_name(node)
                if dotted is not None and _qualify(dotted, imports) == (
                    "os.environ"
                ):
                    source = "os.environ reads the host environment"
            elif isinstance(node, ast.Call):
                source = self._call_source(node, imports, serve)
            if source is not None:
                diags.append(rules.diagnostic(
                    self.rule,
                    f"{source}: a job's result must depend only on its "
                    "(config, seed)",
                    file=context.path, line=node.lineno,
                ))
        return diags


class SwallowedExceptionRule(LintRule):
    """EQX303: bare excepts and pass-only broad handlers."""

    rule = rules.SWALLOWED_EXCEPTION

    _BROAD = {"Exception", "BaseException"}

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                diags.append(rules.diagnostic(
                    self.rule,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "and hides real failures",
                    file=context.path, line=node.lineno,
                ))
                continue
            type_name = _dotted_name(node.type)
            body_is_noop = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
            if type_name in self._BROAD and body_is_noop:
                diags.append(rules.diagnostic(
                    self.rule,
                    f"`except {type_name}: pass` silently swallows every "
                    "failure",
                    file=context.path, line=node.lineno,
                ))
        return diags


class UnboundedRetryRule(LintRule):
    """EQX305: while-True retry loops with no bounded failure path."""

    rule = rules.UNBOUNDED_RETRY

    @staticmethod
    def _is_constant_true(test: ast.expr) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    #: Subtrees whose control flow is not the enclosing loop's: an inner
    #: loop's try retries within *that* loop (which gets its own visit),
    #: and nested scopes break/return somewhere else entirely.
    _SCOPE_BARRIERS = (
        ast.While, ast.For, ast.FunctionDef, ast.AsyncFunctionDef,
        ast.ClassDef, ast.Lambda,
    )

    @classmethod
    def _tries_of_loop(cls, loop: ast.While) -> List[ast.Try]:
        """Try statements whose except handlers feed this loop's
        backedge (skipping inner loops and nested scopes)."""
        tries: List[ast.Try] = []
        stack: List[ast.AST] = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(node, cls._SCOPE_BARRIERS):
                continue
            if isinstance(node, ast.Try):
                tries.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return tries

    @classmethod
    def _handler_bounded(cls, handler: ast.ExceptHandler) -> bool:
        """Whether the failure path can leave the retry loop."""
        stack: List[ast.AST] = list(handler.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Break, ast.Return, ast.Raise)):
                return True
            if isinstance(node, cls._SCOPE_BARRIERS):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return False

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.While):
                continue
            if not self._is_constant_true(node.test):
                continue
            for try_node in self._tries_of_loop(node):
                for handler in try_node.handlers:
                    if not self._handler_bounded(handler):
                        diags.append(rules.diagnostic(
                            self.rule,
                            "while-True retry: this except handler never "
                            "breaks, returns or re-raises, so a persistent "
                            "fault spins the loop forever — bound the "
                            "retries (attempt counter, deadline) like the "
                            "fault subsystem's max_retries budgets",
                            file=context.path, line=handler.lineno,
                        ))
        return diags


class DirectPercentileRule(LintRule):
    """EQX306: np.percentile bypassing the inf-aware stats layer."""

    rule = rules.DIRECT_PERCENTILE

    _TARGETS = ("np.percentile", "numpy.percentile")

    def applies_to(self, context: LintContext) -> bool:
        # The observability package and the stats module *implement* the
        # sanctioned percentile paths (and test their equivalence to
        # numpy on finite data).
        if context.in_package("obs"):
            return False
        return not context.module_path.endswith("sim/stats.py")

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name in self._TARGETS:
                diags.append(rules.diagnostic(
                    self.rule,
                    f"{name}() bypasses the inf-aware stats layer: "
                    "latency samples use inf sentinels, which this turns "
                    "into nan — use repro.sim.stats.inf_aware_percentile "
                    "or LatencyStats/QuantileSketch",
                    file=context.path, line=node.lineno,
                ))
        return diags


class AdhocConfigDumpRule(LintRule):
    """EQX307: json.dumps of a config outside the canonicalizer."""

    rule = rules.ADHOC_CONFIG_DUMP

    _TARGETS = ("json.dumps", "json.dump")
    #: Identifier fragments marking the dumped value as a config. A
    #: heuristic on purpose: serializing *reports* or arbitrary
    #: payloads ad hoc is fine — only configs feed cache keys.
    _CONFIG_HINTS = ("config", "cfg")

    def applies_to(self, context: LintContext) -> bool:
        # The canonicalizer is the sanctioned path, and the obs report
        # serializer defines the shared inf/nan policy it builds on.
        return not (
            context.module_path.endswith("exec/canonical.py")
            or context.module_path.endswith("obs/report.py")
        )

    @classmethod
    def _mentions_config(cls, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            name: Optional[str] = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None and any(
                hint in name.lower() for hint in cls._CONFIG_HINTS
            ):
                return True
        return False

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name not in self._TARGETS or not node.args:
                continue
            if self._mentions_config(node.args[0]):
                diags.append(rules.diagnostic(
                    self.rule,
                    f"{name}() of a config bypasses the canonical "
                    "serializer: key order, numpy scalars and non-finite "
                    "floats will hash differently than the exec cache "
                    "keys — use repro.exec.canonical.canonical_json / "
                    "config_digest",
                    file=context.path, line=node.lineno,
                ))
        return diags


class KernelImplImportRule(LintRule):
    """EQX308: ref_*/fast_* kernel modules imported around the registry."""

    rule = rules.KERNEL_IMPL_IMPORT

    _PACKAGE = "repro.kernels"
    _IMPL_PREFIXES = ("ref_", "fast_")

    def applies_to(self, context: LintContext) -> bool:
        # The kernels package itself registers the pairs, and tests may
        # reach implementations directly (e.g. to fuzz one backend).
        if context.in_package("kernels", "tests"):
            return False
        return not context.module_path.startswith("tests/")

    @classmethod
    def _is_impl_module(cls, dotted: str) -> bool:
        prefix = f"{cls._PACKAGE}."
        if not dotted.startswith(prefix):
            return False
        leaf = dotted[len(prefix):].split(".", 1)[0]
        return leaf.startswith(cls._IMPL_PREFIXES)

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            offenders: List[str] = []
            if isinstance(node, ast.Import):
                offenders = [
                    alias.name for alias in node.names
                    if self._is_impl_module(alias.name)
                ]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if self._is_impl_module(node.module):
                    offenders = [node.module]
                elif node.module == self._PACKAGE:
                    offenders = [
                        f"{self._PACKAGE}.{alias.name}"
                        for alias in node.names
                        if alias.name.startswith(self._IMPL_PREFIXES)
                    ]
            for dotted in offenders:
                diags.append(rules.diagnostic(
                    self.rule,
                    f"direct import of {dotted} bypasses the kernel "
                    "dispatch registry (use_backend and the dispatch "
                    "counters stop applying) — use the public wrappers "
                    "or repro.kernels.dispatch()",
                    file=context.path, line=node.lineno,
                ))
        return diags


class DirectHeapqRule(LintRule):
    """EQX309: heapq imported outside the simulator package."""

    rule = rules.DIRECT_HEAPQ

    def applies_to(self, context: LintContext) -> bool:
        # repro.sim owns the event heap; tests may build reference
        # heaps to check the simulator against.
        if context.in_package("sim", "tests"):
            return False
        return not context.module_path.startswith("tests/")

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for node in ast.walk(tree):
            hit = False
            if isinstance(node, ast.Import):
                hit = any(
                    alias.name == "heapq" or alias.name.startswith("heapq.")
                    for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "heapq"
            if hit:
                diags.append(rules.diagnostic(
                    self.rule,
                    "direct heapq use outside repro.sim builds a second "
                    "event queue the simulator cannot see (ordering, "
                    "cancellation and queue_depth all stop applying) — "
                    "schedule through Simulator.at/after or "
                    "at_call/after_call",
                    file=context.path, line=node.lineno,
                ))
        return diags


class UnkeyedServeRngRule(LintRule):
    """EQX310: ambient randomness inside the serving package.

    ``repro.serve`` promises byte-identical fleet reports across
    ``--jobs`` settings, which only holds if every draw comes from a
    seeded, crc32-keyed substream. This rule bans the two ambient
    routes in that package: the stdlib ``random`` module (any import
    or module-attribute use) and ``np.random``/``numpy.random``
    attribute use — except ``default_rng`` called *with a seed
    argument*, the keyed-substream constructor itself.
    """

    rule = rules.UNKEYED_SERVE_RNG

    _DEFAULT_RNG = {"np.random.default_rng", "numpy.random.default_rng"}

    def applies_to(self, context: LintContext) -> bool:
        return context.in_package("serve")

    def check(self, tree: ast.Module, context: LintContext) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        #: Attribute nodes consumed by a seeded default_rng call — the
        #: one sanctioned np.random access, skipped in the walk below.
        #: AST nodes hash by identity.
        allowed: Set[ast.AST] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                if name in self._DEFAULT_RNG:
                    if not (node.args or node.keywords):
                        diags.append(rules.diagnostic(
                            self.rule,
                            f"{name}() without a seed draws from OS "
                            "entropy — pass the keyed substream seed "
                            "([seed, zlib.crc32(label), instance])",
                            file=context.path, line=node.lineno,
                        ))
                    # Whether seeded (sanctioned) or already reported
                    # above, don't re-flag the attribute chain itself.
                    chain: ast.AST = node.func
                    while isinstance(chain, ast.Attribute):
                        allowed.add(chain)
                        chain = chain.value
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "random" or alias.name in (
                        "numpy.random", "np.random"
                    ):
                        diags.append(rules.diagnostic(
                            self.rule,
                            f"import {alias.name} inside repro.serve: "
                            "draw through seeded crc32-keyed substreams "
                            "instead",
                            file=context.path, line=node.lineno,
                        ))
            elif isinstance(node, ast.ImportFrom):
                if node.module is not None and (
                    node.module == "random"
                    or node.module.startswith("random.")
                    or node.module in ("numpy.random", "np.random")
                ):
                    diags.append(rules.diagnostic(
                        self.rule,
                        f"from {node.module} import inside repro.serve: "
                        "draw through seeded crc32-keyed substreams "
                        "instead",
                        file=context.path, line=node.lineno,
                    ))
                elif node.module in ("numpy", "np") and any(
                    alias.name == "random" for alias in node.names
                ):
                    diags.append(rules.diagnostic(
                        self.rule,
                        "from numpy import random inside repro.serve: "
                        "draw through seeded crc32-keyed substreams "
                        "instead",
                        file=context.path, line=node.lineno,
                    ))
            elif isinstance(node, ast.Attribute) and node not in allowed:
                name = _dotted_name(node)
                if name is None:
                    continue
                if (
                    name.startswith("random.")
                    or name.startswith("np.random.")
                    or name.startswith("numpy.random.")
                    or name in ("np.random", "numpy.random")
                ):
                    diags.append(rules.diagnostic(
                        self.rule,
                        f"{name} inside repro.serve bypasses the keyed-"
                        "substream discipline — use np.random."
                        "default_rng([seed, zlib.crc32(label), "
                        "instance]) or FaultPlan.rng",
                        file=context.path, line=node.lineno,
                    ))
                    # One report per chain (walk is parents-first).
                    chain = node.value
                    while isinstance(chain, ast.Attribute):
                        allowed.add(chain)
                        chain = chain.value
        return diags


#: The shipped rule set, in catalog order.
DEFAULT_RULES: Tuple[LintRule, ...] = (
    DtypeLeakRule(),
    NondeterminismRule(),
    SwallowedExceptionRule(),
    UnboundedRetryRule(),
    DirectPercentileRule(),
    AdhocConfigDumpRule(),
    KernelImplImportRule(),
    DirectHeapqRule(),
    UnkeyedServeRngRule(),
)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<string>",
    lint_rules: Optional[Sequence[LintRule]] = None,
) -> List[Diagnostic]:
    """Lint one module's source text (unit-test entry point)."""
    lint_rules = DEFAULT_RULES if lint_rules is None else tuple(lint_rules)
    source_lines = source.splitlines()
    context = LintContext(
        path=path,
        module_path=Path(path).as_posix(),
        source_lines=source_lines,
        suppressions=_parse_suppressions(source_lines),
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [rules.diagnostic(
            rules.SYNTAX_ERROR,
            f"module does not parse: {exc.msg}",
            file=path, line=exc.lineno or 0,
        )]
    diags: List[Diagnostic] = []
    for lint_rule in lint_rules:
        if not lint_rule.applies_to(context):
            continue
        for diagnostic in lint_rule.check(tree, context):
            line = diagnostic.location.line or 0
            if context.suppressed(diagnostic.rule_id, line):
                continue
            diags.append(diagnostic)
    diags.sort(key=lambda d: (d.location.line or 0, d.rule_id))
    return diags


def lint_file(
    path: Path,
    root: Optional[Path] = None,
    lint_rules: Optional[Sequence[LintRule]] = None,
) -> List[Diagnostic]:
    """Lint one file on disk, reporting paths relative to ``root``."""
    display = str(path)
    if root is not None:
        try:
            display = str(path.relative_to(root))
        except ValueError:
            pass
    return lint_source(
        path.read_text(encoding="utf-8"), path=display, lint_rules=lint_rules
    )


def lint_tree(
    root: Path,
    lint_rules: Optional[Sequence[LintRule]] = None,
) -> List[Diagnostic]:
    """Lint every ``*.py`` file under ``root`` (a package directory)."""
    root = Path(root)
    if root.is_file():
        return lint_file(root, root.parent, lint_rules)
    diags: List[Diagnostic] = []
    # Sort by posix-rendered path: byte-stable across filesystems whose
    # native separators or readdir order differ.
    for path in sorted(root.rglob("*.py"), key=lambda p: p.as_posix()):
        diags.extend(lint_file(path, root.parent, lint_rules))
    return diags
