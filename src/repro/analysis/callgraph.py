"""Whole-program call-graph construction over a Python package tree.

This is the foundation the interprocedural passes stand on. Where the
EQX3xx lint sees one file at a time, this module parses *every* module
under a package root into a :class:`ProgramIndex`:

* **module-qualified symbols** — every function and method gets a
  stable qualified name (``repro.exec.tasks.dse_points``,
  ``repro.obs.sketch.QuantileSketch.merge_state``);
* **resolved call edges** — best-effort static resolution of calls
  through per-module import maps, ``self``/``cls`` receivers,
  class-valued locals (``v = ClassName(...)`` then ``v.m()``) and
  instance attributes assigned in ``__init__``. Calls that cannot be
  resolved statically (duck-typed receivers, callables passed as
  values) are recorded as unresolved rather than guessed at — the
  analysis is deliberately under-approximate on edges so its *effect*
  verdicts stay high-precision;
* **registry indirections** — the two dynamic dispatch mechanisms the
  repo relies on are decoded statically: job registries
  (``_REGISTRY = {"fn_id": "module:function"}`` dict literals and
  constant ``register_job(...)`` calls) and kernel pairs
  (``register_kernel(name, ref, fast)`` calls), so the engine's
  ``fn_id → callable`` hop and the dual-backend dispatch do not hide
  entry points from the analysis;
* **direct effect sources and rng traces** — recorded per function by
  :mod:`repro.analysis.effects` during extraction, ready for the
  fixed-point propagation.

The index serializes to a canonical-JSON artifact (schema
:data:`CALLGRAPH_SCHEMA`) keyed by a digest of the analyzed tree — for
the installed ``repro`` package that digest *is*
:func:`repro.exec.canonical.code_fingerprint`, so the cache invalidates
exactly when the exec engine's result cache does. Parsing ~110 modules
costs a few hundred milliseconds; CI runs hit the cached artifact.
"""

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import effects as effects_mod

__all__ = [
    "CALLGRAPH_SCHEMA",
    "FunctionRecord",
    "ModuleRecord",
    "ProgramIndex",
    "build_index",
    "load_or_build_index",
    "tree_digest",
]

#: Schema id embedded in the cached artifact. v2 added per-class facts
#: (def line, resolved attribute/base classes, mutation sites, frozen
#: flag) and checkpoint-root tables for the EQX406 snapshot rule.
CALLGRAPH_SCHEMA = "repro.analysis/callgraph/v3"

#: Qualified decorator names the analyzer recognizes as audit marks.
PURE_DECORATORS = ("repro.analysis.annotations.pure",)
AUDITED_DECORATORS = ("repro.analysis.annotations.audited",)


@dataclass
class FunctionRecord:
    """One analyzed function or method."""

    qualname: str            #: module-qualified name
    module: str              #: owning module
    line: int                #: def line (1-based)
    params: List[str] = field(default_factory=list)
    calls: List[str] = field(default_factory=list)       #: resolved callees
    unresolved: List[str] = field(default_factory=list)  #: unrendered targets
    #: direct effect -> (line, source expression) of first occurrence
    effects: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    #: ordered rng-parameter interactions (EQX402 contract)
    rng_trace: List[str] = field(default_factory=list)
    #: audited effect names; ("*",) for @pure; None = unannotated
    audit: Optional[Tuple[str, ...]] = None

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "line": self.line,
            "params": list(self.params),
            "calls": list(self.calls),
            "unresolved": list(self.unresolved),
            "effects": {
                name: [line, expr]
                for name, (line, expr) in sorted(self.effects.items())
            },
            "rng_trace": list(self.rng_trace),
            "audit": list(self.audit) if self.audit is not None else None,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "FunctionRecord":
        return cls(
            qualname=data["qualname"],
            module=data["module"],
            line=int(data["line"]),
            params=list(data["params"]),
            calls=list(data["calls"]),
            unresolved=list(data["unresolved"]),
            effects={
                name: (int(pair[0]), str(pair[1]))
                for name, pair in data["effects"].items()
            },
            rng_trace=list(data["rng_trace"]),
            audit=tuple(data["audit"]) if data["audit"] is not None else None,
        )


@dataclass
class ModuleRecord:
    """One parsed module's symbol-level facts."""

    name: str                #: dotted module name
    path: str                #: display path (repo-relative when possible)
    functions: List[str] = field(default_factory=list)
    #: class name -> sorted method names
    classes: Dict[str, List[str]] = field(default_factory=dict)
    #: class name -> structural facts for the snapshot-coverage rule:
    #: {"line": def line, "frozen": frozen-dataclass flag,
    #:  "bases": resolved base qualnames (rendered name as fallback),
    #:  "attrs": {attr -> class qualname assigned in __init__},
    #:  "mutations": [[method, attr, line], ...] self-attr writes
    #:  outside __init__ (the evidence the class is stateful)}
    class_info: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: suppressed lines: line -> rule ids (empty list = all rules)
    suppressions: Dict[int, List[str]] = field(default_factory=dict)
    #: job registries found here: fn_id -> "module:function"
    job_registry: Dict[str, str] = field(default_factory=dict)
    #: kernel pairs registered here:
    #: name -> {"reference": qualname, "fast": qualname, "line": int}
    kernel_pairs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: checkpoint roots declared here: root_id -> "module:Class"
    checkpoint_roots: Dict[str, str] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "functions": list(self.functions),
            "classes": {k: list(v) for k, v in sorted(self.classes.items())},
            "class_info": {
                k: dict(v) for k, v in sorted(self.class_info.items())
            },
            "suppressions": {
                str(line): list(ids)
                for line, ids in sorted(self.suppressions.items())
            },
            "job_registry": dict(sorted(self.job_registry.items())),
            "kernel_pairs": {
                k: dict(v) for k, v in sorted(self.kernel_pairs.items())
            },
            "checkpoint_roots": dict(sorted(self.checkpoint_roots.items())),
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ModuleRecord":
        return cls(
            name=data["name"],
            path=data["path"],
            functions=list(data["functions"]),
            classes={k: list(v) for k, v in data["classes"].items()},
            class_info={
                k: dict(v) for k, v in data.get("class_info", {}).items()
            },
            suppressions={
                int(line): list(ids)
                for line, ids in data["suppressions"].items()
            },
            job_registry=dict(data["job_registry"]),
            kernel_pairs={k: dict(v) for k, v in data["kernel_pairs"].items()},
            checkpoint_roots=dict(data.get("checkpoint_roots", {})),
        )


@dataclass
class ProgramIndex:
    """The whole program, indexed: modules, functions, entry points."""

    root: str
    digest: str
    modules: Dict[str, ModuleRecord] = field(default_factory=dict)
    functions: Dict[str, FunctionRecord] = field(default_factory=dict)

    # -- aggregate views ------------------------------------------------

    def job_registry(self) -> Dict[str, str]:
        """All job registries merged: fn_id -> "module:function"."""
        merged: Dict[str, str] = {}
        for module in self.modules.values():
            merged.update(module.job_registry)
        return dict(sorted(merged.items()))

    def kernel_pairs(self) -> Dict[str, Dict[str, Any]]:
        """All kernel pairs merged: name -> {reference, fast, line}."""
        merged: Dict[str, Dict[str, Any]] = {}
        for module in self.modules.values():
            merged.update(module.kernel_pairs)
        return dict(sorted(merged.items()))

    def merge_state_methods(self) -> List[FunctionRecord]:
        """Every ``merge_state`` implementation in the tree."""
        return [
            record for qualname, record in sorted(self.functions.items())
            if qualname.rsplit(".", 1)[-1] == "merge_state"
        ]

    def checkpoint_roots(self) -> Dict[str, str]:
        """All checkpoint-root tables merged: root_id -> "module:Class"."""
        merged: Dict[str, str] = {}
        for module in self.modules.values():
            merged.update(module.checkpoint_roots)
        return dict(sorted(merged.items()))

    def class_info(self, qualname: str) -> Optional[Dict[str, Any]]:
        """Structural facts for a class qualname, if it is in the index."""
        module_name, _, cls_name = qualname.rpartition(".")
        module = self.modules.get(module_name)
        if module is None:
            return None
        return module.class_info.get(cls_name)

    def class_has_method(self, qualname: str, method: str) -> bool:
        """Whether ``qualname`` defines ``method``, walking base classes
        known to the index (MRO approximated breadth-first)."""
        seen: Set[str] = set()
        queue = [qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            module_name, _, cls_name = current.rpartition(".")
            module = self.modules.get(module_name)
            if module is None:
                continue
            if method in module.classes.get(cls_name, []):
                return True
            info = module.class_info.get(cls_name)
            if info is not None:
                queue.extend(info.get("bases", []))
        return False

    def suppressed(self, module: str, line: int, rule_id: str) -> bool:
        record = self.modules.get(module)
        if record is None or line not in record.suppressions:
            return False
        ids = record.suppressions[line]
        return not ids or rule_id in ids

    def resolve_target(self, target: str) -> Optional[FunctionRecord]:
        """Resolve a registry target ``"module:function"`` or a
        qualified name to its function record."""
        qualname = target.replace(":", ".")
        return self.functions.get(qualname)

    def callees(self, qualname: str) -> List[str]:
        record = self.functions.get(qualname)
        return list(record.calls) if record else []

    def edge_count(self) -> int:
        return sum(len(f.calls) for f in self.functions.values())

    # -- (de)serialization ---------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema": CALLGRAPH_SCHEMA,
            "root": self.root,
            "digest": self.digest,
            "modules": {
                name: module.to_jsonable()
                for name, module in sorted(self.modules.items())
            },
            "functions": {
                name: record.to_jsonable()
                for name, record in sorted(self.functions.items())
            },
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ProgramIndex":
        if data.get("schema") != CALLGRAPH_SCHEMA:
            raise ValueError(
                f"unexpected call-graph schema {data.get('schema')!r}; "
                f"expected {CALLGRAPH_SCHEMA}"
            )
        return cls(
            root=data["root"],
            digest=data["digest"],
            modules={
                name: ModuleRecord.from_jsonable(module)
                for name, module in data["modules"].items()
            },
            functions={
                name: FunctionRecord.from_jsonable(record)
                for name, record in data["functions"].items()
            },
        )


# ----------------------------------------------------------------------
# Tree discovery and digesting
# ----------------------------------------------------------------------


def _module_files(root: Path) -> List[Tuple[str, Path]]:
    """``(dotted module name, path)`` for every module under ``root``.

    ``root`` must be a package directory (its name becomes the top
    package). Files walk in sorted posix-relpath order so the index —
    and the artifact digest — is byte-stable across filesystems.
    """
    package = root.name
    out: List[Tuple[str, Path]] = []
    for path in sorted(root.rglob("*.py"), key=lambda p: p.as_posix()):
        relative = path.relative_to(root)
        parts = list(relative.parts)
        parts[-1] = parts[-1][: -len(".py")]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out.append((".".join([package] + parts), path))
    return out


def tree_digest(root: Path) -> str:
    """sha256 over every module's relative path and bytes, sorted.

    For the installed ``repro`` package this matches the construction
    of :func:`repro.exec.canonical.code_fingerprint` (same file walk,
    same separators) — the exec engine's cache key and the call-graph
    artifact key invalidate together.
    """
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.as_posix()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Phase 1: symbol tables
# ----------------------------------------------------------------------


@dataclass
class _ModuleSymbols:
    """Pre-resolution view of one module."""

    name: str
    path: Path
    display: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, ast.AST] = field(default_factory=dict)
    #: class name -> (method name -> def node)
    classes: Dict[str, Dict[str, ast.AST]] = field(default_factory=dict)
    #: class name -> its ClassDef node (line, decorators)
    class_defs: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: class name -> base-class display names (unresolved)
    bases: Dict[str, List[str]] = field(default_factory=dict)
    #: class name -> {attr assigned in __init__ -> class expr rendering}
    attr_types: Dict[str, Dict[str, str]] = field(default_factory=dict)
    source_lines: Sequence[str] = field(default_factory=list)


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


def _collect_symbols(
    name: str, path: Path, display: str, source: str
) -> Optional[_ModuleSymbols]:
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    symbols = _ModuleSymbols(
        name=name, path=path, display=display, tree=tree,
        imports=_collect_imports(tree),
        source_lines=source.splitlines(),
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            methods: Dict[str, ast.AST] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = item
            symbols.classes[node.name] = methods
            symbols.class_defs[node.name] = node
            symbols.bases[node.name] = [
                rendered for rendered in (
                    _render_dotted(base) for base in node.bases
                ) if rendered is not None
            ]
            symbols.attr_types[node.name] = _init_attr_types(methods)
    return symbols


def _render_dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _class_mutations(
    methods: Dict[str, ast.AST],
) -> List[List[Any]]:
    """``self.attr = ...`` / ``self.attr += ...`` writes outside
    ``__init__``: the static evidence a class carries mutable state.

    Returns ``[[method, attr, line], ...]`` — first write per
    ``(method, attr)`` pair, sorted — the witnesses EQX406 quotes.
    Writes inside ``from_state`` are excluded: restoring *is* mutation,
    and counting it would mark every correctly-snapshotable class
    stateful through its own restore path.
    """
    out: Dict[Tuple[str, str], int] = {}
    for method_name, node in methods.items():
        if method_name in ("__init__", "from_state"):
            continue
        for stmt in ast.walk(node):
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    key = (method_name, target.attr)
                    line = getattr(stmt, "lineno", 0)
                    if key not in out or line < out[key]:
                        out[key] = line
    return [
        [method, attr, line]
        for (method, attr), line in sorted(out.items())
    ]


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    """``@dataclass(frozen=True)`` (any import spelling of dataclass)."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        rendered = _render_dotted(decorator.func)
        if rendered is None or rendered.rsplit(".", 1)[-1] != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _init_attr_types(methods: Dict[str, ast.AST]) -> Dict[str, str]:
    """``self.attr = ClassExpr(...)`` assignments in ``__init__``."""
    init = methods.get("__init__")
    if init is None:
        return {}
    out: Dict[str, str] = {}
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        if isinstance(node.value, ast.Call):
            rendered = _render_dotted(node.value.func)
            if rendered is not None:
                out[target.attr] = rendered
    return out


# ----------------------------------------------------------------------
# Phase 2: resolution + extraction
# ----------------------------------------------------------------------


class _Resolver:
    """Resolves rendered dotted names to index qualnames."""

    def __init__(self, symbols_by_module: Dict[str, _ModuleSymbols]):
        self.modules = symbols_by_module
        #: every defined function/method qualname
        self.function_names: Set[str] = set()
        #: class qualname -> _ModuleSymbols owning it
        self.class_owners: Dict[str, str] = {}
        for symbols in symbols_by_module.values():
            for fn_name in symbols.functions:
                self.function_names.add(f"{symbols.name}.{fn_name}")
            for cls_name, methods in symbols.classes.items():
                self.class_owners[f"{symbols.name}.{cls_name}"] = symbols.name
                for method in methods:
                    self.function_names.add(
                        f"{symbols.name}.{cls_name}.{method}"
                    )

    def qualify(self, symbols: _ModuleSymbols, dotted: str) -> Optional[str]:
        """Map a rendered name through the module's import table."""
        head, _, rest = dotted.partition(".")
        if head in symbols.imports:
            base = symbols.imports[head]
            return f"{base}.{rest}" if rest else base
        if head in symbols.functions or head in symbols.classes:
            qualified = f"{symbols.name}.{head}"
            return f"{qualified}.{rest}" if rest else qualified
        return None

    def class_method(self, class_qual: str, method: str) -> Optional[str]:
        """Resolve ``method`` on ``class_qual``, walking base classes."""
        seen: Set[str] = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            owner = self.class_owners.get(current)
            if owner is None:
                continue
            symbols = self.modules[owner]
            cls_name = current.rsplit(".", 1)[-1]
            if method in symbols.classes.get(cls_name, {}):
                return f"{current}.{method}"
            for base in symbols.bases.get(cls_name, []):
                base_qual = self.qualify(symbols, base)
                if base_qual is not None:
                    queue.append(base_qual)
        return None

    def callable_target(
        self, symbols: _ModuleSymbols, dotted: str
    ) -> Optional[str]:
        """A rendered call target -> function qualname, if resolvable.

        Classes resolve to their ``__init__`` (construction runs it);
        modules and unknown names resolve to None.
        """
        qualified = self.qualify(symbols, dotted)
        if qualified is None:
            return None
        if qualified in self.function_names:
            return qualified
        if qualified in self.class_owners:
            init = self.class_method(qualified, "__init__")
            return init
        # `mod.attr` where mod is a module in the index.
        if qualified.rsplit(".", 1)[0] in self.class_owners:
            # ClassName.method (classmethod/staticmethod call form)
            cls, _, method = qualified.rpartition(".")
            return self.class_method(cls, method)
        return None


def _function_params(node: ast.AST) -> List[str]:
    args = node.args  # type: ignore[attr-defined]
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _audit_of(
    node: ast.AST, symbols: _ModuleSymbols, resolver: _Resolver
) -> Optional[Tuple[str, ...]]:
    """Decode ``@pure`` / ``@audited(...)`` decorators statically."""
    for decorator in node.decorator_list:  # type: ignore[attr-defined]
        call_args: List[ast.expr] = []
        target = decorator
        if isinstance(decorator, ast.Call):
            target = decorator.func
            call_args = list(decorator.args)
        rendered = _render_dotted(target)
        if rendered is None:
            continue
        qualified = resolver.qualify(symbols, rendered) or rendered
        if qualified in PURE_DECORATORS:
            return ("*",)
        if qualified in AUDITED_DECORATORS:
            effects = tuple(
                arg.value for arg in call_args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
            return effects or ("*",)
    return None


class _BodyExtractor(ast.NodeVisitor):
    """Walks one function body: calls, local types, rng trace.

    Effect-source detection is delegated to
    :func:`repro.analysis.effects.detect_effects` over the same body so
    the vocabulary lives in one place.
    """

    def __init__(
        self,
        symbols: _ModuleSymbols,
        resolver: _Resolver,
        class_name: Optional[str],
    ):
        self.symbols = symbols
        self.resolver = resolver
        self.class_name = class_name
        self.calls: List[str] = []
        self.unresolved: List[str] = []
        self.rng_trace: List[Tuple[int, int, str]] = []
        #: local var -> rendered class expr (flow-insensitive, first win)
        self.local_types: Dict[str, str] = {}

    # -- local type inference ------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            rendered = _render_dotted(node.value.func)
            if rendered is not None:
                qualified = self.resolver.qualify(self.symbols, rendered)
                if qualified in self.resolver.class_owners:
                    self.local_types.setdefault(
                        node.targets[0].id, rendered
                    )
        self.generic_visit(node)

    # -- call resolution -----------------------------------------------

    #: Builtins whose calls carry no effect edges worth recording; kept
    #: out of the unresolved list so it stays a useful debugging view.
    _BUILTINS = frozenset({
        "abs", "all", "any", "bool", "bytes", "dict", "divmod", "enumerate",
        "float", "format", "frozenset", "getattr", "hasattr", "hash", "int",
        "isinstance", "issubclass", "iter", "len", "list", "map", "max",
        "min", "next", "object", "pow", "print", "range", "repr", "reversed",
        "round", "set", "setattr", "sorted", "str", "sum", "super", "tuple",
        "type", "vars", "zip",
    })

    def _resolve_receiver_class(self, base: str) -> Optional[str]:
        """Class qualname for a call receiver name, if inferable."""
        if base in ("self", "cls") and self.class_name is not None:
            return f"{self.symbols.name}.{self.class_name}"
        if base in self.local_types:
            return self.resolver.qualify(
                self.symbols, self.local_types[base]
            )
        return None

    def visit_Call(self, node: ast.Call) -> None:
        rendered = _render_dotted(node.func)
        resolved: Optional[str] = None
        if rendered is not None:
            head, _, rest = rendered.partition(".")
            receiver = self._resolve_receiver_class(head)
            if receiver is not None and rest:
                # self.m(), cls.m(), typed_local.m(); one attribute hop
                # through instance attrs typed in __init__.
                parts = rest.split(".")
                current: Optional[str] = receiver
                for attr in parts[:-1]:
                    if current is None:
                        break
                    owner = self.resolver.class_owners.get(current)
                    if owner is None:
                        current = None
                        break
                    owner_symbols = self.resolver.modules[owner]
                    cls = current.rsplit(".", 1)[-1]
                    attr_expr = owner_symbols.attr_types.get(cls, {}).get(attr)
                    current = (
                        self.resolver.qualify(owner_symbols, attr_expr)
                        if attr_expr is not None else None
                    )
                if current is not None:
                    resolved = self.resolver.class_method(current, parts[-1])
            if resolved is None and receiver is None:
                resolved = self.resolver.callable_target(
                    self.symbols, rendered
                )
            if resolved is not None:
                self.calls.append(resolved)
            elif rendered not in self._BUILTINS:
                self.unresolved.append(rendered)
            # rng trace: calls on the rng parameter/locals named rng
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "rng"
            ):
                args = ", ".join(
                    ast.unparse(arg) for arg in node.args
                )
                keywords = ", ".join(
                    f"{kw.arg}={ast.unparse(kw.value)}"
                    for kw in node.keywords
                )
                signature = ", ".join(p for p in (args, keywords) if p)
                self.rng_trace.append((
                    node.lineno, node.col_offset,
                    f"rng.{node.func.attr}({signature})",
                ))
        # rng forwarded whole to another callable is part of the stream
        # contract too: a backend that delegates draws must delegate the
        # same way.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name) and arg.id == "rng":
                shown = rendered or "<dynamic>"
                self.rng_trace.append((
                    node.lineno, node.col_offset, f"{shown}(...rng...)",
                ))
        self.generic_visit(node)


def _extract_function(
    qualname: str,
    node: ast.AST,
    symbols: _ModuleSymbols,
    resolver: _Resolver,
    class_name: Optional[str],
) -> FunctionRecord:
    extractor = _BodyExtractor(symbols, resolver, class_name)
    for statement in node.body:  # type: ignore[attr-defined]
        extractor.visit(statement)
    import_table = {
        local: target for local, target in symbols.imports.items()
    }
    detected = effects_mod.detect_effects(node, import_table)
    # De-duplicate call edges preserving order; self-edges are fine
    # (recursion) and harmless to the fixed point.
    seen: Set[str] = set()
    calls = []
    for callee in extractor.calls:
        if callee not in seen:
            seen.add(callee)
            calls.append(callee)
    unresolved = sorted(set(extractor.unresolved))
    return FunctionRecord(
        qualname=qualname,
        module=symbols.name,
        line=node.lineno,  # type: ignore[attr-defined]
        params=_function_params(node),
        calls=calls,
        unresolved=unresolved,
        effects=detected,
        rng_trace=[
            text for _, _, text in sorted(extractor.rng_trace)
        ],
        audit=_audit_of(node, symbols, resolver),
    )


# ----------------------------------------------------------------------
# Registry decoding (the fn_id -> callable and kernel-pair indirections)
# ----------------------------------------------------------------------


def _decode_job_registries(symbols: _ModuleSymbols) -> Dict[str, str]:
    """Dict literals named ``*REGISTRY*`` plus constant
    ``register_job(fn_id, target)`` calls."""
    registry: Dict[str, str] = {}
    for node in ast.walk(symbols.tree):
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and "REGISTRY" in target.id:
                value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if (
                isinstance(node.target, ast.Name)
                and "REGISTRY" in node.target.id
            ):
                value = node.value
        if isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(val, ast.Constant)
                    and isinstance(val.value, str)
                    and ":" in val.value
                ):
                    registry[key.value] = val.value
        if (
            isinstance(node, ast.Call)
            and _render_dotted(node.func) in (
                "register_job", "jobs.register_job",
            )
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[0].value, str)
            and isinstance(node.args[1].value, str)
        ):
            registry[node.args[0].value] = node.args[1].value
    return registry


def _decode_checkpoint_roots(symbols: _ModuleSymbols) -> Dict[str, str]:
    """Literal dicts named ``*CHECKPOINT_ROOTS*``: the root table the
    EQX406 snapshot-coverage rule walks. Same static-decoding contract
    as job registries — keep the table a literal of
    ``root_id: "module:Class"`` entries or the rule goes blind."""
    roots: Dict[str, str] = {}
    for node in ast.walk(symbols.tree):
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and "CHECKPOINT_ROOTS" in target.id:
                value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if (
                isinstance(node.target, ast.Name)
                and "CHECKPOINT_ROOTS" in node.target.id
            ):
                value = node.value
        if isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(val, ast.Constant)
                    and isinstance(val.value, str)
                    and ":" in val.value
                ):
                    roots[key.value] = val.value
    return roots


def _decode_kernel_pairs(
    symbols: _ModuleSymbols, resolver: _Resolver
) -> Dict[str, Dict[str, Any]]:
    """``register_kernel(name, reference, fast, ...)`` call sites."""
    pairs: Dict[str, Dict[str, Any]] = {}
    for node in ast.walk(symbols.tree):
        if not isinstance(node, ast.Call):
            continue
        rendered = _render_dotted(node.func)
        if rendered is None or rendered.rsplit(".", 1)[-1] != (
            "register_kernel"
        ):
            continue
        if len(node.args) < 3:
            continue
        name_arg = node.args[0]
        if not (
            isinstance(name_arg, ast.Constant)
            and isinstance(name_arg.value, str)
        ):
            continue

        def qualify_impl(expr: ast.expr) -> Optional[str]:
            shown = _render_dotted(expr)
            if shown is None:
                return None
            return resolver.qualify(symbols, shown) or shown

        pairs[name_arg.value] = {
            "reference": qualify_impl(node.args[1]),
            "fast": qualify_impl(node.args[2]),
            "line": node.lineno,
        }
    return pairs


# ----------------------------------------------------------------------
# Suppressions (shared comment grammar with the per-file lint)
# ----------------------------------------------------------------------


def _module_suppressions(
    source_lines: Sequence[str],
) -> Dict[int, List[str]]:
    from repro.analysis.codebase_linter import _parse_suppressions

    parsed = _parse_suppressions(source_lines)
    return {
        line: sorted(ids) if ids is not None else []
        for line, ids in parsed.items()
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def build_index(root: Path) -> ProgramIndex:
    """Parse the package tree under ``root`` into a ProgramIndex."""
    root = Path(root).resolve()
    if not root.is_dir():
        raise ValueError(f"whole-program root must be a directory: {root}")
    symbol_tables: Dict[str, _ModuleSymbols] = {}
    for module_name, path in _module_files(root):
        try:
            display = str(path.relative_to(root.parent))
        except ValueError:
            display = str(path)
        symbols = _collect_symbols(
            module_name, path, display, path.read_text(encoding="utf-8")
        )
        if symbols is not None:
            symbol_tables[module_name] = symbols

    resolver = _Resolver(symbol_tables)
    index = ProgramIndex(root=str(root), digest=tree_digest(root))
    for module_name in sorted(symbol_tables):
        symbols = symbol_tables[module_name]
        record = ModuleRecord(
            name=module_name,
            path=symbols.display,
            suppressions=_module_suppressions(symbols.source_lines),
            job_registry=_decode_job_registries(symbols),
            kernel_pairs=_decode_kernel_pairs(symbols, resolver),
            checkpoint_roots=_decode_checkpoint_roots(symbols),
        )
        for fn_name, node in symbols.functions.items():
            qualname = f"{module_name}.{fn_name}"
            index.functions[qualname] = _extract_function(
                qualname, node, symbols, resolver, None
            )
            record.functions.append(qualname)
        for cls_name, methods in symbols.classes.items():
            record.classes[cls_name] = sorted(methods)
            class_def = symbols.class_defs[cls_name]
            attrs: Dict[str, str] = {}
            for attr, expr in sorted(symbols.attr_types[cls_name].items()):
                qualified = resolver.qualify(symbols, expr)
                if qualified in resolver.class_owners:
                    attrs[attr] = qualified
            record.class_info[cls_name] = {
                "line": class_def.lineno,
                "frozen": _is_frozen_dataclass(class_def),
                "bases": sorted(
                    qualified
                    for qualified in (
                        resolver.qualify(symbols, base)
                        for base in symbols.bases[cls_name]
                    )
                    if qualified in resolver.class_owners
                ),
                "attrs": attrs,
                "mutations": _class_mutations(methods),
            }
            for method_name, node in methods.items():
                qualname = f"{module_name}.{cls_name}.{method_name}"
                index.functions[qualname] = _extract_function(
                    qualname, node, symbols, resolver, cls_name
                )
                record.functions.append(qualname)
        record.functions.sort()
        index.modules[module_name] = record
    return index


def _artifact_path(cache_dir: Path, digest: str) -> Path:
    return Path(cache_dir) / f"callgraph_{digest[:16]}.json"


def load_or_build_index(
    root: Path, cache_dir: Optional[Path] = None
) -> Tuple[ProgramIndex, bool]:
    """Build the index, or load the cached artifact when its digest
    matches the tree. Returns ``(index, from_cache)``.

    The artifact is canonical JSON written atomically (temp file +
    rename), mirroring the exec result cache's discipline so a crashed
    writer can never leave a torn artifact behind.
    """
    root = Path(root).resolve()
    if cache_dir is None:
        return build_index(root), False
    cache_dir = Path(cache_dir)
    digest = tree_digest(root)
    path = _artifact_path(cache_dir, digest)
    if path.is_file():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if data.get("digest") == digest:
                return ProgramIndex.from_jsonable(data), True
        except (ValueError, KeyError):
            pass  # corrupt artifact: rebuild and overwrite below
    index = build_index(root)
    from repro.exec.canonical import canonical_json

    cache_dir.mkdir(parents=True, exist_ok=True)
    temp = path.with_suffix(".tmp")
    temp.write_text(canonical_json(index.to_jsonable()), encoding="utf-8")
    temp.replace(path)
    return index, False
