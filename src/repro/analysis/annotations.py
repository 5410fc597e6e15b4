"""Audit annotations for the whole-program analyzer.

The interprocedural effect analysis (:mod:`repro.analysis.effects`)
propagates nondeterminism and I/O effects through the call graph; some
effects are *deliberate* — the scheduler probe sleeps and crashes
workers on purpose, the kill-switch drill SIGKILLs its own process, a
memo keys its slots by ``id()``. Blanket suppression comments would hide
future regressions in the same function, so the escape hatch is
declarative and effect-scoped instead:

* ``@pure`` — the function has been audited end to end and exports **no
  effects**, whatever its body or callees look like. Use sparingly;
  this silences every effect, present and future.
* ``@audited("wall_clock", reason="...")`` — the named effects are
  audited and do not propagate to callers; any *other* effect the
  function acquires later still does. ``reason`` is mandatory
  documentation: an audit without a rationale is indistinguishable from
  a silenced bug.

Both decorators are runtime no-ops (they only tag the function with
``__eqx_audit__`` for introspection); the analyzer recognizes them
**statically**, by resolving the decorator's imported name to this
module — so annotated code pays nothing at call time and the analyzer
never has to import the code under analysis.

This module must stay import-free of the rest of ``repro``: audited
modules live across the package, and the annotation import must never
create a cycle.

Effect names are validated against :data:`KNOWN_EFFECTS` (mirrored by
``repro.analysis.effects.EFFECTS``) so a typo like ``"wallclock"``
fails at import time instead of silently auditing nothing.
"""

from typing import Callable, FrozenSet, Optional, Tuple, TypeVar

__all__ = ["KNOWN_EFFECTS", "PURE_MARKER", "audited", "audit_of", "pure"]

#: The effect vocabulary of the analyzer's lattice. Kept as plain
#: strings (not an enum) so this module needs no imports and the
#: analyzer can match decorator arguments syntactically.
KNOWN_EFFECTS: FrozenSet[str] = frozenset({
    "wall_clock",     # time.time/perf_counter/sleep, datetime.now, ...
    "unseeded_rng",   # global RNG state, default_rng(), uuid4, urandom
    "env_read",       # os.environ / os.getenv
    "id_value",       # id() — CPython address, differs across runs
    "thread",         # threading / multiprocessing / futures
    "set_order",      # iterating a set (str-hash randomized order)
    "fs_order",       # unsorted listdir/glob/rglob directory order
    "io",             # open(), Path read/write, tempfile
    "process",        # os._exit / kill / fork, subprocess
})

#: Sentinel stored for ``@pure`` (audits *every* effect).
PURE_MARKER = "*"

F = TypeVar("F", bound=Callable)


def pure(fn: F) -> F:
    """Mark ``fn`` audited effect-free (exports nothing to callers)."""
    fn.__eqx_audit__ = (PURE_MARKER,)  # type: ignore[attr-defined]
    return fn


def audited(*effects: str, reason: str) -> Callable[[F], F]:
    """Mark the named ``effects`` of the decorated function as audited.

    The function still *has* the effects — they simply stop propagating
    to callers in the whole-program analysis, because a human has
    vouched for them (``reason``). Unknown effect names and empty
    audits raise immediately.
    """
    if not effects:
        raise ValueError("audited() needs at least one effect name")
    unknown = sorted(set(effects) - KNOWN_EFFECTS)
    if unknown:
        raise ValueError(
            f"unknown effect(s) {unknown}; choose from "
            f"{sorted(KNOWN_EFFECTS)}"
        )
    if not reason or not reason.strip():
        raise ValueError("audited() requires a non-empty reason")

    def decorate(fn: F) -> F:
        fn.__eqx_audit__ = tuple(effects)  # type: ignore[attr-defined]
        return fn

    return decorate


def audit_of(fn: Callable) -> Optional[Tuple[str, ...]]:
    """The runtime audit tag, if any (introspection/tests)."""
    return getattr(fn, "__eqx_audit__", None)
