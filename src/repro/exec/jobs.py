"""The pure-job abstraction: ``Job(fn_id, config, seed, code_version)``.

A job is the engine's unit of work and of caching. The contract every
registered job function signs:

* **pure** — the result is a function of ``(config, seed)`` and the
  code identified by ``code_version`` only. No wall clock, no global
  RNG, no reads of mutable process state. (The simulator's own
  determinism guarantees — EQX302 — are what make experiment jobs
  pure.)
* **JSON-able** — the result round-trips through
  :func:`repro.exec.canonical.encode`; anything that does not is a
  ``TypeError`` at execution time, never a corrupt cache entry later.

Functions are addressed by a stable ``fn_id`` resolved through a
registry of dotted import paths, not by pickling callables: worker
processes (including ``spawn``-started ones) import the target module
themselves, and a cache entry written by one process is meaningful to
every other.
"""

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, Optional

from repro.exec.canonical import canonical_json, code_fingerprint, config_digest

__all__ = ["Job", "available_jobs", "register_job", "resolve_job", "run_job"]

#: fn_id -> "module:function". Static so every process (fork or spawn)
#: resolves the same table without import-order games. Third parties
#: extend it via :func:`register_job`.
_REGISTRY: Dict[str, str] = {
    "dse.points": "repro.exec.tasks:dse_points",
    "eval.load_point": "repro.exec.tasks:eval_load_point",
    "chaos.scenario": "repro.exec.tasks:chaos_scenario",
    "serve.fleet_scenario": "repro.exec.tasks:serve_fleet_scenario",
    "exec.probe": "repro.exec.tasks:exec_probe",
}


def register_job(fn_id: str, target: str) -> None:
    """Register ``fn_id`` as ``"package.module:function"``.

    Re-registering an id to a *different* target raises — cache keys
    embed fn_ids, so silently rebinding one would alias two different
    computations under the same key space.
    """
    if ":" not in target:
        raise ValueError(
            f"target must be 'module:function', got {target!r}"
        )
    existing = _REGISTRY.get(fn_id)
    if existing is not None and existing != target:
        raise ValueError(
            f"job id {fn_id!r} already registered to {existing!r}"
        )
    _REGISTRY[fn_id] = target


def available_jobs() -> Dict[str, str]:
    """A copy of the registry (diagnostics, tests)."""
    return dict(_REGISTRY)


def resolve_job(fn_id: str) -> Callable[[Any, int], Any]:
    """Import and return the function behind ``fn_id``."""
    try:
        target = _REGISTRY[fn_id]
    except KeyError:
        raise KeyError(
            f"unknown job id {fn_id!r}; registered: {sorted(_REGISTRY)}"
        ) from None
    module_name, _, attribute = target.partition(":")
    return getattr(import_module(module_name), attribute)


@dataclass(frozen=True, eq=False)
class Job:
    """One hashable, cacheable unit of work.

    Attributes:
        fn_id: Registry id of the job function.
        config: JSON-able parameters (the function's sole input besides
            the seed). Hashing uses the *canonical* serialization, so
            dict key order never matters.
        seed: RNG seed threaded to the function; part of the cache key.
        code_version: Fingerprint of the code the result depends on.
            ``None`` (the default) means "the current source tree" and
            resolves through :func:`code_fingerprint` lazily.
    """

    fn_id: str
    config: Any
    seed: int = 0
    code_version: Optional[str] = field(default=None)

    def resolved_code_version(self) -> str:
        if self.code_version is not None:
            return self.code_version
        return code_fingerprint()

    def key_material(self) -> str:
        """The canonical serialization the cache key is derived from."""
        return canonical_json({
            "fn_id": self.fn_id,
            "config": self.config,
            "seed": self.seed,
            "code_version": self.resolved_code_version(),
        })

    def digest(self) -> str:
        """The content-addressed cache key (sha256 hex)."""
        return config_digest({
            "fn_id": self.fn_id,
            "config": self.config,
            "seed": self.seed,
            "code_version": self.resolved_code_version(),
        })

    def __hash__(self) -> int:
        return hash(self.digest())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Job):
            return NotImplemented
        return self.digest() == other.digest()

    def __repr__(self) -> str:
        return (
            f"Job({self.fn_id!r}, seed={self.seed}, "
            f"key={self.digest()[:12]})"
        )


def run_job(fn_id: str, config: Any, seed: int) -> Any:
    """Execute one job in this process and normalize its result.

    This is the function worker processes run: resolve, call, then
    round-trip the result through the canonical form so serial,
    parallel and cached executions return structurally identical
    values.
    """
    from repro.exec.canonical import decode, encode

    fn = resolve_job(fn_id)
    result = fn(config, seed)
    try:
        return decode(encode(result))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"job {fn_id!r} returned a non-JSON-able result: {exc}"
        ) from exc
