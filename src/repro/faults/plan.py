"""Declarative fault specifications and the seeded :class:`FaultPlan`.

A plan is pure data: per-component fault specs plus one seed. Runtime
sampling happens in :class:`repro.faults.injector.FaultInjector`, which
derives an *independent, deterministic* RNG stream per component from
the plan's seed — two runs of the same plan draw identical fault
sequences, and adding a fault model to one component never perturbs the
draws of another.
"""

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

import numpy as np


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class HBMFaultSpec:
    """Transient ECC errors on the HBM channel.

    Attributes:
        error_rate: Per-transfer probability that the transfer completes
            with an uncorrectable-on-the-fly ECC error and must be
            retried (the whole block stream re-crosses the channel).
        max_retries: Bounded retry budget per transfer. A transfer whose
            budget is exhausted is delivered through the slow host-side
            correction path and counted ``hbm_retry_exhausted``.
    """

    error_rate: float = 0.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        _check_rate("error_rate", self.error_rate)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def enabled(self) -> bool:
        return self.error_rate > 0.0


@dataclass(frozen=True)
class MMUFaultSpec:
    """Tile/PE stall faults in the systolic arrays.

    A stalled job occupies the MMU for ``stall_cycles`` extra cycles
    (clock-gated PE column, ECC scrub of a weight tile, ...); the extra
    occupancy is attributed to Figure 8's "other" category.
    """

    stall_rate: float = 0.0
    stall_cycles: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("stall_rate", self.stall_rate)
        if self.stall_cycles < 0:
            raise ValueError(f"stall_cycles must be >= 0, got {self.stall_cycles}")

    @property
    def enabled(self) -> bool:
        return self.stall_rate > 0.0 and self.stall_cycles > 0.0


@dataclass(frozen=True)
class RequestFaultSpec:
    """Front-end network faults: dropped and delayed inference requests.

    Attributes:
        drop_rate: Per-request probability the request is lost before it
            reaches the dispatcher (it never arrives).
        delay_rate: Per-request probability the request is delayed by
            ``delay_cycles`` on the wire (it — and the stream behind it —
            reaches the queue late).
        delay_cycles: Added network delay for a delayed request.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_cycles: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("drop_rate", self.drop_rate)
        _check_rate("delay_rate", self.delay_rate)
        if self.delay_cycles < 0:
            raise ValueError(f"delay_cycles must be >= 0, got {self.delay_cycles}")
        if self.drop_rate >= 1.0:
            raise ValueError("drop_rate must be < 1 or no request ever arrives")

    @property
    def enabled(self) -> bool:
        return self.drop_rate > 0.0 or (
            self.delay_rate > 0.0 and self.delay_cycles > 0.0
        )


@dataclass(frozen=True)
class WorkerFaultSpec:
    """Fleet-level faults: crashed workers and stragglers.

    Attributes:
        crashed: Worker ids that crash during the round (their
            measurement aborts with
            :class:`repro.faults.injector.WorkerCrashError`).
        stragglers: ``(worker_id, slowdown_factor)`` pairs; a straggler's
            iteration time is multiplied by its factor (> 1).
    """

    crashed: Tuple[int, ...] = ()
    stragglers: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        for worker_id, factor in self.stragglers:
            if factor <= 1.0:
                raise ValueError(
                    f"straggler slowdown for worker {worker_id} must be "
                    f"> 1, got {factor}"
                )
        overlap = set(self.crashed) & {w for w, _ in self.stragglers}
        if overlap:
            raise ValueError(
                f"workers {sorted(overlap)} cannot both crash and straggle"
            )

    @property
    def enabled(self) -> bool:
        return bool(self.crashed) or bool(self.stragglers)

    def is_crashed(self, worker_id: int) -> bool:
        return worker_id in self.crashed

    def slowdown_for(self, worker_id: int) -> float:
        for wid, factor in self.stragglers:
            if wid == worker_id:
                return factor
        return 1.0


@dataclass(frozen=True)
class FaultPlan:
    """One seeded, declarative chaos scenario.

    The plan is the unit of reproducibility: every injected fault in a
    run derives from ``seed`` through per-component substreams, so a
    report produced under a plan can be regenerated exactly.
    """

    seed: int = 0
    hbm: HBMFaultSpec = field(default_factory=HBMFaultSpec)
    mmu: MMUFaultSpec = field(default_factory=MMUFaultSpec)
    requests: RequestFaultSpec = field(default_factory=RequestFaultSpec)
    workers: WorkerFaultSpec = field(default_factory=WorkerFaultSpec)

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """A plan injecting nothing (the control arm of a chaos matrix)."""
        return cls(seed=seed)

    @property
    def enabled(self) -> bool:
        return (
            self.hbm.enabled
            or self.mmu.enabled
            or self.requests.enabled
            or self.workers.enabled
        )

    def rng(self, component: str, instance: int = 0) -> np.random.Generator:
        """An independent deterministic stream for one component.

        The stream is keyed on ``(seed, crc32(component), instance)``:
        stable across runs and platforms, decorrelated across
        components and instances (e.g. per-worker streams).
        """
        key = zlib.crc32(component.encode("utf-8"))
        return np.random.default_rng([self.seed, key, instance])

    def to_dict(self) -> Dict[str, Any]:
        """The plan as plain JSON-able data (tuples become lists).

        Round-trips through :meth:`from_dict`; this is how a plan rides
        inside a :class:`repro.exec.jobs.Job` config or a report artifact.
        """
        return {
            "seed": self.seed,
            "hbm": {
                "error_rate": self.hbm.error_rate,
                "max_retries": self.hbm.max_retries,
            },
            "mmu": {
                "stall_rate": self.mmu.stall_rate,
                "stall_cycles": self.mmu.stall_cycles,
            },
            "requests": {
                "drop_rate": self.requests.drop_rate,
                "delay_rate": self.requests.delay_rate,
                "delay_cycles": self.requests.delay_cycles,
            },
            "workers": {
                "crashed": list(self.workers.crashed),
                "stragglers": [
                    [wid, factor] for wid, factor in self.workers.stragglers
                ],
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (all validation in
        the spec constructors re-runs)."""
        workers = data.get("workers", {})
        return cls(
            seed=int(data.get("seed", 0)),
            hbm=HBMFaultSpec(**data.get("hbm", {})),
            mmu=MMUFaultSpec(**data.get("mmu", {})),
            requests=RequestFaultSpec(**data.get("requests", {})),
            workers=WorkerFaultSpec(
                crashed=tuple(int(w) for w in workers.get("crashed", ())),
                stragglers=tuple(
                    (int(wid), float(factor))
                    for wid, factor in workers.get("stragglers", ())
                ),
            ),
        )
