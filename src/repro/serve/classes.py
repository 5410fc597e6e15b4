"""SLO service classes and tenant specs for multi-tenant serving.

Equinox's hardware priority scheduler keeps one request context per
installed service (paper §3.2, :mod:`repro.hw.mmu`); the fleet
layer generalizes that to N tenants, each bound to a *service class*
that fixes its latency objective and its slice of every chip's
front-end:

- ``latency-critical`` — interactive inference; tight p99 SLO (the
  paper's 10× service-time objective, :data:`repro.workload.metrics.
  SLO_MULTIPLE`), large fair-share weight, short queue deadline.
- ``best-effort`` — throughput inference; loose SLO, small weight,
  tightly bounded admission queue so a flash crowd sheds rather than
  queues.
- ``batch-training`` — the paper's free-training service; effectively
  unbounded latency tolerance, minimal weight, deep queue.

A :class:`ServiceClass` is *relative* config: budgets are expressed as
multiples of one batch service time and of the batch size, so the same
class calibrates to any chip model. :meth:`ServiceClass.share` and
:meth:`ServiceClass.slo_cycles` turn a class into the absolute
:class:`repro.core.dispatcher.TenantShare` and SLO bound once the chip
is probed.
"""

from dataclasses import asdict, dataclass
from math import ceil
from typing import Any, Dict, Mapping, Optional

from repro.core.dispatcher import TenantShare
from repro.workload.metrics import SLO_MULTIPLE

#: Request-context names a service class maps onto (paper §3.2): the
#: datapath is oblivious to tenancy; only the controller-side context
#: differs, and only training uses the training context.
CONTEXT_INFERENCE = "inference"
CONTEXT_TRAINING = "training"


@dataclass(frozen=True)
class ServiceClass:
    """One SLO tier, in chip-relative units.

    Attributes:
        name: Registry key (``"latency-critical"`` etc.).
        context: Hardware request context this class occupies
            (:data:`CONTEXT_INFERENCE` or :data:`CONTEXT_TRAINING`).
        slo_multiple: p99 latency objective as a multiple of one batch
            service time.
        weight: Fair-share weight for WDRR batch formation.
        queue_depth_batches: Per-tenant admission bound, in batches
            (``ceil(queue_depth_batches * batch_slots)`` requests).
        deadline_multiple: Per-request queue deadline as a multiple of
            one batch service time; ``None`` = requests never time out
            of the queue.
    """

    name: str
    context: str = CONTEXT_INFERENCE
    slo_multiple: float = SLO_MULTIPLE
    weight: float = 1.0
    queue_depth_batches: float = 2.0
    deadline_multiple: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service class name must be non-empty")
        if self.context not in (CONTEXT_INFERENCE, CONTEXT_TRAINING):
            raise ValueError(f"unknown context {self.context!r}")
        if self.slo_multiple <= 0:
            raise ValueError(f"slo_multiple must be positive, got {self.slo_multiple}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.queue_depth_batches <= 0:
            raise ValueError(
                f"queue_depth_batches must be positive, got {self.queue_depth_batches}"
            )
        if self.deadline_multiple is not None and self.deadline_multiple <= 0:
            raise ValueError(
                f"deadline_multiple must be positive, got {self.deadline_multiple}"
            )

    def slo_cycles(self, batch_service_cycles: float) -> float:
        """Absolute p99 objective for a chip with this service time."""
        return self.slo_multiple * batch_service_cycles

    def share(
        self, tenant: str, batch_slots: int, batch_service_cycles: float
    ) -> TenantShare:
        """Calibrate this class into one tenant's dispatcher share."""
        deadline = (
            None
            if self.deadline_multiple is None
            else self.deadline_multiple * batch_service_cycles
        )
        return TenantShare(
            name=tenant,
            weight=self.weight,
            max_queue_requests=ceil(self.queue_depth_batches * batch_slots),
            deadline_cycles=deadline,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceClass":
        return cls(**dict(data))


#: The built-in tiers. Weights 8/2/1: with all three backlogged, a
#: latency-critical tenant takes 8/11 of every batch's slots — enough
#: that its queueing delay stays within one service time even while a
#: best-effort tenant saturates the chip (the starvation regression
#: test pins this).
LATENCY_CRITICAL = ServiceClass(
    name="latency-critical",
    context=CONTEXT_INFERENCE,
    slo_multiple=SLO_MULTIPLE,
    weight=8.0,
    queue_depth_batches=4.0,
    deadline_multiple=6.0,
)

BEST_EFFORT = ServiceClass(
    name="best-effort",
    context=CONTEXT_INFERENCE,
    slo_multiple=8.0 * SLO_MULTIPLE,
    weight=2.0,
    queue_depth_batches=2.0,
    deadline_multiple=None,
)

BATCH_TRAINING = ServiceClass(
    name="batch-training",
    context=CONTEXT_TRAINING,
    slo_multiple=40.0 * SLO_MULTIPLE,
    weight=1.0,
    queue_depth_batches=8.0,
    deadline_multiple=None,
)

_REGISTRY: Dict[str, ServiceClass] = {
    cls.name: cls for cls in (LATENCY_CRITICAL, BEST_EFFORT, BATCH_TRAINING)
}


def service_class(name: str) -> ServiceClass:
    """Look up a registered service class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown service class {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def register_service_class(cls: ServiceClass, replace: bool = False) -> None:
    """Add a custom tier to the registry (``replace`` guards rebinds)."""
    if not replace and cls.name in _REGISTRY:
        raise ValueError(f"service class {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls


def registered_service_classes() -> Dict[str, ServiceClass]:
    """Snapshot of the registry (name → class), insertion-ordered."""
    return dict(_REGISTRY)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the fleet: identity, tier, and offered load.

    Attributes:
        name: Tenant identity; requests carry it end to end.
        service_class: Registered :class:`ServiceClass` name.
        load_fraction: Offered load as a fraction of one chip's
            capacity **per chip** — the tenant's arrival rate scales
            with fleet size, so the RPS-vs-fleet-size curve measures
            scaling at constant per-chip utilization.
    """

    name: str
    service_class: str
    load_fraction: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.load_fraction <= 0:
            raise ValueError(
                f"load_fraction must be positive, got {self.load_fraction}"
            )
        service_class(self.service_class)  # validate eagerly

    @property
    def slo(self) -> ServiceClass:
        return service_class(self.service_class)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpec":
        return cls(**dict(data))
