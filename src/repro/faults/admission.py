"""Admission control for the inference request queue.

Overload is the one fault no retry fixes: when offered load exceeds
capacity the formation buffer grows without bound and every request's
latency diverges. :class:`AdmissionControl` bounds the damage with the
two standard levers — a bounded admission queue that *sheds* arrivals
once full (counted, never silently), and a per-request deadline after
which a still-queued request is either re-admitted with exponential
backoff (bounded retries) or abandoned as timed out.

The dispatcher (:class:`repro.core.dispatcher.RequestDispatcher`)
consumes this; a ``None`` admission control reproduces the historical
unbounded behaviour exactly.
"""

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True)
class AdmissionControl:
    """Dispatcher-side overload and timeout policy.

    Attributes:
        max_queue_requests: Formation-buffer capacity; an arrival that
            finds the buffer full is shed (``rejected_requests``).
            ``None`` = unbounded.
        deadline_cycles: Maximum time a request may sit in the formation
            buffer before timing out. ``None`` = no timeout.
        max_retries: Re-admissions granted to a deadline-expired request
            before it is abandoned.
        backoff_cycles: Base re-admission delay; retry *k* waits
            ``backoff_cycles * 2**k`` (bounded exponential backoff).
    """

    max_queue_requests: Optional[int] = None
    deadline_cycles: Optional[float] = None
    max_retries: int = 0
    backoff_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.max_queue_requests is not None and self.max_queue_requests < 1:
            raise ValueError(
                f"max_queue_requests must be >= 1, got {self.max_queue_requests}"
            )
        if self.deadline_cycles is not None and self.deadline_cycles <= 0:
            raise ValueError(
                f"deadline_cycles must be positive, got {self.deadline_cycles}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_cycles < 0:
            raise ValueError(
                f"backoff_cycles must be >= 0, got {self.backoff_cycles}"
            )
        if self.max_retries > 0 and self.deadline_cycles is None:
            raise ValueError("retries require a deadline to expire from")

    @property
    def bounds_queue(self) -> bool:
        return self.max_queue_requests is not None

    @property
    def has_deadline(self) -> bool:
        return self.deadline_cycles is not None

    def retry_delay(self, attempt: int) -> float:
        """Backoff before re-admission number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.backoff_cycles * (2.0 ** (attempt - 1))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, round-tripping through :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdmissionControl":
        """Rebuild a policy from :meth:`to_dict` output (validation in
        ``__post_init__`` re-runs)."""
        return cls(**dict(data))
