"""On-chip buffer capacity: per-service space reserved at install.

Paper §3.1–3.2: the activation and weight buffers are space-shared by
the installed services (inference and training), with allocations fixed
at installation time; training's staging allocation is limited to under
2 % of total SRAM (§2.2). An install that oversubscribes a buffer is
refused with :class:`BufferCapacityError`.

Port traffic is not modelled here: array-facing reads are implied by
MMU occupancy (each bank has a dedicated read port), and DRAM fills are
timed by :mod:`repro.hw.dram`.
"""

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class BufferAllocation:
    """A context's reservation within a buffer."""

    context: str
    bytes: float


class BufferCapacityError(Exception):
    """Raised when an allocation exceeds remaining buffer capacity."""


class OnChipBuffer:
    """A banked SRAM buffer with space-shared capacity.

    Attributes:
        name: Buffer identifier (``activation``, ``weight``...).
        capacity_bytes: Total SRAM capacity of the buffer.
    """

    def __init__(self, name: str, capacity_bytes: float):
        if not capacity_bytes > 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._allocations: Dict[str, float] = {}

    @property
    def allocated_bytes(self) -> float:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, context: str, size_bytes: float) -> BufferAllocation:
        """Reserve ``size_bytes`` for ``context`` (one slice per context)."""
        if context in self._allocations:
            raise ValueError(f"context {context!r} already holds {self.name}")
        if not size_bytes >= 0:
            raise ValueError("allocation size must be non-negative")
        if size_bytes > self.free_bytes + 1e-9:
            holders = ", ".join(
                f"{name}={held:.0f} B" for name, held in self._allocations.items()
            ) or "none"
            raise BufferCapacityError(
                f"{self.name} buffer cannot install context {context!r}: "
                f"requested {size_bytes:.0f} B but only {self.free_bytes:.0f} B "
                f"of {self.capacity_bytes:.0f} B remain "
                f"(existing allocations: {holders}); "
                f"short by {size_bytes - self.free_bytes:.0f} B"
            )
        self._allocations[context] = size_bytes
        return BufferAllocation(context, size_bytes)
