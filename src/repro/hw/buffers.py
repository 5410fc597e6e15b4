"""On-chip buffer models: capacity space-sharing and port contention.

Paper §3.1: the activation and weight buffers are banked; each bank has
a dedicated read port facing the systolic arrays, and a read-write port
shared by the DRAM and host interfaces. Contexts (inference vs training
services) space-share capacity, with allocations fixed at installation
time; training's staging allocation is limited to under 2 % of total
SRAM (§2.2).

Array-facing reads are implied by MMU occupancy (dedicated ports), so
the contention this module models is on the shared DRAM/host port: a
training staging write and a host model upload serialize there.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource


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
        port_bytes_per_cycle: Width of the shared DRAM/host read-write
            port.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity_bytes: float,
        port_bytes_per_cycle: float,
    ):
        if capacity_bytes <= 0 or port_bytes_per_cycle <= 0:
            raise ValueError("capacity and port width must be positive")
        self.sim = sim
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.port_bytes_per_cycle = port_bytes_per_cycle
        self._allocations: Dict[str, float] = {}
        self._shared_port = SerialResource(sim, f"{name}.rw_port")

    # ------------------------------------------------------------------
    # Capacity space-sharing (installation time)
    # ------------------------------------------------------------------

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
        if size_bytes < 0:
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

    def release(self, context: str) -> None:
        """Release a context's reservation (service uninstall)."""
        self._allocations.pop(context, None)

    def allocation_of(self, context: str) -> float:
        return self._allocations.get(context, 0.0)

    # ------------------------------------------------------------------
    # Shared DRAM/host port
    # ------------------------------------------------------------------

    def port_write(
        self,
        size_bytes: float,
        on_done: Optional[Callable[[], None]] = None,
        priority: int = 0,
        tag: str = "fill",
    ) -> None:
        """Serialize a fill/spill through the shared RW port."""
        if size_bytes < 0:
            raise ValueError("negative transfer size")
        duration = size_bytes / self.port_bytes_per_cycle
        self._shared_port.request(
            duration, on_done=on_done, priority=priority, tag=tag
        )

    @property
    def port_queue_depth(self) -> int:
        return self._shared_port.queue_depth

    def port_utilization(self, window_cycles: Optional[float] = None) -> float:
        return self._shared_port.utilization(window_cycles)
