"""Per-service hardware contexts (paper §3.2).

Equinox keeps a dedicated context per installed service: a request
queue, an instruction counter, and exclusive buffer space allocated at
installation time. Contexts are visible only to the controllers; the
datapath is oblivious to service interleaving.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.buffers import OnChipBuffer
from repro.hw.isa import Program


@dataclass
class ServiceContext:
    """State the controllers keep for one installed service.

    Attributes:
        name: ``"inference"`` or ``"training"`` (one of each may be
            installed; the datapath never sees which is which).
        program: The compiled job stream for this service's model.
        weight_allocation_bytes: Weight-buffer slice reserved at
            installation.
        activation_allocation_bytes: Activation-buffer slice reserved
            at installation.
        instructions_issued: The context's instruction counter.
        instructions_completed: Completion counter (the instruction
            completion unit's view).
    """

    name: str
    program: Program
    weight_allocation_bytes: float = 0.0
    activation_allocation_bytes: float = 0.0
    instructions_issued: int = 0
    instructions_completed: int = 0
    _weight_buffer: Optional[OnChipBuffer] = field(default=None, repr=False)
    _activation_buffer: Optional[OnChipBuffer] = field(default=None, repr=False)

    def bind_buffers(
        self,
        weight_buffer: OnChipBuffer,
        activation_buffer: OnChipBuffer,
        weight_bytes: float,
        activation_bytes: float,
    ) -> None:
        """Reserve exclusive buffer space for this service.

        Raises :class:`repro.hw.buffers.BufferCapacityError` when the
        installed services oversubscribe on-chip SRAM.
        """
        weight_buffer.allocate(self.name, weight_bytes)
        activation_buffer.allocate(self.name, activation_bytes)
        self._weight_buffer = weight_buffer
        self._activation_buffer = activation_buffer
        self.weight_allocation_bytes = weight_bytes
        self.activation_allocation_bytes = activation_bytes

    def release_buffers(self) -> None:
        """Uninstall: release the context's reservations."""
        if self._weight_buffer is not None:
            self._weight_buffer.release(self.name)
            self._weight_buffer = None
        if self._activation_buffer is not None:
            self._activation_buffer.release(self.name)
            self._activation_buffer = None
        self.weight_allocation_bytes = 0.0
        self.activation_allocation_bytes = 0.0

    @property
    def instructions_outstanding(self) -> int:
        return self.instructions_issued - self.instructions_completed
