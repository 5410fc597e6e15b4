"""HBM (off-chip DRAM) interface model.

A single HBM stack with 1 TB/s of bandwidth (paper §4.1). Transfers
serialize on the channel at the configured bytes-per-cycle rate, round
up to 512-bit blocks, and complete a fixed access latency after their
last block — the throughput/latency-limited model the authors verified
against DRAMSim for 512-bit blocks.

The link carries training traffic only: inference weights stay
resident in on-chip SRAM once the service is installed (paper §2.2,
§3.2), so the inference path never touches DRAM, and training's
operand streams, write-backs and parameter syncs share one FIFO
channel in arrival order.

Fault model: with a :class:`repro.faults.injector.FaultInjector`
attached, a completed transfer may carry a transient ECC error and be
retried — the whole block stream re-enters the channel queue, so
retries consume real bandwidth and delay whoever waits on the
transfer. Retries are *bounded* per transfer; an exhausted
budget falls back to the slow host-side correction path (delivered,
counted ``hbm_retry_exhausted``) rather than wedging the pipeline.
"""

from typing import Callable, Dict, Optional

from repro.hw.config import AcceleratorConfig
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthChannel


class HBMInterface:
    """Event-driven model of the DRAM interface."""

    def __init__(self, sim: Simulator, config: AcceleratorConfig):
        self.sim = sim
        self.config = config
        self._channel = BandwidthChannel(
            sim,
            bytes_per_cycle=config.dram_bytes_per_cycle,
            fixed_latency=config.dram_latency_cycles,
            name="hbm",
        )
        self._fault_injector = None
        #: ``_block_align`` memo: transfer size -> block-aligned size.
        self._aligned: Dict[float, float] = {}

    def set_fault_injector(self, injector) -> None:
        """Attach a fault injector sampling transient ECC errors."""
        self._fault_injector = injector

    @property
    def bytes_transferred(self) -> float:
        return self._channel.bytes_transferred

    def _block_align(self, size_bytes: float) -> float:
        # A program streams a few distinct sizes over and over.
        aligned = self._aligned.get(size_bytes)
        if aligned is None:
            block = self.config.dram.block_bytes
            blocks = max(1, -(-int(size_bytes) // block)) if size_bytes > 0 else 0
            aligned = self._aligned[size_bytes] = float(blocks * block)
        return aligned

    def transfer(
        self,
        size_bytes: float,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Move ``size_bytes`` (block-aligned) across the channel."""
        aligned = self._block_align(size_bytes)
        if aligned == 0:
            if on_done is not None:
                self.sim.after_call(0.0, on_done)
            return
        injector = self._fault_injector
        if injector is None or not injector.plan.hbm.enabled:
            self._channel.transfer(aligned, on_done=on_done)
            return

        # Faulty path: each completion may carry a transient ECC error;
        # the stream re-crosses the channel up to the bounded retry
        # budget. Fire-and-forget transfers (write-backs with no
        # on_done) retry too — their bandwidth is just as real.
        attempts = [0]

        def _complete() -> None:
            if injector.hbm_transfer_error():
                if attempts[0] < injector.hbm_max_retries:
                    attempts[0] += 1
                    injector.note_hbm_retry()
                    self._channel.transfer(aligned, on_done=_complete)
                    return
                injector.note_hbm_retry_exhausted()
            if on_done is not None:
                on_done()

        self._channel.transfer(aligned, on_done=_complete)

    def utilization(self, window_cycles: Optional[float] = None) -> float:
        """Fraction of peak bandwidth consumed."""
        return self._channel.utilization(window_cycles)

    def achieved_gb_s(self, window_cycles: Optional[float] = None) -> float:
        """Average achieved bandwidth in GB/s over the window."""
        window = self.sim.now if window_cycles is None else window_cycles
        if window <= 0:
            return 0.0
        bytes_per_cycle = self._channel.bytes_transferred / window
        return bytes_per_cycle * self.config.frequency_hz / 1e9
