"""Parameter server for synchronous data-parallel training.

Straggler tolerance: a synchronous round normally waits on its slowest
worker (the barrier). With a ``timeout_s``, the server instead closes
the barrier at the timeout and aggregates *partially* over the workers
that made it — the standard backup-worker/partial-aggregation recipe —
so one straggling accelerator cannot stall the whole fleet. The
excluded workers' gradients are simply absent from the round (their
samples don't count either); ``min_workers`` bounds how much loss the
round tolerates before it refuses to proceed.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class SyncRound:
    """Timing of one synchronous round.

    Attributes:
        compute_s: The barrier: the slowest *aggregated* worker's
            iteration time (the round timeout, if any worker was
            excluded by it).
        gather_s: Gradient upload (aggregated workers, shared ingress).
        update_s: Server-side aggregation and optimizer step.
        broadcast_s: Fresh-model download to every surviving worker.
        workers_aggregated: Workers whose gradients made the round.
        workers_dropped: Stragglers excluded by the round timeout.
    """

    compute_s: float
    gather_s: float
    update_s: float
    broadcast_s: float
    workers_aggregated: int = 1
    workers_dropped: int = 0

    @property
    def total_s(self) -> float:
        return self.compute_s + self.gather_s + self.update_s + self.broadcast_s

    @property
    def communication_fraction(self) -> float:
        comm = self.gather_s + self.update_s + self.broadcast_s
        return comm / self.total_s if self.total_s > 0 else 0.0


class ParameterServer:
    """A bandwidth/latency model of the parameter server.

    Gradients arrive over a shared ingress link; the server applies the
    update at a fixed rate per weight and broadcasts the fresh model
    over a shared egress link (workers download concurrently up to the
    egress bandwidth).

    Attributes:
        network_bytes_per_s: Ingress/egress bandwidth (e.g. 100 Gb/s).
        update_ops_per_s: Server-side update throughput in weights/s.
        gradient_bytes_per_weight: Wire format of a gradient (2 for
            bfloat16 aggregation).
        model_bytes_per_weight: Wire format of the broadcast model.
    """

    def __init__(
        self,
        network_bytes_per_s: float = 12.5e9,  # 100 Gb/s
        update_ops_per_s: float = 5e10,
        gradient_bytes_per_weight: float = 2.0,
        model_bytes_per_weight: float = 2.0,
    ):
        if network_bytes_per_s <= 0 or update_ops_per_s <= 0:
            raise ValueError("bandwidths must be positive")
        self.network_bytes_per_s = network_bytes_per_s
        self.update_ops_per_s = update_ops_per_s
        self.gradient_bytes_per_weight = gradient_bytes_per_weight
        self.model_bytes_per_weight = model_bytes_per_weight

    def round(
        self,
        worker_iteration_s: Sequence[float],
        model_weights: int,
        timeout_s: Optional[float] = None,
        min_workers: int = 1,
    ) -> SyncRound:
        """Compose one synchronous round from per-worker iteration
        times and the model size.

        Args:
            worker_iteration_s: Each participating worker's local
                iteration (or accumulated local-steps) time. Must be
                positive and finite — a crashed worker shows up as
                ``inf`` upstream and must be excluded *before* the
                round, not silently averaged into it.
            model_weights: Gradient/model size in weights.
            timeout_s: Barrier timeout; workers slower than this are
                dropped from the round and the survivors aggregate
                partially. ``None`` waits for everyone.
            min_workers: Fewest aggregated workers the round tolerates.
        """
        if not worker_iteration_s:
            raise ValueError(
                "cannot compose a synchronous round with zero workers: "
                "pass at least one worker iteration time"
            )
        for index, iteration in enumerate(worker_iteration_s):
            if not math.isfinite(iteration) or iteration <= 0:
                raise ValueError(
                    f"worker {index} iteration time must be positive and "
                    f"finite, got {iteration!r} — a worker that made no "
                    "training progress (e.g. crashed) must be excluded "
                    "from the round, not aggregated"
                )
        if model_weights < 1:
            raise ValueError(
                f"model must have at least one weight, got {model_weights}"
            )
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")

        if timeout_s is None:
            aggregated = list(worker_iteration_s)
            dropped = 0
        else:
            aggregated = [t for t in worker_iteration_s if t <= timeout_s]
            dropped = len(worker_iteration_s) - len(aggregated)
        if len(aggregated) < min_workers:
            raise ValueError(
                f"round timeout {timeout_s}s leaves "
                f"{len(aggregated)} worker(s), below min_workers="
                f"{min_workers}: the fleet is too degraded to make "
                "training progress"
            )

        workers = len(aggregated)
        # The barrier closes at the timeout when stragglers were left
        # behind (the server waited that long to declare them late).
        compute = max(aggregated) if dropped == 0 else float(timeout_s)
        gather = (
            workers * model_weights * self.gradient_bytes_per_weight
            / self.network_bytes_per_s
        )
        update = model_weights * workers / self.update_ops_per_s
        broadcast = (
            workers * model_weights * self.model_bytes_per_weight
            / self.network_bytes_per_s
        )
        return SyncRound(
            compute_s=compute,
            gather_s=gather,
            update_s=update,
            broadcast_s=broadcast,
            workers_aggregated=workers,
            workers_dropped=dropped,
        )
