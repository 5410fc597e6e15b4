"""Statistics collectors: tail latency, throughput, cycle accounting.

These produce exactly the quantities the paper's evaluation reports:
99th-percentile request latency (Figures 7, 10, 11), sustained
throughput in TOp/s (Figures 7, 9, Table 2), and the MMU cycle breakdown
into working / dummy / idle / other (Figure 8).
"""

import math
from typing import Dict, List, Optional, Sequence

import numpy as np


def inf_aware_percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile(values, q)`` that stays deterministic with +inf.

    The fault subsystem's zero-completion convention reports a p99 of
    ``inf``; windows mixing finite latencies with that sentinel hit
    ``np.percentile``'s linear interpolation, which computes
    ``inf - inf = nan``. This helper uses the same linear-interpolation
    rank convention but resolves any interpolation step with an
    infinite endpoint analytically: a rank touching the infinite tail
    with non-zero weight is ``inf``, everything strictly inside the
    finite region matches ``np.percentile`` exactly.
    """
    if len(values) == 0:
        raise ValueError("no samples to take a percentile of")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    samples = np.sort(np.asarray(values, dtype=float))
    if np.isnan(samples).any():
        raise ValueError("samples contain NaN")
    finite_count = int(np.isfinite(samples).sum())
    if finite_count == len(samples):
        return float(np.percentile(samples, q))
    # Non-negative latencies: the infinite tail is all +inf, sorted last.
    position = q / 100.0 * (len(samples) - 1)
    lower = math.floor(position)
    fraction = position - lower
    if lower >= finite_count:
        return math.inf
    if fraction == 0.0:
        return float(samples[lower])
    if lower + 1 >= finite_count:
        return math.inf  # interpolating toward inf with non-zero weight
    low, high = float(samples[lower]), float(samples[lower + 1])
    return low + fraction * (high - low)


class LatencyStats:
    """Collects per-request latency samples and reports percentiles.

    ``+inf`` samples are legal — they are the zero-completion sentinel
    that keeps a failed run from vacuously passing the SLO — and the
    percentile math handles them deterministically (see
    :func:`inf_aware_percentile`). NaN samples are rejected outright.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, latency: float) -> None:
        if math.isnan(latency):
            raise ValueError("NaN latency sample (upstream collector bug)")
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self._samples.append(latency)

    @property
    def count(self) -> int:
        return len(self._samples)

    def samples_since(self, index: int) -> List[float]:
        """Samples recorded at or after position ``index`` (for
        windowed measurements over a live run)."""
        return self._samples[index:]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of recorded latencies."""
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return inf_aware_percentile(self._samples, q)

    def p99(self) -> float:
        """99th-percentile latency, the paper's service-level metric."""
        return self.percentile(99.0)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return float(np.mean(self._samples))

    def max(self) -> float:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return float(np.max(self._samples))

    def metrics(self) -> Dict[str, float]:
        """Deferred-source view for a
        :class:`repro.obs.metrics.MetricsRegistry` (the migration path
        into the observability layer — the recording API is unchanged)."""
        if not self._samples:
            return {"count": 0.0}
        return {
            "count": float(self.count),
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "mean": self.mean(),
            "max": self.max(),
        }


class ThroughputMeter:
    """Integrates useful operations over time to report TOp/s.

    The MMU books every job completion into ``total_ops``,
    ``first_cycle`` and ``last_cycle`` as work retires, from amounts
    that are non-negative by construction; ``top_s`` converts to TOp/s
    given the clock frequency that maps cycles to seconds.
    """

    def __init__(self) -> None:
        self.total_ops = 0.0
        self.first_cycle: Optional[float] = None
        self.last_cycle: Optional[float] = None

    def ops_per_cycle(self, horizon_cycles: float) -> float:
        if horizon_cycles <= 0:
            return 0.0
        return self.total_ops / horizon_cycles

    def top_s(self, horizon_cycles: float, frequency_hz: float) -> float:
        """Sustained throughput in TOp/s over ``horizon_cycles``."""
        return self.ops_per_cycle(horizon_cycles) * frequency_hz / 1e12

    def metrics(self) -> Dict[str, float]:
        """Deferred-source view for a ``MetricsRegistry`` (total ops and
        the active cycle range; rates need a window, so the artifact
        layer computes TOp/s itself)."""
        out = {"total_ops": self.total_ops}
        if self.first_cycle is not None:
            out["first_cycle"] = self.first_cycle
        if self.last_cycle is not None:
            out["last_cycle"] = self.last_cycle
        return out


#: Cycle categories of Figure 8.
CYCLE_CATEGORIES = ("working", "dummy", "idle", "other")


class CycleAccounting:
    """Attributes every MMU cycle to one of Figure 8's categories.

    Busy categories (working / dummy / other) are accumulated by the
    components as they occupy the unit; idle is the remainder of the
    accounting window. ``breakdown`` normalizes to fractions that sum to
    one.

    ``cycles`` holds the busy accumulators. The MMU adds each job's
    amounts into it directly, from inputs checked where they enter.
    """

    def __init__(self) -> None:
        self.cycles: Dict[str, float] = {
            c: 0.0 for c in CYCLE_CATEGORIES if c != "idle"
        }

    def busy_total(self) -> float:
        return sum(self.cycles.values())

    def breakdown(self, window_cycles: float) -> Dict[str, float]:
        """Fractions per category over ``window_cycles`` (sums to 1.0)."""
        if window_cycles <= 0:
            raise ValueError("accounting window must be positive")
        busy = self.busy_total()
        if busy > window_cycles * (1 + 1e-9):
            raise ValueError(
                f"busy cycles {busy} exceed the window {window_cycles}"
            )
        result = {c: self.cycles[c] / window_cycles for c in self.cycles}
        result["idle"] = max(0.0, 1.0 - busy / window_cycles)
        return result

    def busy_cycles(self) -> Dict[str, float]:
        """Raw accumulated busy cycles per category (windowless — what
        delta-based captures over a shared accelerator subtract)."""
        return dict(self.cycles)

    def metrics(self) -> Dict[str, float]:
        """Deferred-source view for a ``MetricsRegistry``."""
        out = {c: self.cycles[c] for c in sorted(self.cycles)}
        out["busy_total"] = self.busy_total()
        return out
