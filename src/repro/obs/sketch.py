"""Bounded-memory streaming quantile sketch.

A DDSketch-style log-bucketed histogram: values map to geometric
buckets ``(gamma**(i-1), gamma**i]`` with ``gamma`` chosen from the
requested relative accuracy ``a`` as ``gamma = (1+a)/(1-a)``. The
mid-point estimate of a bucket is then within a factor ``1±a`` of every
value the bucket holds, so any quantile estimate carries a guaranteed
relative error ≤ ``a`` — while memory stays bounded by the number of
occupied buckets (capped: the lowest buckets collapse first, which
only ever degrades the accuracy of the *smallest* values).

Latency tails are exactly what this trades well for: p50/p99/p999 of
millions of samples in a few hundred integers, with a deterministic
answer — no sampling, no randomness, and ``+inf`` (the zero-completion
sentinel of :meth:`repro.core.equinox.EquinoxAccelerator._report`)
counted in its own bucket rather than poisoning interpolation.
"""

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["QuantileSketch"]


def _grow_expansion(partials: List[float], x: float) -> None:
    """Add ``x`` into a Shewchuk expansion of non-overlapping partials.

    The expansion represents the *exact* real sum of every term ever
    added (each two-sum step is error-free), so two sketches that
    observed the same multiset of samples carry the same exact sum no
    matter how the observations were grouped or merged — the property
    that keeps a ``--jobs`` run's merged capture byte-identical to the
    serial one. Same algorithm as ``math.fsum``, kept incremental.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def check_sample(value: float) -> float:
    """``value`` as a float, or ``ValueError`` for NaN and negatives (a
    NaN sample is always an upstream bug)."""
    value = float(value)
    if math.isnan(value):
        raise ValueError("cannot observe NaN")
    if value < 0:
        raise ValueError(f"cannot observe negative value {value}")
    return value


#: Default guaranteed relative accuracy of quantile estimates.
DEFAULT_RELATIVE_ACCURACY = 0.005

#: Default cap on occupied buckets (the lowest collapse first). At the
#: default accuracy one bucket spans a ~1% value ratio, so 4096 buckets
#: cover ~17 orders of magnitude — far beyond any latency range here.
DEFAULT_MAX_BUCKETS = 4096


class QuantileSketch:
    """Streaming quantile estimator over non-negative samples.

    Args:
        relative_accuracy: Guaranteed bound on the relative error of
            :meth:`quantile` for finite positive samples.
        max_buckets: Memory bound; lowest buckets collapse upward when
            exceeded.
    """

    __slots__ = (
        "relative_accuracy", "max_buckets", "_gamma", "_log_gamma",
        "_buckets", "_zero_count", "_inf_count", "_count", "_partials",
        "_min", "_max",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ):
        if not 0 < relative_accuracy < 1:
            raise ValueError(
                f"relative accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if max_buckets < 2:
            raise ValueError(f"need at least 2 buckets, got {max_buckets}")
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._inf_count = 0
        self._count = 0
        #: Exact running sum as a Shewchuk expansion (finite terms only;
        #: infinities are tracked by ``_inf_count``). Exactness makes
        #: ``sum`` independent of observation grouping and merge order.
        self._partials: List[float] = []
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times). Accepts ``+inf``; rejects
        negatives and NaN (a NaN sample is always an upstream bug)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.ingest_checked(((check_sample(value), count),))

    def observe_many(self, values: Iterable[float]) -> None:
        """Record each of ``values`` once, in order; every value is
        checked before any is recorded."""
        self.ingest_checked([(check_sample(value), 1) for value in values])

    def ingest_checked(self, pairs: Iterable[Tuple[float, int]]) -> None:
        """Record ``(value, count)`` pairs in order: the one ingest loop
        behind :meth:`observe`, :meth:`observe_many` and the buffer fold
        of :class:`repro.obs.metrics.Histogram`.

        Each value must already be a float that passed
        :func:`check_sample` and each count must be >= 1; nothing is
        re-checked here.
        """
        buckets = self._buckets
        partials = self._partials
        log_gamma = self._log_gamma
        max_buckets = self.max_buckets
        total = self._count
        lowest, highest = self._min, self._max
        try:
            for value, count in pairs:
                total += count
                if lowest is None:
                    lowest = highest = value
                elif value < lowest:
                    lowest = value
                elif value > highest:
                    highest = value
                if value == math.inf:
                    self._inf_count += count
                    continue
                if count == 1:
                    _grow_expansion(partials, value)
                else:
                    # ``value * count`` would round; one ``value * 2**k``
                    # term per set bit ``k`` of ``count`` is exact, so the
                    # expansion equals that of ``count`` single
                    # observations.
                    bits, k = count, 0
                    while bits:
                        if bits & 1:
                            _grow_expansion(partials, math.ldexp(value, k))
                        bits >>= 1
                        k += 1
                if value == 0.0:
                    self._zero_count += count
                    continue
                index = math.ceil(math.log(value) / log_gamma)
                buckets[index] = buckets.get(index, 0) + count
                if len(buckets) > max_buckets:
                    self._collapse_lowest()
        finally:
            self._count = total
            self._min, self._max = lowest, highest

    def merge(self, other: "QuantileSketch") -> None:
        """Accumulate another sketch (bucket layouts must match)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._zero_count += other._zero_count
        self._inf_count += other._inf_count
        self._count += other._count
        # Folding the other expansion term-by-term keeps the merged sum
        # exact, so merging per-job sketches in any grouping equals
        # the serial cumulative sketch bit-for-bit.
        for partial in other._partials:
            _grow_expansion(self._partials, partial)
        for bound in (other._min, other._max):
            if bound is not None:
                self._min = bound if self._min is None else min(self._min, bound)
                self._max = bound if self._max is None else max(self._max, bound)
        while len(self._buckets) > self.max_buckets:
            self._collapse_lowest()

    def _collapse_lowest(self) -> None:
        """Fold the lowest bucket into its neighbour (bounded memory).

        Collapsing does not depend on observation order: the buckets
        always hold the ``max_buckets - 1`` highest indices seen with
        their own counts, and the next highest with every lower count.
        """
        lowest, second = sorted(self._buckets)[:2]
        self._buckets[second] += self._buckets.pop(lowest)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def inf_count(self) -> int:
        return self._inf_count

    @property
    def sum(self) -> float:
        if self._inf_count:
            return math.inf
        return math.fsum(self._partials)

    @property
    def min(self) -> float:
        if self._min is None:
            raise ValueError("no samples observed")
        return self._min

    @property
    def max(self) -> float:
        if self._max is None:
            raise ValueError("no samples observed")
        return self._max

    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no samples observed")
        return self.sum / self._count

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (0-100), nearest-rank over buckets.

        Finite positive samples come back within ``relative_accuracy``
        of the exact order statistic; a rank landing in the ``+inf``
        tail returns ``inf`` deterministically.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            raise ValueError("no samples observed")
        rank = max(1, math.ceil(q / 100.0 * self._count))
        if rank <= self._zero_count:
            return 0.0
        seen = self._zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                # Mid-point estimate of (gamma**(i-1), gamma**i].
                return 2.0 * self._gamma ** index / (self._gamma + 1.0)
        return math.inf  # rank lands in the infinite tail

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Full, lossless, JSON-able dump of the sketch.

        Unlike :meth:`to_dict` (a summary for artifacts), the state
        carries every bucket, so ``from_state`` reconstructs a sketch
        that answers every query identically. This is how parallel
        workers ship their latency observations back to the parent
        process for deterministic merging.
        """
        return {
            "relative_accuracy": self.relative_accuracy,
            "max_buckets": self.max_buckets,
            "buckets": {
                str(index): self._buckets[index]
                for index in sorted(self._buckets)
            },
            "zero_count": self._zero_count,
            "inf_count": self._inf_count,
            "count": self._count,
            "sum": self.sum,
            # The exact expansion itself: "sum" above is the rounded
            # summary, the partials are what merge losslessly.
            "partials": list(self._partials),
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "QuantileSketch":
        """Inverse of :meth:`to_state`."""
        sketch = cls(
            relative_accuracy=float(state["relative_accuracy"]),  # type: ignore[arg-type]
            max_buckets=int(state["max_buckets"]),  # type: ignore[arg-type]
        )
        sketch._buckets = {
            int(index): int(count)
            for index, count in state["buckets"].items()  # type: ignore[union-attr]
        }
        sketch._zero_count = int(state["zero_count"])  # type: ignore[arg-type]
        sketch._inf_count = int(state["inf_count"])  # type: ignore[arg-type]
        sketch._count = int(state["count"])  # type: ignore[arg-type]
        partials = state.get("partials")
        if partials is None:
            # Pre-partials snapshot: the rounded sum is the best
            # expansion available (exact for any sum that fits one
            # float, which covers every such legacy artifact in-repo).
            total = float(state["sum"])  # type: ignore[arg-type]
            partials = [total] if math.isfinite(total) and total else []
        sketch._partials = [float(p) for p in partials]
        for bound in ("min", "max"):
            value = state[bound]
            setattr(
                sketch, f"_{bound}",
                None if value is None else float(value),  # type: ignore[arg-type]
            )
        return sketch

    def merge_state(self, state: Dict[str, object]) -> None:
        """Merge a :meth:`to_state` dump (worker → parent hand-off)."""
        self.merge(QuantileSketch.from_state(state))

    def to_dict(self) -> Dict[str, float]:
        """Deterministic summary (embedded in run artifacts)."""
        out: Dict[str, float] = {"count": float(self._count)}
        if self._count == 0:
            return out
        out.update(
            sum=self.sum,
            min=self.min,
            max=self.max,
            mean=self.mean(),
            p50=self.quantile(50.0),
            p99=self.quantile(99.0),
            p999=self.quantile(99.9),
        )
        if self._inf_count:
            out["inf_count"] = float(self._inf_count)
        return out
