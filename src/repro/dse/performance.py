"""Performance model (paper Eq. 3 plus the service-time estimate).

    T = 2·m·n²·w·f

Latency is estimated, as in the paper, as the service time of a batch
of n requests of the DeepBench LSTM (2048 hidden units, 25 steps): the
serial dependency chain of per-step MMU occupancy, systolic pipeline
drain and the SIMD tail. The closed forms here mirror the tile
compiler's math exactly (asserted by tests) so the sweep stays cheap.
They take numpy arrays as well as scalars: the design-space sweep
evaluates its whole feasible grid in one call.
"""

from typing import TypeVar

import numpy as np

#: The latency-probe workload of §4.1/§5: LSTM(2048 hidden, 25 steps).
LSTM_HIDDEN = 2048
LSTM_STEPS = 25
LSTM_GATES = 4

#: SIMD sizing used when estimating the per-step vector tail; matches
#: :attr:`repro.hw.config.AcceleratorConfig.simd_lanes`.
DEFAULT_SIMD_LANES = 2600
LSTM_SIMD_OPS_PER_HIDDEN = 26  # matches repro.models.lstm

#: A number or a numpy array of them; every formula here is elementwise.
Num = TypeVar("Num", float, np.ndarray)


def peak_throughput_top_s(n: Num, m: Num, w: Num, frequency_hz: Num) -> Num:
    """Eq. 3 in TOp/s."""
    if np.any((n < 1) | (m < 1) | (w < 1) | (frequency_hz <= 0)):
        raise ValueError("dimensions and frequency must be positive")
    return 2.0 * m * n * n * w * frequency_hz / 1e12


def lstm_step_occupancy_cycles(n: Num, m: Num, w: Num) -> Num:
    """MMU issue cycles of one LSTM step at batch = n.

    One row pass (n cycles) per K-tile per column group — the Figure 4
    tiling with tile_k = n·w and column group m·n.
    """
    k_tiles = np.ceil(LSTM_HIDDEN / (n * w))
    col_groups = np.ceil(LSTM_GATES * LSTM_HIDDEN / (m * n))
    return k_tiles * col_groups * n


def service_time_cycles(
    n: Num, m: Num, w: Num, simd_lanes: int = DEFAULT_SIMD_LANES
) -> Num:
    """Unloaded batch service time in cycles on the probe LSTM.

    Per step: occupancy + pipeline drain (n·w + 2n, the fill of the
    reduction plus the array skew) + the SIMD tail (the last output
    chunk's gate math, the only vector work on the dependency chain).
    """
    occupancy = lstm_step_occupancy_cycles(n, m, w)
    drain = n * w + 2 * n
    col_groups = np.ceil(LSTM_GATES * LSTM_HIDDEN / (m * n))
    simd_total = n * LSTM_SIMD_OPS_PER_HIDDEN * LSTM_HIDDEN / simd_lanes
    simd_tail = simd_total / col_groups
    return LSTM_STEPS * (occupancy + drain + simd_tail)


def service_time_us(
    n: Num, m: Num, w: Num, frequency_hz: Num,
    simd_lanes: int = DEFAULT_SIMD_LANES,
) -> Num:
    """Unloaded batch service time in microseconds."""
    return service_time_cycles(n, m, w, simd_lanes) / frequency_hz * 1e6


def lstm_step_utilization(n: Num, m: Num, w: Num) -> Num:
    """Fraction of streamed MACs landing on real LSTM matrix elements."""
    occupancy = lstm_step_occupancy_cycles(n, m, w)
    capacity = occupancy * m * n * n * w
    real = n * LSTM_HIDDEN * (LSTM_GATES * LSTM_HIDDEN)
    return real / capacity
