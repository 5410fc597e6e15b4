"""Canned load profiles for the examples.

DNN inference accelerators average around 30 % load because of service
demand variability (paper §1, citing warehouse-scale studies): diurnal
swings plus short spikes. These helpers produce load-fraction profiles
the examples replay to show how much training Equinox harvests across a
day and how the spike guard protects latency.
"""

from typing import List

import numpy as np


def diurnal_load_profile(
    points: int = 24,
    low: float = 0.1,
    high: float = 0.7,
    peak_hour: float = 14.0,
) -> List[float]:
    """A sinusoidal day: load fraction per hour-of-day bucket.

    Args:
        points: Number of buckets across the day.
        low: Trough load fraction.
        high: Peak load fraction.
        peak_hour: Hour (0-24) at which the peak lands.
    """
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError("need 0 <= low <= high <= 1")
    if points < 1:
        raise ValueError("need at least one bucket")
    hours = np.arange(points) * 24.0 / points
    phase = (hours - peak_hour) / 24.0 * 2.0 * np.pi
    wave = 0.5 * (1.0 + np.cos(phase))
    return [float(low + (high - low) * v) for v in wave]


def spike_load_profile(
    points: int = 40,
    base: float = 0.3,
    spike: float = 0.95,
    spike_start: int = 15,
    spike_len: int = 5,
) -> List[float]:
    """A flat load with one rectangular spike — the scenario the spike
    guard (priority scheduler threshold) exists for."""
    if not (0.0 <= base <= 1.0 and 0.0 <= spike <= 1.0):
        raise ValueError("load fractions must be in [0, 1]")
    if spike_start < 0 or spike_len < 0 or spike_start + spike_len > points:
        raise ValueError("spike window must fit in the profile")
    profile = [base] * points
    for i in range(spike_start, spike_start + spike_len):
        profile[i] = spike
    return profile
