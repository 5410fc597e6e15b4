"""Load profiles and SLO helpers."""

import pytest

from repro.workload.metrics import latency_target_cycles, offered_rate
from repro.workload.scenarios import diurnal_load_profile, spike_load_profile


class TestDiurnal:
    def test_bounds(self):
        profile = diurnal_load_profile(points=24, low=0.1, high=0.7)
        assert min(profile) == pytest.approx(0.1, abs=0.02)
        assert max(profile) == pytest.approx(0.7, abs=0.02)

    def test_peak_location(self):
        profile = diurnal_load_profile(points=24, peak_hour=14.0)
        assert profile.index(max(profile)) == 14

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            diurnal_load_profile(low=0.8, high=0.2)

    def test_average_load_is_moderate(self):
        """The profile reproduces the ~30-40% average utilization the
        paper motivates with."""
        profile = diurnal_load_profile(points=48, low=0.1, high=0.7)
        assert 0.3 <= sum(profile) / len(profile) <= 0.5


class TestSpike:
    def test_spike_window(self):
        profile = spike_load_profile(points=10, base=0.3, spike=0.9,
                                     spike_start=4, spike_len=2)
        assert profile[3] == 0.3
        assert profile[4] == profile[5] == 0.9
        assert profile[6] == 0.3

    def test_rejects_overflowing_spike(self):
        with pytest.raises(ValueError):
            spike_load_profile(points=10, spike_start=8, spike_len=5)

    @pytest.mark.parametrize(
        "loads",
        [dict(spike=1.5), dict(base=-0.5, spike=2.0), dict(base=1.2)],
        ids=["spike-above-one", "both-out-of-range", "base-above-one"],
    )
    def test_rejects_out_of_range_loads(self, loads):
        with pytest.raises(ValueError, match="load fractions"):
            spike_load_profile(**loads)


    @pytest.mark.parametrize(
        "base, spike", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0)]
    )
    def test_accepts_boundary_loads(self, base, spike):
        profile = spike_load_profile(points=4, base=base, spike=spike,
                                     spike_start=1, spike_len=2)
        assert profile == [base, spike, spike, base]


class TestMetrics:
    def test_latency_target_default_multiple(self):
        assert latency_target_cycles(100.0) == 1000.0

    def test_offered_rate(self):
        assert offered_rate(0.5, 0.001) == pytest.approx(0.0005)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            latency_target_cycles(0.0)
        with pytest.raises(ValueError):
            offered_rate(0.0, 1.0)
        with pytest.raises(ValueError):
            offered_rate(0.5, 0.0)
