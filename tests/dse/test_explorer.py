"""Design-space sweep and Pareto extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse.explorer import DesignPoint, DesignSpaceExplorer
from repro.dse.pareto import dominates, pareto_frontier
from repro.dse.tech import TSMC28


@pytest.fixture(scope="module")
def small_sweep():
    explorer = DesignSpaceExplorer(
        "hbfp8", n_values=[1, 2, 4, 8, 16, 32, 64, 128],
        frequencies_hz=[532e6, 610e6, 1000e6],
    )
    return explorer, explorer.sweep()


class TestFeasibility:
    def test_all_points_within_envelopes(self, small_sweep):
        _, points = small_sweep
        assert points, "sweep found no feasible designs"
        for p in points:
            assert p.area_mm2 <= TSMC28.die_area_mm2 + 1e-6
            assert p.power_w <= TSMC28.power_budget_w + 1e-6

    def test_m_is_maximal(self, small_sweep):
        """Growing any point's m by one must violate an envelope."""
        from repro.dse.area import fits_die
        from repro.dse.power import fits_power

        _, points = small_sweep
        for p in points[:: max(1, len(points) // 20)]:
            grown_ok = fits_die(p.n, p.m + 1, p.w, "hbfp8") and fits_power(
                p.n, p.m + 1, p.w, p.frequency_hz, "hbfp8"
            )
            assert not grown_ok

    def test_bound_labels_consistent(self, small_sweep):
        _, points = small_sweep
        assert {p.bound for p in points} <= {"area", "power"}

    def test_to_config_roundtrip(self, small_sweep):
        _, points = small_sweep
        config = points[0].to_config("probe")
        assert config.n == points[0].n
        assert config.peak_throughput_top_s == pytest.approx(
            points[0].throughput_top_s
        )

    def test_rejects_bad_sweep_ranges(self):
        with pytest.raises(ValueError):
            DesignSpaceExplorer("hbfp8", n_values=[0])


class TestPareto:
    def test_frontier_is_nondominated(self, small_sweep):
        _, points = small_sweep
        frontier = pareto_frontier(points)
        for a in frontier:
            assert not any(dominates(b, a) for b in points)

    def test_frontier_monotone(self, small_sweep):
        _, points = small_sweep
        frontier = pareto_frontier(points)
        for earlier, later in zip(frontier, frontier[1:]):
            assert later.service_time_us >= earlier.service_time_us
            assert later.throughput_top_s > earlier.throughput_top_s

    def test_every_point_dominated_or_on_frontier(self, small_sweep):
        _, points = small_sweep
        frontier = set(id(p) for p in pareto_frontier(points))
        for p in points[:: max(1, len(points) // 30)]:
            if id(p) not in frontier:
                assert any(
                    dominates(f, p) or (
                        f.throughput_top_s >= p.throughput_top_s
                        and f.service_time_us <= p.service_time_us
                    )
                    for f in pareto_frontier(points)
                )

    @given(
        st.lists(
            st.tuples(st.floats(1, 500), st.floats(1, 5000)),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_frontier_property(self, raw):
        points = [
            DesignPoint(
                n=1, m=1, w=1, frequency_hz=1e9, encoding="hbfp8",
                throughput_top_s=t, service_time_us=s,
                area_mm2=0, power_w=0, bound="power",
            )
            for t, s in raw
        ]
        frontier = pareto_frontier(points)
        assert frontier
        for a in frontier:
            assert not any(dominates(b, a) for b in points)
