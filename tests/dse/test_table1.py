"""Table 1 selections: the paper's shape claims, asserted."""

import pytest

from repro.dse import table1
from repro.dse.pareto import pareto_frontier
from repro.dse.table1 import (
    design_space,
    equinox_configuration,
    pareto_table,
    select_design,
)
from repro.dse.tech import TechnologyModel


#: ``repr`` of every Table 1 pick. Unlike a digest, a repr also shows
#: a numpy scalar leaking into a field (``np.float64(...)``).
PICK_REPRS = {
    ("hbfp8", "min"): (
        "DesignPoint(n=1, m=1393, w=40, frequency_hz=532000000.0, "
        "encoding='hbfp8', throughput_top_s=59.28608, "
        "service_time_us=16.79573934837093, area_mm2=147.06464, "
        "power_w=74.984181248, bound='power')"
    ),
    ("hbfp8", "50us"): (
        "DesignPoint(n=13, m=164, w=10, frequency_hz=532000000.0, "
        "encoding='hbfp8', throughput_top_s=294.89824, "
        "service_time_us=49.556390977443606, area_mm2=271.51392, "
        "power_w=74.75721349688891, bound='power')"
    ),
    ("hbfp8", "500us"): (
        "DesignPoint(n=177, m=5, w=2, frequency_hz=610000000.0, "
        "encoding='hbfp8', throughput_top_s=382.2138, "
        "service_time_us=479.1186885245901, area_mm2=291.81898, "
        "power_w=74.87181625996251, bound='area')"
    ),
    ("hbfp8", "none"): (
        "DesignPoint(n=230, m=2, w=3, frequency_hz=610000000.0, "
        "encoding='hbfp8', throughput_top_s=387.228, "
        "service_time_us=566.872495446266, area_mm2=294.1288, "
        "power_w=74.98668301133984, bound='area')"
    ),
    ("bfloat16", "min"): (
        "DesignPoint(n=1, m=914, w=24, frequency_hz=532000000.0, "
        "encoding='bfloat16', throughput_top_s=23.339904, "
        "service_time_us=37.70091896407686, area_mm2=189.67432, "
        "power_w=74.97101072497779, bound='power')"
    ),
    ("bfloat16", "50us"): (
        "DesignPoint(n=1, m=348, w=64, frequency_hz=532000000.0, "
        "encoding='bfloat16', throughput_top_s=23.697408, "
        "service_time_us=39.23182957393483, "
        "area_mm2=190.80664000000002, power_w=74.92139749262222, "
        "bound='power')"
    ),
    ("bfloat16", "500us"): (
        "DesignPoint(n=29, m=15, w=4, frequency_hz=610000000.0, "
        "encoding='bfloat16', throughput_top_s=61.5612, "
        "service_time_us=414.88766177739427, "
        "area_mm2=285.80019999999996, power_w=74.86638619535194, "
        "bound='power')"
    ),
    ("bfloat16", "none"): (
        "DesignPoint(n=232, m=1, w=1, frequency_hz=610000000.0, "
        "encoding='bfloat16', throughput_top_s=65.66528, "
        "service_time_us=3114.5894353369767, "
        "area_mm2=297.13687999999996, power_w=74.73071811954338, "
        "bound='area')"
    ),
}


@pytest.fixture(scope="module")
def hbfp8_table():
    return pareto_table("hbfp8")


@pytest.fixture(scope="module")
def bf16_table():
    return pareto_table("bfloat16")


class TestHbfp8Shape:
    def test_min_latency_is_unbatched(self, hbfp8_table):
        assert hbfp8_table["min"].n == 1

    def test_min_latency_picks_floor_frequency(self, hbfp8_table):
        # SRAM-power-bound designs settle at 532 MHz (paper Table 1).
        assert hbfp8_table["min"].frequency_mhz == pytest.approx(532)

    def test_relaxed_designs_pick_610(self, hbfp8_table):
        assert hbfp8_table["500us"].frequency_mhz == pytest.approx(610)
        assert hbfp8_table["none"].frequency_mhz == pytest.approx(610)

    def test_service_times_respect_bounds(self, hbfp8_table):
        assert hbfp8_table["50us"].service_time_us <= 50.0
        assert hbfp8_table["500us"].service_time_us <= 500.0

    def test_throughput_ordering(self, hbfp8_table):
        t = {k: v.throughput_top_s for k, v in hbfp8_table.items()}
        assert t["min"] < t["50us"] < t["500us"] <= t["none"]

    def test_500us_gain_near_6x(self, hbfp8_table):
        # Paper: 6.67x. Shape check: 5x-8x.
        ratio = (
            hbfp8_table["500us"].throughput_top_s
            / hbfp8_table["min"].throughput_top_s
        )
        assert 5.0 <= ratio <= 8.0

    def test_50us_gain_near_5x(self, hbfp8_table):
        # Paper: 5.53x. Shape check: 4x-7x.
        ratio = (
            hbfp8_table["50us"].throughput_top_s
            / hbfp8_table["min"].throughput_top_s
        )
        assert 4.0 <= ratio <= 7.0

    def test_relaxed_designs_use_moderate_batching(self, hbfp8_table):
        # n in the hundreds, far from both extremes (paper §4.2).
        assert 100 <= hbfp8_table["500us"].n <= 256

    def test_absolute_throughputs_near_paper(self, hbfp8_table):
        assert hbfp8_table["min"].throughput_top_s == pytest.approx(60.2, rel=0.15)
        assert hbfp8_table["500us"].throughput_top_s == pytest.approx(390, rel=0.1)


class TestBfloat16Shape:
    def test_cannot_batch_below_50us(self, bf16_table):
        """bfloat16's knee comes immediately: the sub-50µs class is the
        unbatched design (the merged row of the paper's Table 1)."""
        assert bf16_table["50us"].n <= 2
        assert bf16_table["50us"].throughput_top_s == pytest.approx(
            bf16_table["min"].throughput_top_s, rel=0.1
        )

    def test_absolute_throughputs_near_paper(self, bf16_table):
        assert bf16_table["min"].throughput_top_s == pytest.approx(23.9, rel=0.1)
        assert bf16_table["none"].throughput_top_s == pytest.approx(66.7, rel=0.1)

    def test_hbfp8_advantage_5x_plus(self, hbfp8_table, bf16_table):
        ratio = (
            hbfp8_table["500us"].throughput_top_s
            / bf16_table["500us"].throughput_top_s
        )
        assert 4.5 <= ratio <= 7.5


class TestSelection:
    def test_picks_match_golden_repr(self, hbfp8_table, bf16_table):
        tables = {"hbfp8": hbfp8_table, "bfloat16": bf16_table}
        assert {
            (encoding, name): repr(point)
            for encoding, table in tables.items()
            for name, point in table.items()
        } == PICK_REPRS

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError):
            select_design("1ms")

    def test_configuration_materialization(self):
        config = equinox_configuration("min")
        assert config.name == "equinox_min"
        assert config.encoding == "hbfp8"
        assert config.n == 1

    def test_configuration_encoding_suffix(self):
        config = equinox_configuration("min", "bfloat16")
        assert config.name == "equinox_min_bfloat16"

    def test_table_picks_lie_on_frontier(self, hbfp8_table):
        front = {
            (p.n, p.m, p.w, p.frequency_hz)
            for p in pareto_frontier(design_space("hbfp8"))
        }
        for name in ("min", "none"):
            p = hbfp8_table[name]
            assert (p.n, p.m, p.w, p.frequency_hz) in front

    def test_each_technology_gets_its_own_design(self, monkeypatch):
        """CPython can give a new technology the address of a freed
        one, so ``id()`` cannot key the sweep memos. Simulate that reuse
        by giving every object the same ``id()``."""
        monkeypatch.setattr(table1, "id", lambda obj: 0, raising=False)
        monkeypatch.setattr(table1, "_COLUMNS", {})
        monkeypatch.setattr(table1, "_PICKS", {})
        small = select_design("500us", tech=TechnologyModel(die_area_mm2=150.0))
        full = select_design("500us", tech=TechnologyModel(die_area_mm2=300.0))
        assert (small.n, small.m, small.w) == (99, 2, 3)
        assert (full.n, full.m, full.w) == (177, 5, 2)
