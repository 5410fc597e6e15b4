"""Harness smoke tests: each experiment runs and renders at small scale."""

import pytest

from repro.eval import fig2, fig6, fig7, fig8, fig9, fig10, fig11
from repro.eval import table1, table2, table3
from repro.eval.report import render_series, render_table
from repro.eval.runner import build_accelerator, latency_target_us


class TestReport:
    def test_render_table_aligns(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1

    def test_render_series(self):
        text = render_series("S", "x", [1, 2], {"y": [3.0, 4.0]})
        assert "x" in text and "y" in text

    def test_nan_renders_as_dash(self):
        text = render_table("T", ["v"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]


class TestRunner:
    def test_build_accelerator_defaults(self):
        acc = build_accelerator("min")
        assert acc.config.name == "equinox_min"
        assert acc.training_engine is None

    def test_latency_target_is_10x_service(self):
        reference = build_accelerator("500us")
        assert latency_target_us() == pytest.approx(
            10 * reference.batch_service_us()
        )

    def test_runner_shares_the_workload_slo_multiple(self):
        from repro.eval import runner
        from repro.workload import metrics

        assert runner.SLO_MULTIPLE is metrics.SLO_MULTIPLE


class TestAnalyticExperiments:
    def test_table1_runs_and_renders(self):
        result = table1.run()
        text = table1.render(result)
        assert "Table 1" in text
        assert result.throughput_ratio("hbfp8", "500us") > 4

    def test_table3_runs_and_renders(self):
        result = table3.run()
        text = table3.render(result)
        assert "MMU" in text
        assert result.overheads["controller_area_overhead"] < 0.01

    def test_fig6_runs_and_renders(self):
        result = fig6.run()
        text = fig6.render(result)
        assert "Pareto" in text
        assert result.max_throughput("hbfp8") > 4 * result.max_throughput(
            "bfloat16"
        )


@pytest.fixture(scope="module")
def small_table2():
    return table2.run(gru_steps=40, resnet_side=64)


class TestSimulationExperiments:
    def test_fig7_small(self):
        result = fig7.run(loads=(0.3, 0.9), batches=4, encodings=("hbfp8",))
        assert "hbfp8" in result.curves
        assert len(result.curves["hbfp8"]["500us"]) == 2
        assert "Figure 7" in fig7.render(result)

    def test_fig8_small(self):
        result = fig8.run(loads=(0.1, 0.9), batches=4)
        text = fig8.render(result)
        assert "Figure 8" in text
        assert result.idle_reclaimed(0.1) > 0

    def test_fig9_small(self):
        result = fig9.run(loads=(0.3, 0.9), classes=("min", "500us"), batches=4)
        assert result.dedicated_top_s > 0
        assert result.curves["500us"][0] > result.curves["min"][0]
        assert "Figure 9" in fig9.render(result)

    def test_fig10_small(self):
        result = fig10.run(loads=(0.3, 0.9), batches=4)
        assert set(result.curves) == {
            "Inf", "Inf+Train+Fair", "Inf+Train+Priority"
        }
        assert "Figure 10" in fig10.render(result)

    def test_fig11_small(self):
        result = fig11.run(loads=(0.08, 0.9), thresholds=(2.0, 10.0), batches=4)
        assert result.adaptive_meets_at_low_load()
        assert result.static_violates_at_low_load()
        assert "Figure 11a" in fig11.render(result)

    def test_table2_small(self, small_table2):
        result = small_table2
        assert set(result.rows) == {"lstm", "gru", "resnet50"}
        assert all(v[1] > 0 for v in result.rows.values())
        assert "Table 2" in table2.render(result)

    def test_table2_latency_is_the_batch_service_time(self, small_table2):
        """The saturated point's accelerator gives the latency column:
        the unloaded batch service time of an inference-only build."""
        from repro.models.gru import deepbench_gru
        from repro.models.lstm import deepbench_lstm
        from repro.models.resnet import resnet50

        for key, spec, chunk_us in (
            ("lstm", deepbench_lstm(), 2.0),
            ("gru", deepbench_gru(steps=40), 20.0),
            ("resnet50", resnet50(image_size=64), 4.0),
        ):
            probe = build_accelerator(
                "500us", inference_model=spec, chunk_us=chunk_us
            )
            assert small_table2.rows[key][2] == probe.batch_service_us() / 1e3


class TestSpike:
    def test_runs_and_renders(self):
        from repro.eval import spike

        result = spike.run(buckets=6, spike_start=2, spike_len=1,
                           dwell_s=0.002)
        text = spike.render(result)
        assert "Spike response" in text
        assert result.training_drop() > 0.0


class TestFig2:
    def test_runs_and_renders(self):
        result = fig2.run(epochs=3, lm_epochs=2)
        text = fig2.render(result)
        assert "Figure 2a" in text and "Figure 2b" in text
        assert result.final_error_gap() < 15.0
        assert 0.5 < result.final_perplexity_ratio() < 2.0
