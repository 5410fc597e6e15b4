"""HBM interface model."""

import pytest

from repro.hw.dram import HBMInterface, PRIORITY_INFERENCE, PRIORITY_TRAINING


@pytest.fixture
def hbm(sim, tiny_config):
    return HBMInterface(sim, tiny_config)


class TestTransfers:
    def test_block_alignment_rounds_up(self, sim, hbm):
        hbm.transfer(100)
        sim.run()
        assert hbm.bytes_transferred == 128  # two 64 B blocks

    def test_zero_transfer_completes_immediately(self, sim, hbm):
        done = []
        hbm.transfer(0, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_completion_includes_latency(self, sim, hbm, tiny_config):
        done = []
        hbm.transfer(64 * 1000, on_done=lambda: done.append(sim.now))
        sim.run()
        serialization = 64 * 1000 / tiny_config.dram_bytes_per_cycle
        expected = serialization + tiny_config.dram_latency_cycles
        assert done[0] == pytest.approx(expected)

    def test_inference_priority_preempts_queue(self, sim, hbm):
        done = []
        hbm.transfer(64 * 100)  # occupies the channel
        hbm.transfer(64, priority=PRIORITY_TRAINING,
                     on_done=lambda: done.append("train"))
        hbm.transfer(64, priority=PRIORITY_INFERENCE,
                     on_done=lambda: done.append("inf"))
        sim.run()
        assert done == ["inf", "train"]

    def test_bytes_transferred_accumulates(self, sim, hbm):
        hbm.transfer(64)
        hbm.transfer(64)
        hbm.transfer(1)
        sim.run()
        assert hbm.bytes_transferred == 192.0

    def test_repeated_sizes_align_alike(self, sim, hbm):
        hbm.transfer(100)
        hbm.transfer(100)
        sim.run()
        assert hbm.bytes_transferred == 256

    def test_done_is_optional(self, sim, hbm, tiny_config):
        # A write-back with no callback still holds the channel.
        done = []
        hbm.transfer(64 * 1000)
        hbm.transfer(64 * 1000, on_done=lambda: done.append(sim.now))
        sim.run()
        serialization = 64 * 1000 / tiny_config.dram_bytes_per_cycle
        assert done[0] == pytest.approx(
            2 * serialization + tiny_config.dram_latency_cycles
        )

    def test_inference_does_not_preempt_a_transfer_in_service(
        self, sim, hbm, tiny_config
    ):
        done = []
        hbm.transfer(64 * 100, priority=PRIORITY_TRAINING,
                     on_done=lambda: done.append(("train", sim.now)))
        hbm.transfer(64, priority=PRIORITY_INFERENCE,
                     on_done=lambda: done.append(("inf", sim.now)))
        sim.run()
        per_block = 64 / tiny_config.dram_bytes_per_cycle
        latency = tiny_config.dram_latency_cycles
        assert [name for name, _ in done] == ["train", "inf"]
        assert done[1][1] == pytest.approx(101 * per_block + latency)

    def test_bandwidth_of_an_empty_window_is_zero(self, sim, hbm):
        assert hbm.achieved_gb_s() == 0.0
        assert hbm.utilization() == 0.0

    def test_achieved_bandwidth(self, sim, hbm, tiny_config):
        hbm.transfer(tiny_config.dram_bytes_per_cycle * 50)
        sim.run(until=100)
        # Half the window busy, so half the pin rate (modulo the final
        # block's round-up).
        assert hbm.achieved_gb_s(100) == pytest.approx(
            tiny_config.dram.bandwidth_bytes_per_s / 2 / 1e9, rel=0.01
        )
        assert hbm.utilization(100) == pytest.approx(0.5, rel=0.01)

    def test_utilization_caps_at_one(self, sim, hbm, tiny_config):
        hbm.transfer(tiny_config.dram_bytes_per_cycle * 100)
        sim.run()
        assert hbm.utilization() <= 1.0
