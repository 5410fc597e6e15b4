"""Serial resources and bandwidth channels."""

import math

import pytest

from repro.sim.resources import BandwidthChannel, SerialResource


class TestSerialResource:
    def test_serves_immediately_when_free(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(10, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [10.0]

    def test_serializes_requests(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(10, on_done=lambda: done.append(sim.now))
        res.request(5, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [10.0, 15.0]

    def test_done_fires_at_completion(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(7, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [7.0]

    def test_priority_orders_queue(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(10)  # occupies the unit
        res.request(1, on_done=lambda: done.append(("low", sim.now)),
                    priority=5)
        res.request(1, on_done=lambda: done.append(("high", sim.now)),
                    priority=0)
        sim.run()
        assert done == [("high", 11.0), ("low", 12.0)]

    def test_fifo_within_priority(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(10)
        res.request(1, on_done=lambda: done.append(("a", sim.now)),
                    priority=1)
        res.request(1, on_done=lambda: done.append(("b", sim.now)),
                    priority=1)
        sim.run()
        assert done == [("a", 11.0), ("b", 12.0)]

    def test_busy_accounting(self, sim):
        res = SerialResource(sim)
        res.request(10)
        res.request(5)
        res.request(3)
        sim.run()
        assert res.busy_cycles == 18.0

    def test_utilization(self, sim):
        res = SerialResource(sim)
        res.request(30)
        sim.run(until=60)
        assert res.utilization() == pytest.approx(0.5)

    def test_rejects_negative_duration(self, sim):
        res = SerialResource(sim)
        with pytest.raises(ValueError):
            res.request(-1)

    def test_rejects_nan_duration_without_side_effects(self, sim):
        res = SerialResource(sim)
        with pytest.raises(ValueError):
            res.request(math.nan)
        assert sim._heap == [] and sim._seq_next == 0
        assert res._queue == [] and res.busy_cycles == 0.0

    def test_in_service_request_is_not_preempted(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(10, on_done=lambda: done.append(("low", sim.now)),
                    priority=5)
        res.request(1, on_done=lambda: done.append(("high", sim.now)),
                    priority=0)
        sim.run()
        assert done == [("low", 10.0), ("high", 11.0)]

    def test_zero_duration_request_completes_when_served(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(4, on_done=lambda: done.append(("first", sim.now)))
        res.request(0, on_done=lambda: done.append(("zero", sim.now)))
        sim.run()
        assert done == [("first", 4.0), ("zero", 4.0)]

    def test_request_from_a_completion_starts_at_once(self, sim):
        res = SerialResource(sim)
        done = []

        def _chain():
            done.append(sim.now)
            res.request(5, on_done=lambda: done.append(sim.now))

        res.request(10, on_done=_chain)
        sim.run()
        assert done == [10.0, 15.0]
        assert res.busy_cycles == 15.0

    def test_request_from_a_completion_queues_behind_waiting_work(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(
            10,
            on_done=lambda: res.request(1, on_done=lambda: done.append(
                ("late", sim.now))),
        )
        res.request(5, on_done=lambda: done.append(("waiting", sim.now)))
        sim.run()
        assert done == [("waiting", 15.0), ("late", 16.0)]

    def test_zero_duration_chain_completes_in_order(self, sim):
        res = SerialResource(sim)
        done = []

        def _first():
            done.append(("first", sim.now))
            res.request(3, on_done=lambda: done.append(("second", sim.now)))

        res.request(0, on_done=_first)
        sim.run()
        assert done == [("first", 0.0), ("second", 3.0)]

    def test_utilization_over_explicit_horizon(self, sim):
        res = SerialResource(sim)
        assert res.utilization() == 0.0  # no time has passed
        res.request(30)
        sim.run()
        assert res.utilization(60) == pytest.approx(0.5)
        assert res.utilization(10) == 1.0  # capped: busy exceeds window


class TestBandwidthChannel:
    def test_transfer_time_is_size_over_rate(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=64)
        done = []
        chan.transfer(640, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [10.0]

    def test_fixed_latency_added_after_serialization(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=64, fixed_latency=5)
        done = []
        chan.transfer(640, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [15.0]

    def test_latency_overlaps_the_next_transfer(self, sim):
        # The pipe is free once the last byte leaves; the fixed latency
        # does not hold it.
        chan = BandwidthChannel(sim, bytes_per_cycle=64, fixed_latency=5)
        done = []
        chan.transfer(640, on_done=lambda: done.append(sim.now))
        chan.transfer(640, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [15.0, 25.0]
        assert chan.utilization(20) == 1.0

    def test_zero_byte_transfer_pays_only_latency(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=64, fixed_latency=5)
        done = []
        chan.transfer(0, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [5.0]
        assert chan.bytes_transferred == 0.0

    def test_transfers_serialize(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=10)
        done = []
        chan.transfer(100, on_done=lambda: done.append(sim.now))
        chan.transfer(50, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [10.0, 15.0]

    def test_bytes_accounting(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=10)
        chan.transfer(30)
        chan.transfer(70)
        sim.run()
        assert chan.bytes_transferred == 100.0

    def test_utilization(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=10)
        chan.transfer(100)
        sim.run(until=20)
        assert chan.utilization() == pytest.approx(0.5)

    def test_rejects_nonpositive_bandwidth(self, sim):
        with pytest.raises(ValueError):
            BandwidthChannel(sim, bytes_per_cycle=0)

    def test_rejects_negative_size(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=10)
        with pytest.raises(ValueError):
            chan.transfer(-5)

    def test_rejects_nan_size_without_side_effects(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=10)
        with pytest.raises(ValueError):
            chan.transfer(math.nan)
        assert sim._heap == [] and sim._seq_next == 0
        assert chan.bytes_transferred == 0.0 and chan.utilization(1.0) == 0.0
