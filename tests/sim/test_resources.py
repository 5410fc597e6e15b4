"""Serial resources, port sets, bandwidth channels."""

import math

import pytest

from repro.sim.resources import BandwidthChannel, PortSet, SerialResource


class TestSerialResource:
    def test_serves_immediately_when_free(self, sim):
        res = SerialResource(sim)
        starts = []
        res.request(10, on_grant=lambda: starts.append(sim.now))
        sim.run()
        assert starts == [0.0]

    def test_serializes_requests(self, sim):
        res = SerialResource(sim)
        starts = []
        res.request(10, on_grant=lambda: starts.append(sim.now))
        res.request(5, on_grant=lambda: starts.append(sim.now))
        sim.run()
        assert starts == [0.0, 10.0]

    def test_done_fires_at_completion(self, sim):
        res = SerialResource(sim)
        done = []
        res.request(7, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [7.0]

    def test_priority_orders_queue(self, sim):
        res = SerialResource(sim)
        order = []
        res.request(10)  # occupies the unit
        res.request(1, on_grant=lambda: order.append("low"), priority=5)
        res.request(1, on_grant=lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_fifo_within_priority(self, sim):
        res = SerialResource(sim)
        order = []
        res.request(10)
        res.request(1, on_grant=lambda: order.append("a"), priority=1)
        res.request(1, on_grant=lambda: order.append("b"), priority=1)
        sim.run()
        assert order == ["a", "b"]

    def test_busy_accounting_by_tag(self, sim):
        res = SerialResource(sim)
        res.request(10, tag="x")
        res.request(5, tag="y")
        res.request(3, tag="x")
        sim.run()
        assert res.busy_by_tag == {"x": 13.0, "y": 5.0}
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
        assert not res.is_busy and res.busy_cycles == 0.0
        assert res.busy_by_tag == {}

    def test_queue_depth(self, sim):
        res = SerialResource(sim)
        res.request(10)
        res.request(10)
        res.request(10)
        sim.run(max_events=0)
        assert res.queue_depth == 2  # one in service, two waiting


class TestPortSet:
    def test_parallel_service_across_ports(self, sim):
        ports = PortSet(sim, count=2)
        starts = []
        ports.request(10, on_grant=lambda: starts.append(sim.now))
        ports.request(10, on_grant=lambda: starts.append(sim.now))
        sim.run()
        assert starts == [0.0, 0.0]

    def test_third_request_waits(self, sim):
        ports = PortSet(sim, count=2)
        starts = []
        for _ in range(3):
            ports.request(10, on_grant=lambda: starts.append(sim.now))
        sim.run()
        assert starts == [0.0, 0.0, 10.0]

    def test_rejects_zero_ports(self, sim):
        with pytest.raises(ValueError):
            PortSet(sim, count=0)

    def test_busy_cycles_aggregate(self, sim):
        ports = PortSet(sim, count=2)
        ports.request(4)
        ports.request(6)
        sim.run()
        assert ports.busy_cycles == 10.0


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

    def test_transfers_serialize(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=10)
        done = []
        chan.transfer(100, on_done=lambda: done.append(sim.now))
        chan.transfer(50, on_done=lambda: done.append(sim.now))
        sim.run()
        assert done == [10.0, 15.0]

    def test_priority_reorders(self, sim):
        chan = BandwidthChannel(sim, bytes_per_cycle=10)
        done = []
        chan.transfer(100)  # occupies the pipe
        chan.transfer(10, on_done=lambda: done.append("bulk"), priority=2)
        chan.transfer(10, on_done=lambda: done.append("urgent"), priority=0)
        sim.run()
        assert done == ["urgent", "bulk"]

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
