"""Recovery mechanisms: admission control, deadlines, the SLO guard,
and the failed-run latency semantics (inf, not a passing 0)."""

import math

import pytest

from repro.core.batching import StaticBatching
from repro.core.dispatcher import RequestDispatcher
from repro.core.equinox import EquinoxAccelerator
from repro.faults.admission import AdmissionControl
from repro.faults.counters import FaultCounters
from repro.faults.guard import SLOGuard
from repro.faults.plan import FaultPlan, MMUFaultSpec
from repro.hw.config import AcceleratorConfig


@pytest.fixture
def config():
    return AcceleratorConfig(name="bench", n=8, m=4, w=4, frequency_hz=1e9)


class TestAdmissionValidation:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_queue_requests=0)
        with pytest.raises(ValueError):
            AdmissionControl(deadline_cycles=0.0)
        with pytest.raises(ValueError):
            AdmissionControl(max_retries=-1)

    def test_retries_require_deadline(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_retries=2)

    def test_backoff_doubles_per_attempt(self):
        admission = AdmissionControl(
            deadline_cycles=100, max_retries=3, backoff_cycles=10.0
        )
        assert admission.retry_delay(1) == 10.0
        assert admission.retry_delay(2) == 20.0
        assert admission.retry_delay(3) == 40.0


class TestLoadShedding:
    def test_full_buffer_sheds(self, sim):
        counters = FaultCounters()
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=8), on_batch=lambda b: None,
            admission=AdmissionControl(max_queue_requests=2),
            counters=counters,
        )
        first = dispatcher.submit()
        second = dispatcher.submit()
        shed = dispatcher.submit()
        assert not first.rejected and not second.rejected
        assert shed.rejected
        assert dispatcher.queue_size == 2
        assert dispatcher.rejected_requests == 1
        assert counters.rejected_requests == 1

    def test_no_admission_is_unbounded(self, sim):
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=128), on_batch=lambda b: None
        )
        for _ in range(100):
            dispatcher.submit()
        assert dispatcher.queue_size == 100
        assert dispatcher.rejected_requests == 0


class TestDeadlines:
    def test_expired_request_abandoned(self, sim):
        counters = FaultCounters()
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=8), on_batch=lambda b: None,
            admission=AdmissionControl(deadline_cycles=50.0),
            counters=counters,
        )
        request = dispatcher.submit()
        sim.run()
        assert request.timed_out
        assert dispatcher.queue_size == 0
        assert counters.request_timeouts == 1
        assert sim.now == 50.0

    def test_retry_with_backoff_then_timeout(self, sim):
        counters = FaultCounters()
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=8), on_batch=lambda b: None,
            admission=AdmissionControl(
                deadline_cycles=50.0, max_retries=1, backoff_cycles=10.0
            ),
            counters=counters,
        )
        request = dispatcher.submit()
        sim.run()
        # t=50 deadline -> re-admitted at t=60 -> final deadline t=110.
        assert counters.request_retries == 1
        assert counters.request_timeouts == 1
        assert request.retries == 1
        assert request.timed_out
        assert sim.now == 110.0

    def test_batched_request_escapes_deadline(self, sim):
        formed = []
        counters = FaultCounters()
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=2), on_batch=formed.append,
            admission=AdmissionControl(deadline_cycles=50.0),
            counters=counters,
        )
        dispatcher.submit()
        dispatcher.submit()  # completes the batch immediately
        sim.run()
        assert len(formed) == 1
        assert counters.request_timeouts == 0

    def test_retried_request_keeps_original_clock(self, sim):
        formed = []
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=2), on_batch=formed.append,
            admission=AdmissionControl(
                deadline_cycles=50.0, max_retries=2, backoff_cycles=5.0
            ),
        )
        request = dispatcher.submit()
        # A partner arrives during the first retry wait; the pair batch.
        sim.at(52.0, dispatcher.submit)
        sim.run()
        assert len(formed) == 1
        assert request in formed[0].requests
        assert request.arrival_cycle == 0.0  # latency from first arrival
        assert request.retries == 1


class TestSLOGuard:
    def test_degrades_and_recovers_with_hysteresis(self, sim):
        backlog = [0]
        counters = FaultCounters()
        transitions = []
        guard = SLOGuard(
            sim, lambda: backlog[0],
            degrade_threshold=4, check_interval_cycles=10.0,
            counters=counters,
            on_degrade=lambda: transitions.append("degrade"),
            on_recover=lambda: transitions.append("recover"),
        )
        backlog[0] = 5
        sim.run(until=10.0)
        assert guard.degraded
        # Between recover (2) and degrade (4) thresholds: still degraded.
        backlog[0] = 3
        sim.run(until=20.0)
        assert guard.degraded
        backlog[0] = 1
        sim.run(until=30.0)
        assert not guard.degraded
        assert transitions == ["degrade", "recover"]
        assert counters.degraded_intervals == 1
        assert counters.degraded_cycles == pytest.approx(20.0)

    @pytest.mark.parametrize("degrade_threshold", [4, 5])
    def test_recovers_at_half_the_degrade_threshold(
        self, sim, degrade_threshold
    ):
        """Hysteresis: recovery waits for the backlog to fall to half
        the degradation threshold, rounded down."""
        backlog = [degrade_threshold]
        guard = SLOGuard(
            sim, lambda: backlog[0],
            degrade_threshold=degrade_threshold, check_interval_cycles=10.0,
            counters=FaultCounters(),
        )
        sim.run(until=10.0)
        assert guard.degraded
        backlog[0] = degrade_threshold // 2 + 1
        sim.run(until=20.0)
        assert guard.degraded
        backlog[0] = degrade_threshold // 2
        sim.run(until=30.0)
        assert not guard.degraded

    def test_flush_accounts_open_interval(self, sim):
        backlog = [10]
        counters = FaultCounters()
        guard = SLOGuard(
            sim, lambda: backlog[0],
            degrade_threshold=4, check_interval_cycles=10.0,
            counters=counters,
        )
        sim.run(until=35.0)
        assert guard.degraded
        guard.flush()
        assert counters.degraded_cycles == pytest.approx(25.0)


class TestGracefulDegradation:
    def test_stall_storm_preempts_training(self, config, tiny_model):
        accelerator = EquinoxAccelerator(
            config, tiny_model, training_model=tiny_model, training_batch=8,
            chunk_us=0.05,
            fault_plan=FaultPlan(
                seed=3,
                mmu=MMUFaultSpec(stall_rate=0.6, stall_cycles=30_000.0),
            ),
        )
        report = accelerator.run(load=0.6, requests=64)
        assert report.faults.mmu_stalls > 0
        # The backlog from stalled batches trips the SLO guard at least
        # once, and the time spent degraded is accounted.
        assert report.faults.degraded_intervals >= 1
        assert report.faults.degraded_cycles > 0

    def test_degraded_flags_restored_after_recovery(self, config, tiny_model):
        accelerator = EquinoxAccelerator(
            config, tiny_model, training_model=tiny_model, training_batch=8,
            chunk_us=0.05, fault_plan=FaultPlan.none(),
        )
        accelerator._enter_degraded()
        assert accelerator.scheduler.degraded
        assert accelerator.batching.degraded
        accelerator._exit_degraded()
        assert not accelerator.scheduler.degraded
        assert not accelerator.batching.degraded


class TestFailedRunLatency:
    """Satellite fix: a run that completes zero requests reports an
    infinite p99 — it can never pass an SLO check — while a run that
    was offered no traffic stays unmeasured (nan)."""

    def test_no_completions_is_inf(self):
        assert EquinoxAccelerator._no_sample_latency_us(5) == math.inf

    def test_no_traffic_is_nan(self):
        assert math.isnan(EquinoxAccelerator._no_sample_latency_us(0))

    def test_fully_failed_run_cannot_meet_target(self, config, tiny_model):
        # Static batching never force-issues; a 1-cycle admission
        # deadline expires every request before a full batch ever forms,
        # so traffic is offered but nothing completes.
        accelerator = EquinoxAccelerator(
            config, tiny_model, batching="static",
            admission=AdmissionControl(deadline_cycles=1.0),
        )
        report = accelerator.run_profile([0.3], dwell_s=2e-5)[0]
        assert report.requests_submitted > 0
        assert report.requests_completed == 0
        assert report.p99_latency_us == math.inf
        assert not report.meets_target(1e9)
        assert report.faults.request_timeouts == report.request_timeouts > 0
