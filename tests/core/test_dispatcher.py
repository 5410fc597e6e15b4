"""Request dispatcher and inference/training engines."""

import pytest

from repro.core.batching import AdaptiveBatching, PullBatching, StaticBatching
from repro.core.dispatcher import (
    FairShareDispatcher,
    InferenceEngine,
    RequestDispatcher,
    TenantShare,
    TrainingEngine,
)
from repro.core.equinox import EquinoxAccelerator
from repro.core.requests import InferenceRequest
from repro.core.scheduler import InferenceOnlyScheduler, PriorityScheduler
from repro.eval.runner import build_accelerator, simulate_load_point
from repro.faults.admission import AdmissionControl
from repro.faults.plan import FaultPlan, HBMFaultSpec, MMUFaultSpec
from repro.hw.dram import HBMInterface
from repro.hw.isa import StepProgram
from repro.hw.mmu import MatrixMultiplyUnit
from repro.hw.simd import SIMDUnit
from repro.models.compiler import TileCompiler
from repro.models.graph import GemmLayer, ModelSpec
from repro.models.gru import deepbench_gru
from repro.models.lstm import deepbench_lstm
from repro.models.resnet import resnet50


class TestRequestDispatcher:
    def test_full_batch_issues_immediately(self, sim):
        formed = []
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=3), on_batch=formed.append
        )
        for _ in range(3):
            dispatcher.submit()
        assert len(formed) == 1
        assert formed[0].real_count == 3
        assert not formed[0].is_padded

    def test_static_never_times_out(self, sim):
        formed = []
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=4), on_batch=formed.append
        )
        dispatcher.submit()
        sim.run(until=1e9)
        assert formed == []
        assert dispatcher.queue_size == 1

    def test_adaptive_times_out_with_padding(self, sim):
        formed = []
        dispatcher = RequestDispatcher(
            sim, AdaptiveBatching(slots=4, timeout_cycles=100), on_batch=formed.append
        )
        dispatcher.submit()
        sim.run()
        assert len(formed) == 1
        assert formed[0].dummy_count == 3
        assert formed[0].formed_cycle == 100.0
        assert dispatcher.incomplete_batches == 1

    def test_adaptive_timer_measures_oldest(self, sim):
        formed = []
        dispatcher = RequestDispatcher(
            sim, AdaptiveBatching(slots=4, timeout_cycles=100), on_batch=formed.append
        )
        dispatcher.submit()
        sim.at(60, dispatcher.submit)
        sim.run()
        assert formed[0].formed_cycle == 100.0
        assert formed[0].real_count == 2

    def test_burst_forms_multiple_batches(self, sim):
        formed = []
        dispatcher = RequestDispatcher(
            sim, AdaptiveBatching(slots=2, timeout_cycles=100), on_batch=formed.append
        )
        for _ in range(5):
            dispatcher.submit()
        assert len(formed) == 2
        assert dispatcher.queue_size == 1

    def test_queue_decrease_hook(self, sim):
        pokes = []
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=2), on_batch=lambda b: None
        )
        dispatcher.on_queue_decrease = lambda: pokes.append(sim.now)
        dispatcher.submit()
        dispatcher.submit()
        assert pokes == [0.0]

    def test_flush_forces_partial(self, sim):
        formed = []
        dispatcher = RequestDispatcher(
            sim, StaticBatching(slots=4), on_batch=formed.append
        )
        dispatcher.submit()
        dispatcher.flush()
        assert len(formed) == 1
        assert formed[0].real_count == 1


class TestRetryAccounting:
    """The shed+retry interleaving regression: a request waiting out a
    retry backoff is live — flush must fold it back in, snapshots must
    refuse while it is pending, and the submitted = batched + shed +
    timed-out identity must survive every path."""

    ADMISSION = AdmissionControl(
        deadline_cycles=100.0, max_retries=1, backoff_cycles=50.0
    )

    def _dispatcher(self, sim, formed):
        # PullBatching never self-issues, so requests sit in the buffer
        # until their deadline fires — the retry path on demand.
        return RequestDispatcher(
            sim, PullBatching(4), formed.append, admission=self.ADMISSION
        )

    def test_retry_then_timeout_keeps_identity(self, sim):
        formed = []
        dispatcher = self._dispatcher(sim, formed)
        request = dispatcher.submit()
        sim.run()
        # Deadline at 100, one re-admission at 150, final deadline 250.
        assert dispatcher.request_retries == 1
        assert dispatcher.request_timeouts == 1
        assert request.timed_out
        assert dispatcher.queue_size == 0
        assert dispatcher.pending_retries == 0
        assert dispatcher.requests_submitted == dispatcher.request_timeouts

    def test_flush_folds_pending_retry_back_in(self, sim):
        formed = []
        dispatcher = self._dispatcher(sim, formed)
        request = dispatcher.submit()
        sim.run(until=120.0)
        # Deadline fired at 100; the request now waits out its backoff.
        assert dispatcher.pending_retries == 1
        assert dispatcher.queue_size == 0
        dispatcher.flush()
        # The retry was folded back and formed — not silently dropped.
        assert dispatcher.pending_retries == 0
        assert len(formed) == 1
        assert formed[0].requests == [request]
        assert not request.timed_out

    def test_queue_increase_hook_fires_on_readmission(self, sim):
        dispatcher = self._dispatcher(sim, [])
        pokes = []
        dispatcher.on_queue_increase = lambda: pokes.append(sim.now)
        dispatcher.submit()
        sim.run(until=160.0)
        # Once at arrival, once when the backoff re-admitted it — the
        # wake-up a pull-batching chip server needs to resume service.
        assert pokes == [0.0, 150.0]

    def test_pending_retries_metric_exported(self, sim):
        dispatcher = self._dispatcher(sim, [])
        dispatcher.submit()
        sim.run(until=120.0)
        assert dispatcher.metrics()["pending_retries"] == 1.0


def _fair(sim, formed, tenants, admission=None, slots=4):
    return FairShareDispatcher(
        sim, PullBatching(slots), formed.append, tenants, admission=admission
    )


class TestFairShareDispatcher:
    def test_wdrr_shares_follow_weights(self, sim):
        """With every tenant backlogged, a weight-3 tenant takes 3 of
        every 4 slots regardless of how much the other submits."""
        formed = []
        dispatcher = _fair(
            sim, formed,
            [TenantShare("a", weight=3.0), TenantShare("b", weight=1.0)],
        )
        for _ in range(40):
            dispatcher.submit("b")  # the aggressor submits first
        for _ in range(30):
            dispatcher.submit("a")
        assert dispatcher.submitted_by_tenant == {"a": 30, "b": 40}
        for _ in range(10):
            assert dispatcher.form_one() is not None
        assert dispatcher.batched_by_tenant == {"a": 30, "b": 10}
        for batch in formed:
            tenants = [request.tenant for request in batch.requests]
            assert tenants.count("a") == 3
            assert tenants.count("b") == 1

    @pytest.mark.parametrize(
        "weights,slots",
        [
            ((1.0, 1.0), 3),
            ((2.0, 1.0), 4),
            ((1.0, 0.5), 4),
            ((8.0, 2.0, 1.0), 177),  # serve's tiers at its batch size
        ],
        ids=["1:1@3", "2:1@4", "1:0.5@4", "8:2:1@177"],
    )
    def test_backlogged_shares_follow_weights(self, sim, weights, slots):
        """Every tenant always backlogged: each takes ``w_i / Σw`` of
        the slots whatever the batch size, not only when a batch holds
        whole rounds (the 3:1 case above). The round runs across batch
        boundaries, so the first tenant gains nothing from a batch
        filling mid-round. 66 batches are a whole number of rounds in
        every case (2, 3 or 11 slots a round), so each share is exact
        to one slot."""
        batches = 66
        names = [f"t{index}" for index in range(len(weights))]
        formed = []
        dispatcher = _fair(
            sim, formed,
            [TenantShare(name, weight) for name, weight in zip(names, weights)],
            slots=slots,
        )
        for _ in range(batches):
            for name in names:
                while (
                    dispatcher.submitted_by_tenant[name]
                    - dispatcher.batched_by_tenant[name] < slots
                ):
                    dispatcher.submit(name)
            assert dispatcher.form_one() is not None
        total = batches * slots
        for name, weight in zip(names, weights):
            target = total * weight / sum(weights)
            assert abs(dispatcher.batched_by_tenant[name] - target) <= 1.0, (
                name, dispatcher.batched_by_tenant[name], target
            )

    def test_idle_tenant_forfeits_credit(self, sim):
        """Weights bound shares under contention, not reservations: a
        lone backlogged tenant gets every slot."""
        formed = []
        dispatcher = _fair(
            sim, formed,
            [TenantShare("a", weight=8.0), TenantShare("b", weight=1.0)],
        )
        for _ in range(8):
            dispatcher.submit("b")
        dispatcher.form_one()
        dispatcher.form_one()
        assert dispatcher.batched_by_tenant == {"a": 0, "b": 8}

    def test_per_tenant_admission_bound_isolates_shedding(self, sim):
        dispatcher = _fair(
            sim, [],
            [
                TenantShare("a", max_queue_requests=2),
                TenantShare("b", max_queue_requests=2),
            ],
        )
        for _ in range(5):
            dispatcher.submit("a")
        # Tenant a's flash crowd sheds its own overflow only.
        assert dispatcher.shed_by_tenant == {"a": 3, "b": 0}
        assert dispatcher.queue_size == 2  # all of them tenant a's
        dispatcher.submit("b")
        assert dispatcher.shed_by_tenant["b"] == 0

    def test_per_tenant_deadline_times_out(self, sim):
        dispatcher = _fair(
            sim, [],
            [
                TenantShare("a", deadline_cycles=100.0),
                TenantShare("b"),  # no deadline: waits forever
            ],
        )
        dispatcher.submit("a")
        dispatcher.submit("b")
        sim.run()
        assert dispatcher.timed_out_by_tenant == {"a": 1, "b": 0}
        assert dispatcher.queue_size == 1  # tenant b's request waits

    def test_unknown_tenant_rejected(self, sim):
        dispatcher = _fair(sim, [], [TenantShare("a")])
        with pytest.raises(ValueError, match="unknown tenant"):
            dispatcher.submit("ghost")

    def test_tenant_counters_start_at_zero_in_registration_order(self, sim):
        dispatcher = _fair(sim, [], [TenantShare("b"), TenantShare("a")])
        for counter in (
            dispatcher.submitted_by_tenant,
            dispatcher.shed_by_tenant,
            dispatcher.batched_by_tenant,
            dispatcher.timed_out_by_tenant,
        ):
            assert list(counter.items()) == [("b", 0), ("a", 0)]
        assert dispatcher.queue_size == 0

    def test_submit_needs_a_tenant(self, sim):
        dispatcher = _fair(sim, [], [TenantShare("a")])
        with pytest.raises(ValueError, match="unknown tenant None"):
            dispatcher.submit()
        assert dispatcher.requests_submitted == 0

    def test_inject_checks_and_counts_the_tenant(self, sim):
        dispatcher = _fair(sim, [], [TenantShare("a"), TenantShare("b")])
        with pytest.raises(ValueError, match="unknown tenant 'ghost'"):
            dispatcher.inject(InferenceRequest(7, 0.0, tenant="ghost"))
        dispatcher.inject(InferenceRequest(7, 0.0, tenant="b"))
        assert dispatcher.submitted_by_tenant == {"a": 0, "b": 1}
        assert dispatcher.queue_size == 1
        # Locally created ids continue past the injected one.
        assert dispatcher.submit("a").request_id == 8

    def test_rejects_bad_tenant_sets(self, sim):
        with pytest.raises(ValueError, match="at least one"):
            _fair(sim, [], [])
        with pytest.raises(ValueError, match="duplicate"):
            _fair(sim, [], [TenantShare("a"), TenantShare("a")])

    def test_tenant_share_validation(self):
        with pytest.raises(ValueError):
            TenantShare("")
        with pytest.raises(ValueError):
            TenantShare("a", weight=0.0)
        with pytest.raises(ValueError):
            TenantShare("a", max_queue_requests=0)
        with pytest.raises(ValueError):
            TenantShare("a", deadline_cycles=-1.0)


class _Bench:
    """Wired datapath + engines around one compiled model."""

    def __init__(self, sim, config, model, scheduler, training_model=None,
                 training_batch=8):
        compiler = TileCompiler(config, chunk_us=0.05)
        self.program = compiler.compile_inference(model)
        self.mmu = MatrixMultiplyUnit(sim, config)
        self.simd = SIMDUnit(sim, config)
        self.hbm = HBMInterface(sim, config)
        self.engine = InferenceEngine(
            sim, config, self.mmu, self.simd, self.program, scheduler
        )
        self.dispatcher = RequestDispatcher(
            sim, AdaptiveBatching(self.program.rows, timeout_cycles=1000),
            on_batch=self.engine.enqueue,
        )
        self.training = None
        if training_model is not None:
            train_prog = compiler.compile_training(
                training_model, batch=training_batch
            )
            self.training = TrainingEngine(
                sim, config, self.mmu, self.simd, self.hbm, train_prog,
                scheduler, inference_queue_size=lambda: self.dispatcher.queue_size,
            )
        self.mmu.set_policy(scheduler, lambda: self.dispatcher.queue_size)


class TestInferenceEngine:
    def test_batch_completes_and_records_latency(self, sim, small_config, tiny_model):
        bench = _Bench(sim, small_config, tiny_model, InferenceOnlyScheduler())
        for _ in range(bench.program.rows):
            bench.dispatcher.submit()
        sim.run()
        assert bench.engine.batches_completed == 1
        assert bench.engine.latency.count == bench.program.rows
        assert bench.engine.latency.max() > 0

    def test_latency_includes_formation_wait(self, sim, small_config, tiny_model):
        bench = _Bench(sim, small_config, tiny_model, InferenceOnlyScheduler())
        bench.dispatcher.submit()  # lone request waits for the timeout
        sim.run()
        assert bench.engine.latency.max() >= 1000

    def test_batches_complete_in_order(self, sim, small_config, tiny_model):
        bench = _Bench(sim, small_config, tiny_model, InferenceOnlyScheduler())
        for _ in range(3 * bench.program.rows):
            bench.dispatcher.submit()
        sim.run()
        assert bench.engine.batches_completed == 3

    def test_service_time_matches_analytic_chain(self, sim, small_config, tiny_model):
        """Unloaded batch latency = occupancy + drains + SIMD tails."""
        bench = _Bench(sim, small_config, tiny_model, InferenceOnlyScheduler())
        for _ in range(bench.program.rows):
            bench.dispatcher.submit()
        sim.run()
        drain = small_config.pipeline_drain_cycles
        expected = sum(
            step.mmu_cycles + drain + step.simd.cycles
            for step in bench.program.steps
        )
        assert bench.engine.latency.max() == pytest.approx(expected, rel=0.01)

    def test_two_batches_in_flight(self, sim, small_config, tiny_model):
        """The two activation banks hold two batches in the datapath; a
        third starts only when one of them completes."""
        bench = _Bench(sim, small_config, tiny_model, InferenceOnlyScheduler())
        formed = []

        def _enqueue(batch):
            formed.append(batch)
            bench.engine.enqueue(batch)

        bench.dispatcher.on_batch = _enqueue
        for _ in range(3 * bench.program.rows):
            bench.dispatcher.submit()
        assert [batch.started_cycle for batch in formed] == [0.0, 0.0, None]
        sim.run()
        first_done = min(formed[0].completion_cycle, formed[1].completion_cycle)
        assert formed[2].started_cycle == first_done > 0.0

    def test_backlog_counts_real_requests_of_queued_batches(
        self, sim, small_config, tiny_model
    ):
        bench = _Bench(sim, small_config, tiny_model, InferenceOnlyScheduler())
        for _ in range(4 * bench.program.rows):
            bench.dispatcher.submit()
        queued = list(bench.engine._queue)
        assert queued  # two batches run, the rest wait
        assert bench.engine.backlog_requests == sum(
            batch.real_count for batch in queued
        )
        sim.run()
        assert bench.engine.backlog_requests == 0


class TestTrainingEngine:
    def test_completes_iterations_on_idle_machine(self, sim, small_config, tiny_model):
        bench = _Bench(
            sim, small_config, tiny_model, PriorityScheduler(16),
            training_model=tiny_model,
        )
        bench.training.start()
        sim.run(until=5e5)
        assert bench.training.iterations_completed >= 1

    def test_respects_allows_training(self, sim, small_config, tiny_model):
        bench = _Bench(
            sim, small_config, tiny_model, InferenceOnlyScheduler(),
            training_model=tiny_model,
        )
        bench.training.start()
        sim.run(until=1e5)
        assert bench.training.iterations_completed == 0

    def test_double_start_rejected(self, sim, small_config, tiny_model):
        bench = _Bench(
            sim, small_config, tiny_model, PriorityScheduler(16),
            training_model=tiny_model,
        )
        bench.training.start()
        with pytest.raises(RuntimeError):
            bench.training.start()

    def test_training_streams_weights_from_dram(self, sim, small_config, tiny_model):
        bench = _Bench(
            sim, small_config, tiny_model, PriorityScheduler(16),
            training_model=tiny_model,
        )
        sizes = []
        transfer = bench.hbm.transfer

        def _recording(size_bytes, *args, **kwargs):
            sizes.append(size_bytes)
            transfer(size_bytes, *args, **kwargs)

        bench.hbm.transfer = _recording
        bench.training.start()
        sim.run(until=5e5)
        steps = bench.training.program.steps
        streams = {
            step.stream_bytes / len(step.mmu_jobs) for step in steps if step.mmu_jobs
        }
        syncs = {step.dram_bytes for step in steps if not step.mmu_jobs}
        assert min(streams) > 0 and max(syncs) > 0
        assert streams & set(sizes)  # per-job weight streams
        assert syncs & set(sizes)  # parameter-server exchange
        assert bench.hbm.bytes_transferred >= sum(sizes)

    def test_iterations_have_positive_duration(self, sim, small_config, tiny_model):
        bench = _Bench(
            sim, small_config, tiny_model, PriorityScheduler(16),
            training_model=tiny_model,
        )
        bench.training.start()
        sim.run(until=5e5)
        assert all(
            record.duration_cycles > 0 for record in bench.training.iterations
        )


class TestOneDrainPerStep:
    """Only a step's last job to reach the MMU carries a drain callback.
    ECC retries land a step's streams out of job order and MMU stalls
    stretch occupancies, yet the step must finish exactly once, when
    that job drains."""

    def test_step_finishes_when_its_last_granted_job_drains(self, small_config):
        model = ModelSpec(
            name="rnn",
            layers=(
                GemmLayer(
                    name="cell", k=256, n_out=512, repeats=2,
                    simd_ops_per_sample=64.0,
                ),
            ),
        )
        accelerator = EquinoxAccelerator(
            small_config, model, training_model=model, training_batch=8,
            chunk_us=0.05,
            fault_plan=FaultPlan(
                seed=3,
                hbm=HBMFaultSpec(error_rate=0.3, max_retries=2),
                mmu=MMUFaultSpec(stall_rate=0.3, stall_cycles=50.0),
            ),
        )
        sim, mmu = accelerator.sim, accelerator.mmu
        engine = accelerator.training_engine
        handoffs, completed, finished = [], [], []

        def spy(owner, name, record):
            method = getattr(owner, name)

            def wrapper(*args):
                record(*args)
                method(*args)

            setattr(owner, name, wrapper)

        # (iteration, step, job) in MMU hand-off order; the MMU queues
        # are FIFO, so training grants and completions follow it.
        spy(engine, "_issue_job", lambda step, job: handoffs.append(
            (len(engine.iterations), step, job)
        ))
        spy(engine, "_finish_step", lambda step: finished.append(
            (len(engine.iterations), step, sim.now)
        ))
        # ``_advance`` retires the job in service, if any: its stream
        # entry is ``(jobs, real_rows, context, on_issue, on_done)``.
        spy(mmu, "_advance", lambda: mmu._svc_job is not None and completed.append(
            (mmu._svc_stream[2], sim.now)
        ))
        accelerator.run(load=0.3, requests=200, seed=5)

        assert accelerator.fault_counters.hbm_retries > 0
        assert accelerator.fault_counters.mmu_stalls > 0
        training_done = [now for context, now in completed if context == "training"]
        jobs_of, last_done = {}, {}
        for (iteration, step, job), done in zip(handoffs, training_done):
            jobs_of.setdefault((iteration, step), []).append(job)
            last_done[(iteration, step)] = done
        assert any(jobs != sorted(jobs) for jobs in jobs_of.values())

        drain = small_config.pipeline_drain_cycles
        step_jobs = [len(step.mmu_jobs) for step in engine.program.steps]
        drained = {
            key: done + drain for key, done in last_done.items()
            if len(jobs_of[key]) == step_jobs[key[1]] and done + drain <= sim.now
        }
        assert len(drained) > 10
        finishes = {(iteration, step): now for iteration, step, now in finished}
        assert len(finishes) == len(finished)  # none finished twice
        assert finishes == drained


class TestTrainingStreamSizing:
    """Stream shares are fixed at install time, not re-derived per
    prefetch."""

    def test_weight_bytes_not_resummed_per_prefetch(self, monkeypatch):
        accelerator = build_accelerator("500us", training_model=deepbench_lstm())
        original = StepProgram.weight_bytes
        evaluations = [0]

        def counting(step):
            evaluations[0] += 1
            return original.fget(step)

        monkeypatch.setattr(StepProgram, "weight_bytes", property(counting))
        simulate_load_point(accelerator, 0.2, batches=1, seed=0)
        prefetches = accelerator.spans.summary()["train.prefetch"]["count"]
        assert prefetches > accelerator.training_program.step_count
        assert evaluations[0] <= accelerator.training_program.step_count

    @pytest.mark.parametrize(
        "model, chunk_us",
        [
            (deepbench_lstm, 2.0),
            (lambda: deepbench_gru(steps=60), 20.0),
            (resnet50, 4.0),
        ],
        ids=["lstm", "gru", "resnet50"],
    )
    def test_job_shares_match_the_verifier_exactly(self, model, chunk_us):
        accelerator = build_accelerator(
            "500us", training_model=model(), chunk_us=chunk_us
        )
        program = accelerator.training_program
        shares = accelerator.training_engine._job_stream_bytes
        assert len(shares) == program.step_count
        for step, share in zip(program.steps, shares):
            if not step.mmu_jobs:
                assert share == 0.0
                continue
            stream = sum(job.weight_bytes for job in step.mmu_jobs) + sum(
                r.bytes for r in step.dram if r.kind == "stash_in"
            )
            assert step.stream_bytes == stream
            assert share == stream / len(step.mmu_jobs)
