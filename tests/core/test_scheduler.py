"""Instruction-controller scheduling policies."""

import pytest

from repro.core.scheduler import (
    FairScheduler,
    InferenceOnlyScheduler,
    PriorityScheduler,
    SoftwareScheduler,
    make_scheduler,
)


class TestPriorityScheduler:
    @pytest.fixture
    def policy(self):
        return PriorityScheduler(queue_threshold=10)

    def test_round_robin_below_threshold(self, policy):
        assert policy.select_queue(True, True, 5, "inference") == "training"
        assert policy.select_queue(True, True, 5, "training") == "inference"

    def test_spike_dedicates_to_inference(self, policy):
        assert policy.select_queue(True, True, 11, "training") == "inference"
        assert policy.select_queue(True, True, 11, "inference") == "inference"

    def test_training_alone_allowed_when_calm(self, policy):
        assert policy.select_queue(False, True, 0, "inference") == "training"

    def test_training_alone_held_during_spike(self, policy):
        """During a spike the controller holds every resource for the
        inference requests about to issue (paper §3.2)."""
        assert policy.select_queue(False, True, 11, "inference") is None

    def test_inference_alone(self, policy):
        assert policy.select_queue(True, False, 0, "training") == "inference"

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            PriorityScheduler(queue_threshold=0)


class TestFairScheduler:
    def test_always_alternates(self):
        policy = FairScheduler()
        assert policy.select_queue(True, True, 10**6, "inference") == "training"
        assert policy.select_queue(True, True, 10**6, "training") == "inference"

    def test_single_ready_queue(self):
        policy = FairScheduler()
        assert policy.select_queue(True, False, 0, "training") == "inference"
        assert policy.select_queue(False, True, 0, "inference") == "training"

    def test_nothing_ready(self):
        assert FairScheduler().select_queue(False, False, 0, "inference") is None


class TestInferenceOnly:
    def test_never_training(self):
        policy = InferenceOnlyScheduler()
        assert not policy.allows_training
        assert policy.select_queue(False, True, 0, "inference") is None
        assert policy.select_queue(True, True, 0, "training") == "inference"


class TestSoftwareScheduler:
    def test_commit_requires_empty_queue(self):
        policy = SoftwareScheduler(decision_latency_cycles=100)
        assert not policy.can_commit_training_block(1, now=1e6)

    def test_commit_requires_quiet_interval(self):
        policy = SoftwareScheduler(decision_latency_cycles=100)
        policy.note_inference_activity(1000.0)
        assert not policy.can_commit_training_block(0, now=1050.0)
        assert policy.can_commit_training_block(0, now=1100.0)

    def test_blocks_are_not_preemptable(self):
        assert SoftwareScheduler(10).training_blocks_preemption()

    def test_grants_fifo(self):
        policy = SoftwareScheduler(10)
        assert policy.select_queue(True, True, 0, "training") == "inference"

    def test_rejects_bad_latency(self):
        with pytest.raises(ValueError):
            SoftwareScheduler(decision_latency_cycles=0)


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("priority", PriorityScheduler),
            ("fair", FairScheduler),
            ("inference_only", InferenceOnlyScheduler),
            ("software", SoftwareScheduler),
        ],
    )
    def test_builds_each_kind(self, kind, cls):
        assert isinstance(make_scheduler(kind, queue_threshold=5), cls)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("lottery")


class TestLoneInferenceContract:
    """Every policy grants inference when its queue is the only one
    ready: the spike guard and degraded mode only ever withhold
    training. The MMU arbiter relies on this to skip the policy while
    no training job waits."""

    POLICIES = {
        "priority": lambda: PriorityScheduler(queue_threshold=10),
        "fair": FairScheduler,
        "inference_only": InferenceOnlyScheduler,
        "software": lambda: SoftwareScheduler(10),
    }

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("backlog", [0, 10**9])
    @pytest.mark.parametrize("last_granted", ["inference", "training"])
    def test_lone_inference_queue_is_granted(
        self, name, degraded, backlog, last_granted
    ):
        policy = self.POLICIES[name]()
        policy.set_degraded(degraded)
        assert policy.select_queue(True, False, backlog, last_granted) == (
            "inference"
        )
