"""SLO service classes, the registry, and tenant specs."""

import pytest

from repro.serve.classes import (
    BATCH_TRAINING,
    BEST_EFFORT,
    CONTEXT_INFERENCE,
    CONTEXT_TRAINING,
    LATENCY_CRITICAL,
    ServiceClass,
    TenantSpec,
    service_class,
)
from repro.workload.metrics import SLO_MULTIPLE


class TestServiceClass:
    def test_slo_cycles_scales_with_service_time(self):
        cls = ServiceClass(name="x", slo_multiple=10.0)
        assert cls.slo_cycles(1000.0) == 10000.0
        assert cls.slo_cycles(250.0) == 2500.0

    def test_share_calibrates_to_the_chip(self):
        cls = ServiceClass(
            name="x", weight=4.0, queue_depth_batches=2.5,
            deadline_multiple=3.0,
        )
        share = cls.share("tenant-a", batch_slots=8, batch_service_cycles=1000.0)
        assert share.name == "tenant-a"
        assert share.weight == 4.0
        assert share.max_queue_requests == 20  # ceil(2.5 * 8)
        assert share.deadline_cycles == 3000.0

    def test_share_without_deadline(self):
        cls = ServiceClass(name="x", deadline_multiple=None)
        share = cls.share("t", batch_slots=4, batch_service_cycles=500.0)
        assert share.deadline_cycles is None

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ServiceClass(name="")
        with pytest.raises(ValueError):
            ServiceClass(name="x", context="gpu")
        with pytest.raises(ValueError):
            ServiceClass(name="x", slo_multiple=0.0)
        with pytest.raises(ValueError):
            ServiceClass(name="x", weight=-1.0)
        with pytest.raises(ValueError):
            ServiceClass(name="x", queue_depth_batches=0.0)
        with pytest.raises(ValueError):
            ServiceClass(name="x", deadline_multiple=0.0)

    def test_dict_round_trip(self):
        restored = ServiceClass.from_dict(LATENCY_CRITICAL.to_dict())
        assert restored == LATENCY_CRITICAL


class TestBuiltinTiers:
    def test_registry_holds_the_three_tiers(self):
        for cls in (LATENCY_CRITICAL, BEST_EFFORT, BATCH_TRAINING):
            assert service_class(cls.name) == cls

    def test_latency_critical_is_the_paper_slo(self):
        assert LATENCY_CRITICAL.slo_multiple == SLO_MULTIPLE
        assert LATENCY_CRITICAL.context == CONTEXT_INFERENCE

    def test_only_training_uses_the_training_context(self):
        assert BATCH_TRAINING.context == CONTEXT_TRAINING
        assert BEST_EFFORT.context == CONTEXT_INFERENCE

    def test_weights_order_the_tiers(self):
        assert (
            LATENCY_CRITICAL.weight > BEST_EFFORT.weight > BATCH_TRAINING.weight
        )

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError, match="unknown service class"):
            service_class("platinum")


class TestTenantSpec:
    def test_slo_property_resolves_the_class(self):
        spec = TenantSpec("alice", "latency-critical", 0.25)
        assert spec.slo == LATENCY_CRITICAL

    def test_validates_eagerly(self):
        with pytest.raises(ValueError):
            TenantSpec("", "latency-critical", 0.25)
        with pytest.raises(ValueError):
            TenantSpec("alice", "latency-critical", 0.0)
        with pytest.raises(ValueError, match="unknown service class"):
            TenantSpec("alice", "no-such-tier", 0.25)

    def test_dict_round_trip(self):
        spec = TenantSpec("bob", "best-effort", 1.5)
        assert TenantSpec.from_dict(spec.to_dict()) == spec
