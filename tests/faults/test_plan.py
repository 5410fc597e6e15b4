"""FaultPlan: spec validation, seeded substreams, descriptions."""

import numpy as np
import pytest

from repro.faults.plan import (
    FaultPlan,
    HBMFaultSpec,
    MMUFaultSpec,
    RequestFaultSpec,
    WorkerFaultSpec,
)


class TestSpecValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            HBMFaultSpec(error_rate=1.5)
        with pytest.raises(ValueError):
            MMUFaultSpec(stall_rate=-0.1)
        with pytest.raises(ValueError):
            RequestFaultSpec(delay_rate=2.0)

    def test_drop_rate_one_rejected(self):
        # drop_rate == 1 would merge gaps forever: no request arrives.
        with pytest.raises(ValueError):
            RequestFaultSpec(drop_rate=1.0)

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError):
            HBMFaultSpec(max_retries=-1)
        with pytest.raises(ValueError):
            MMUFaultSpec(stall_cycles=-5.0)
        with pytest.raises(ValueError):
            RequestFaultSpec(delay_cycles=-1.0)

    def test_straggler_slowdown_must_exceed_one(self):
        with pytest.raises(ValueError):
            WorkerFaultSpec(stragglers=((0, 1.0),))
        with pytest.raises(ValueError):
            WorkerFaultSpec(stragglers=((0, 0.5),))

    def test_crash_and_straggle_overlap_rejected(self):
        with pytest.raises(ValueError):
            WorkerFaultSpec(crashed=(1,), stragglers=((1, 2.0),))

    def test_worker_spec_lookups(self):
        spec = WorkerFaultSpec(crashed=(2,), stragglers=((1, 3.0),))
        assert spec.is_crashed(2)
        assert not spec.is_crashed(1)
        assert spec.slowdown_for(1) == 3.0
        assert spec.slowdown_for(0) == 1.0


class TestEnabled:
    def test_none_plan_injects_nothing(self):
        assert not FaultPlan.none().enabled
        assert not FaultPlan.none(seed=42).enabled

    def test_any_spec_enables_the_plan(self):
        assert FaultPlan(hbm=HBMFaultSpec(error_rate=0.1)).enabled
        assert FaultPlan(mmu=MMUFaultSpec(stall_rate=0.1, stall_cycles=5)).enabled
        assert FaultPlan(requests=RequestFaultSpec(drop_rate=0.1)).enabled
        assert FaultPlan(workers=WorkerFaultSpec(crashed=(0,))).enabled

    def test_zero_rate_specs_stay_disabled(self):
        assert not HBMFaultSpec().enabled
        assert not MMUFaultSpec(stall_rate=0.5).enabled  # zero stall cycles
        assert not RequestFaultSpec(delay_rate=0.5).enabled  # zero delay


class TestSubstreams:
    def test_same_component_same_stream(self):
        plan = FaultPlan(seed=11)
        first = plan.rng("hbm").random(8)
        second = plan.rng("hbm").random(8)
        assert np.array_equal(first, second)

    def test_components_are_decorrelated(self):
        plan = FaultPlan(seed=11)
        assert not np.array_equal(
            plan.rng("hbm").random(8), plan.rng("mmu").random(8)
        )

    def test_instances_are_decorrelated(self):
        plan = FaultPlan(seed=11)
        assert not np.array_equal(
            plan.rng("hbm", instance=0).random(8),
            plan.rng("hbm", instance=1).random(8),
        )

    def test_seed_changes_every_stream(self):
        assert not np.array_equal(
            FaultPlan(seed=1).rng("hbm").random(8),
            FaultPlan(seed=2).rng("hbm").random(8),
        )

