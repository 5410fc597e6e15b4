"""Chaos runs are byte-for-byte reproducible from their FaultPlan seed
(the point of seeding every injection site), and decorrelated where
decorrelation is the contract (worker substreams)."""

import pytest

from repro.cluster.fleet import EquinoxFleet
from repro.core.equinox import EquinoxAccelerator
from repro.faults.admission import AdmissionControl
from repro.faults.plan import (
    FaultPlan,
    HBMFaultSpec,
    MMUFaultSpec,
    RequestFaultSpec,
    WorkerFaultSpec,
)
from repro.hw.config import AcceleratorConfig


@pytest.fixture
def config():
    return AcceleratorConfig(name="bench", n=8, m=4, w=4, frequency_hz=1e9)


def everything_plan(seed):
    return FaultPlan(
        seed=seed,
        hbm=HBMFaultSpec(error_rate=0.05, max_retries=2),
        mmu=MMUFaultSpec(stall_rate=0.1, stall_cycles=500.0),
        requests=RequestFaultSpec(
            drop_rate=0.05, delay_rate=0.1, delay_cycles=200.0
        ),
    )


def accel_report(config, model, seed):
    accelerator = EquinoxAccelerator(
        config, model, training_model=model, training_batch=8,
        chunk_us=0.05,
        fault_plan=everything_plan(seed),
        admission=AdmissionControl(
            max_queue_requests=64, deadline_cycles=50_000.0,
            max_retries=1, backoff_cycles=1_000.0,
        ),
    )
    return accelerator.run(load=0.5, requests=64, seed=seed)


def report_key(report):
    return (
        report.p99_latency_us,
        report.mean_latency_us,
        report.max_latency_us,
        report.requests_submitted,
        report.requests_completed,
        report.inference_top_s,
        report.training_top_s,
        report.rejected_requests,
        report.request_timeouts,
        tuple(sorted(report.faults.as_dict().items())),
    )


class TestAcceleratorDeterminism:
    def test_same_seed_identical_reports(self, config, tiny_model):
        first = accel_report(config, tiny_model, seed=13)
        second = accel_report(config, tiny_model, seed=13)
        assert report_key(first) == report_key(second)
        assert first.faults.faults_injected > 0  # chaos actually ran

    def test_different_seed_differs(self, config, tiny_model):
        first = accel_report(config, tiny_model, seed=13)
        second = accel_report(config, tiny_model, seed=14)
        assert report_key(first) != report_key(second)


def fleet_report(seed):
    plan = FaultPlan(
        seed=seed,
        hbm=HBMFaultSpec(error_rate=0.002, max_retries=3),
        workers=WorkerFaultSpec(crashed=(2,)),
    )
    fleet = EquinoxFleet(3, fault_plan=plan, min_workers=2)
    return fleet.train([0.4, 0.5, 0.4], batches=1, seed=seed)


def fleet_key(report):
    return (
        report.samples_per_s,
        report.fleet_training_top_s,
        report.round,
        tuple(report.workers),
        tuple(sorted(report.faults.as_dict().items())),
    )


class TestFleetDeterminism:
    def test_same_seed_identical_fleet_reports(self):
        assert fleet_key(fleet_report(21)) == fleet_key(fleet_report(21))

    def test_workers_are_decorrelated(self):
        # Same load on every worker: identical fault/arrival streams
        # would produce identical measurements, masking fleet variance.
        fleet = EquinoxFleet(
            3,
            fault_plan=FaultPlan(
                seed=5, hbm=HBMFaultSpec(error_rate=0.01, max_retries=3)
            ),
        )
        report = fleet.train([0.5, 0.5, 0.5], batches=1, seed=5)
        p99s = [w.p99_latency_us for w in report.workers]
        iters = [w.iteration_s for w in report.workers]
        assert len(set(p99s)) > 1
        assert len(set(iters)) > 1
