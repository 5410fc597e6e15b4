"""Equinox core: the front-end that piggybacks training on inference.

This package implements the paper's §3 mechanisms:

* per-service hardware contexts (request queue + instruction counter +
  exclusive buffer space) so inference and training services co-reside
  (:mod:`repro.core.contexts`);
* static and adaptive batch formation with the installation-time
  timeout threshold (:mod:`repro.core.batching`, Figure 11);
* the instruction-controller scheduling policies — hardware priority
  with the inference-queue spike guard, fair share, inference-only, and
  a software scheduler model (:mod:`repro.core.scheduler`, Figure 10);
* the request and instruction dispatchers driving the datapath models
  (:mod:`repro.core.dispatcher`);
* the :class:`~repro.core.equinox.EquinoxAccelerator` facade that wires
  everything to a simulator and runs load experiments.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.batching import AdaptiveBatching, BatchingPolicy, StaticBatching
    from repro.core.contexts import ServiceContext
    from repro.core.dispatcher import InferenceEngine, RequestDispatcher, TrainingEngine
    from repro.core.equinox import EquinoxAccelerator, SimulationReport
    from repro.core.requests import Batch, InferenceRequest, TrainingIterationRecord
    from repro.core.scheduler import (
        FairScheduler,
        InferenceOnlyScheduler,
        PriorityScheduler,
        SchedulingPolicy,
        SoftwareScheduler,
        make_scheduler,
    )

__all__ = [
    "InferenceRequest",
    "Batch",
    "TrainingIterationRecord",
    "BatchingPolicy",
    "StaticBatching",
    "AdaptiveBatching",
    "SchedulingPolicy",
    "PriorityScheduler",
    "FairScheduler",
    "InferenceOnlyScheduler",
    "SoftwareScheduler",
    "make_scheduler",
    "ServiceContext",
    "RequestDispatcher",
    "InferenceEngine",
    "TrainingEngine",
    "EquinoxAccelerator",
    "SimulationReport",
]

__getattr__ = lazy_exports(__name__, {
    "AdaptiveBatching": "repro.core.batching",
    "BatchingPolicy": "repro.core.batching",
    "StaticBatching": "repro.core.batching",
    "ServiceContext": "repro.core.contexts",
    "InferenceEngine": "repro.core.dispatcher",
    "RequestDispatcher": "repro.core.dispatcher",
    "TrainingEngine": "repro.core.dispatcher",
    "EquinoxAccelerator": "repro.core.equinox",
    "SimulationReport": "repro.core.equinox",
    "Batch": "repro.core.requests",
    "InferenceRequest": "repro.core.requests",
    "TrainingIterationRecord": "repro.core.requests",
    "FairScheduler": "repro.core.scheduler",
    "InferenceOnlyScheduler": "repro.core.scheduler",
    "PriorityScheduler": "repro.core.scheduler",
    "SchedulingPolicy": "repro.core.scheduler",
    "SoftwareScheduler": "repro.core.scheduler",
    "make_scheduler": "repro.core.scheduler",
})
