"""The snapshot contract: ``to_state`` / ``from_state``.

A *snapshotable* class exposes a symmetric pair

* ``to_state() -> dict`` — a canonical-JSON-able description of every
  piece of mutable state the object owns, and
* ``from_state(state, ...) -> None`` (or a classmethod returning a new
  instance) — the inverse, restoring an object that behaves
  **bit-exactly** like the original from that point on.

"Bit-exact" is the whole contract: after restore, continuing the run
must produce artifacts byte-identical to the uninterrupted run. State a
class cannot faithfully restore (in-flight event closures, live OS
handles) must make the snapshot *fail loudly* with
:class:`SnapshotError` rather than silently degrade — callers then
snapshot at a documented quiescence point instead (run boundaries for
the accelerator, iteration boundaries for the training engine, round
boundaries for the fleet; see DESIGN.md).

``CHECKPOINT_ROOTS`` names the classes checkpoints start from. The
EQX406 whole-program rule walks the attribute graph from these roots
and errors on any reachable stateful class whose ``to_state`` /
``from_state`` pair is missing or asymmetric — the table is parsed
statically, so keep it a literal dict of ``root_id: "module:Class"``.
"""

from typing import Any, Dict

import numpy as np

# SnapshotError lives at the bottom of the import graph (the simulator
# both raises it and is imported by half the codebase); this module is
# its public home.
from repro.sim.engine import SnapshotError

__all__ = ["CHECKPOINT_ROOTS", "SnapshotError", "restore_rng", "rng_state"]


#: The classes checkpoints are rooted at, as ``root_id: "module:Class"``.
#: Parsed statically by the EQX406 snapshot-coverage rule: every
#: stateful class reachable from these roots through ``__init__``
#: attribute assignments must carry a symmetric to_state/from_state
#: pair. Factory-constructed strategy classes (schedulers, batching
#: policies, arrival processes) are listed explicitly because attribute
#: type inference cannot see through their factories.
CHECKPOINT_ROOTS: Dict[str, str] = {
    "simulator": "repro.sim.engine:Simulator",
    "accelerator": "repro.core.equinox:EquinoxAccelerator",
    "fleet": "repro.cluster.fleet:EquinoxFleet",
    "scheduler.priority": "repro.core.scheduler:PriorityScheduler",
    "scheduler.fair": "repro.core.scheduler:FairScheduler",
    "scheduler.inference_only": "repro.core.scheduler:InferenceOnlyScheduler",
    "scheduler.software": "repro.core.scheduler:SoftwareScheduler",
    "batching.static": "repro.core.batching:StaticBatching",
    "batching.adaptive": "repro.core.batching:AdaptiveBatching",
    "arrivals.poisson": "repro.workload.loadgen:PoissonArrivals",
    "arrivals.uniform": "repro.workload.loadgen:UniformArrivals",
    "arrivals.faulty": "repro.workload.loadgen:FaultyArrivals",
    "arrivals.trace": "repro.workload.loadgen:TraceArrivals",
    "arrivals.mixed": "repro.workload.loadgen:MixedArrivals",
    "batching.pull": "repro.core.batching:PullBatching",
    "serve.router": "repro.serve.router:FleetRouter",
    "capture": "repro.eval.runner:ExperimentCapture",
    "sketch.quantile": "repro.obs.sketch:QuantileSketch",
    "fault.counters": "repro.faults.counters:FaultCounters",
}


def rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """A numpy Generator's stream position as canonical-JSON-able state.

    PCG64 state is a nest of plain (big) integers, which Python's JSON
    round-trips exactly — no precision caveats.
    """
    return {"bit_generator": dict(rng.bit_generator.state)}


def restore_rng(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    """Rewind ``rng`` to a position captured by :func:`rng_state`.

    The generator must already be of the same bit-generator family
    (always ``default_rng`` here); numpy validates and raises otherwise.
    """
    raw = state["bit_generator"]
    # Canonical JSON round-trips dict values losslessly, but nested
    # state dicts come back as plain dicts — exactly what numpy wants.
    rng.bit_generator.state = {
        key: (dict(value) if isinstance(value, dict) else value)
        for key, value in raw.items()
    }
