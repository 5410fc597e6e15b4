"""The four end-to-end workloads, built only from public ``repro`` calls.

Each workload is a fixed list of operations. An operation has a set-up
phase (model construction, ``build_accelerator`` with its compile and
install gate, or a ``*_setup`` trainer build) and a run phase
(``simulate_load_point`` or ``Trainer.fit``). Every input is a function
of the benchmark seed: load points pass it to the Poisson arrival
process, training curves shift their data seeds by it.

Sizes are CI-scale: one child process runs one whole workload in about
3-5 s of host time on a 2-vCPU Xeon VM, so a 15 s measurement holds
several repeats. See README.md for why each workload exists.
"""

import dataclasses
import math
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.dse.table1 import equinox_configuration
from repro.eval.runner import build_accelerator, simulate_load_point
from repro.eval.table2 import PAPER as TABLE2_PAPER
from repro.exec.canonical import config_digest
from repro.kernels import dispatch_counts
from repro.models.gru import deepbench_gru
from repro.models.lstm import deepbench_lstm
from repro.models.resnet import resnet50
from repro.models.training import build_training_plan
from repro.train.convergence import classification_setup, language_model_setup

MODELS: Dict[str, Callable[[], Any]] = {
    "lstm": deepbench_lstm,
    # 60 steps, not Table 2's 1500: modelled throughput does not depend
    # on the step count, and a shorter batch lets more batches fit the
    # host-time budget. With only a few batches the horizon is a few
    # run slices long, and the host time swings with the seed.
    "gru": lambda: deepbench_gru(steps=60),
    "resnet50": lambda: resnet50(image_size=224),
    # Co-located training at 224 px fits only the minimum 500 requests
    # in the budget, and its host time then swings by 20% with the
    # seed; 112 px affords 2000.
    "resnet50-112px": lambda: resnet50(image_size=112),
}

#: task -> (setup function, data seed at benchmark seed 0, vocabulary
#: size or 0 when the task has no perplexity).
TASKS: Dict[str, Tuple[Callable[..., Any], int, int]] = {
    "classification": (classification_setup, 7, 0),
    "language_model": (language_model_setup, 11, 32),
}

#: Work counts that add up across a workload's load points.
SUMMED_COUNTS = (
    "sim.events", "sim.cycles", "core.requests", "core.train_iters",
    "core.prefetches", "core.train_steps", "obs.spans",
)


@dataclasses.dataclass(frozen=True)
class LoadPoint:
    """One offered-load point: Poisson arrivals at ``load`` x capacity."""

    model: str
    latency_class: str
    encoding: str
    load: float
    batches: int
    training: bool = False
    batching: str = "adaptive"
    batch_timeout_x: float = 2.0
    chunk_us: float = 2.0

    @property
    def id(self) -> str:
        parts = [self.model, self.latency_class, self.encoding, f"load{self.load:g}"]
        if self.batching != "adaptive":
            parts.append(self.batching)
        if self.batch_timeout_x != 2.0:
            parts.append(f"timeout{self.batch_timeout_x:g}x")
        if self.training:
            parts.append("train")
        return "/".join(parts)

    def setup(self, seed: int) -> Any:
        spec = MODELS[self.model]()
        return build_accelerator(
            self.latency_class,
            self.encoding,
            inference_model=spec,
            training_model=spec if self.training else None,
            batching=self.batching,
            batch_timeout_x=self.batch_timeout_x,
            chunk_us=self.chunk_us,
        )

    def run(self, accelerator: Any, seed: int) -> Any:
        return simulate_load_point(
            accelerator, self.load, batches=self.batches, seed=seed
        )

    def modelled(self, report: Any) -> Dict[str, Any]:
        # events_processed counts simulator bookkeeping, not modelled
        # behaviour: event coalescing may change it.
        fields = dataclasses.asdict(report)
        del fields["events_processed"]
        return fields

    def broken(self, report: Any) -> List[str]:
        failures = []
        if report.requests_completed > report.requests_submitted:
            failures.append("completed > submitted")
        if report.requests_completed > 0 and not (
            math.isfinite(report.p99_latency_us) and report.p99_latency_us > 0
        ):
            failures.append(f"p99 {report.p99_latency_us} not finite positive")
        if self.training and not report.training_top_s > 0:
            failures.append("training installed but training_top_s <= 0")
        return failures

    def counts(self, accelerator: Any, report: Any) -> Dict[str, float]:
        spans = accelerator.spans.summary()
        breakdown = report.cycle_breakdown
        cycles = report.duration_cycles
        return {
            "sim.events": report.events_processed,
            "sim.cycles": cycles,
            "core.requests": report.requests_completed,
            "core.train_iters": report.training_iterations,
            "core.prefetches": spans.get("train.prefetch", {}).get("count", 0),
            "core.train_steps": spans.get("train.step", {}).get("count", 0),
            "obs.spans": sum(entry["count"] for entry in spans.values()),
            "busy_cycles": (1.0 - breakdown.get("idle", 1.0)) * cycles,
            "dummy_cycles": breakdown.get("dummy", 0.0) * cycles,
            "dram_gb": report.dram_gb_s * report.duration_s,
            "seconds": report.duration_s,
        }


@dataclasses.dataclass(frozen=True)
class Curve:
    """One Figure-2 training curve: ``*_setup`` then ``Trainer.fit``."""

    task: str
    encoding: str
    epochs: int

    @property
    def id(self) -> str:
        return f"{self.task}/{self.encoding}/{self.epochs}ep"

    def setup(self, seed: int) -> Any:
        setup, data_seed, _ = TASKS[self.task]
        return setup(self.encoding, seed=data_seed + seed)

    def run(self, state: Any, seed: int) -> Any:
        trainer, train, valid = state
        return trainer.fit(train, valid, self.epochs, self.encoding)

    def modelled(self, curve: Any) -> Dict[str, Any]:
        return dataclasses.asdict(curve)

    def broken(self, curve: Any) -> List[str]:
        vocab = TASKS[self.task][2]
        if vocab and not curve.final_perplexity < vocab:
            return [f"final perplexity {curve.final_perplexity} >= vocab {vocab}"]
        return []

    def counts(self, state: Any, curve: Any) -> Dict[str, float]:
        return {}


Op = Union[LoadPoint, Curve]

FIG9_500US = LoadPoint("lstm", "500us", "hbfp8", 0.6, 3, training=True)
FIG9_MIN = LoadPoint("lstm", "min", "hbfp8", 0.6, 3, training=True)
GRU_SATURATED = LoadPoint("gru", "500us", "hbfp8", 1.2, 10, chunk_us=20.0)
GRU_COLOCATED = LoadPoint(
    "gru", "500us", "hbfp8", 0.6, 10, training=True, chunk_us=20.0
)
RESNET_SATURATED = LoadPoint("resnet50", "500us", "hbfp8", 1.2, 4, chunk_us=4.0)
RESNET_COLOCATED = LoadPoint(
    "resnet50-112px", "500us", "hbfp8", 0.6, 250, training=True, chunk_us=4.0
)
CLASSIFICATION = [Curve("classification", enc, 6) for enc in ("fp32", "hbfp8")]
LANGUAGE_MODEL = [Curve("language_model", enc, 3) for enc in ("fp32", "hbfp8")]

WORKLOADS: Dict[str, List[Op]] = {
    # Figures 9 and 11c: LSTM inference with LSTM training harvesting
    # the idle cycles. Low loads give long horizons in which training's
    # prefetch/stream path dominates host time.
    "colocated": [
        LoadPoint("lstm", latency_class, "hbfp8", load, 3, training=True)
        for latency_class in ("min", "none", "50us", "500us")
        for load in (0.2, 0.6)
    ]
    + [
        LoadPoint(
            "lstm", "500us", "hbfp8", 0.08, 3, training=True, batch_timeout_x=x
        )
        for x in (2.0, 10.0)
    ],
    # Figures 7 and 11a: inference alone, so the per-request path runs
    # and training never does.
    "inference": [
        LoadPoint("lstm", latency_class, encoding, load, 12)
        for encoding, classes in (
            ("hbfp8", ("min", "none", "50us", "500us")),
            ("bfloat16", ("min", "none", "500us")),
        )
        for latency_class in classes
        for load in (0.1, 0.5, 0.95)
    ]
    + [
        LoadPoint("lstm", "500us", "hbfp8", load, 12, batching="static")
        for load in (0.08, 0.95)
    ],
    # Table 2 without the LSTM row: few, huge programs. Saturated
    # inference (load 1.2, the backlog grows) and co-located training.
    "long_program": [GRU_SATURATED, GRU_COLOCATED, RESNET_SATURATED, RESNET_COLOCATED],
    # Figure 2: HBFP numerics with no event simulator at all.
    "convergence": CLASSIFICATION + LANGUAGE_MODEL,
}


def digest(op: Op, output: Any) -> str:
    """sha256 of the canonical JSON of an operation's modelled output."""
    return config_digest(op.modelled(output))


def totals(per_op: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer work counts of one workload run, summed over its ops."""
    summed: Counter = Counter()
    for counts in per_op:
        summed.update(counts)
    cycles, seconds = summed["sim.cycles"], summed["seconds"]
    out = {name: float(summed[name]) for name in SUMMED_COUNTS}
    out["hw.mmu_busy_frac"] = summed["busy_cycles"] / cycles if cycles else 0.0
    out["hw.mmu_dummy_frac"] = summed["dummy_cycles"] / cycles if cycles else 0.0
    out["hw.dram_gb_s"] = summed["dram_gb"] / seconds if seconds else 0.0
    out["kernels.dispatches"] = float(
        sum(sum(per_backend.values()) for per_backend in dispatch_counts().values())
    )
    return out


def sidecar(workload: str, outputs: Dict[str, Any]) -> List[List[Any]]:
    """Modelled values next to the paper's, as ``[label, ours, paper]``,
    for the operations that completed.

    The paper's numbers come from its own simulator; there is no
    measurement on real hardware to compare against.
    """
    rows: List[List[Any]] = []

    def add(
        label: str, ops: List[Op], value: Callable[..., float], paper: float
    ) -> None:
        if all(op.id in outputs for op in ops):
            rows.append([label, value(*(outputs[op.id] for op in ops)), paper])

    if workload == "colocated":
        dedicated = build_training_plan(
            deepbench_lstm(), equinox_configuration("none")
        ).dedicated_throughput_top_s()
        for op, paper in ((FIG9_500US, 0.78), (FIG9_MIN, 0.19)):
            add(
                f"fig9 {op.latency_class} training at 60% load, "
                "fraction of dedicated accelerator",
                [op], lambda r: r.training_top_s / dedicated, paper,
            )
    elif workload == "long_program":
        for model, colocated, saturated, note in (
            ("gru", GRU_COLOCATED, GRU_SATURATED, ""),
            ("resnet50", RESNET_COLOCATED, RESNET_SATURATED,
             " (112 px; paper: 224 px)"),
        ):
            paper_training, paper_inference, _ = TABLE2_PAPER[model]
            add(
                f"table2 {model} training TOp/s at 60% load{note}",
                [colocated], lambda r: r.training_top_s, paper_training,
            )
            add(
                f"table2 {model} max inference TOp/s",
                [saturated], lambda r: r.inference_top_s, paper_inference,
            )
    elif workload == "convergence":
        add(
            "fig2 final validation error gap |hbfp8 - fp32|, points",
            CLASSIFICATION,
            lambda fp32, hbfp8: abs(hbfp8.final_error - fp32.final_error), 0.0,
        )
        add(
            "fig2 final perplexity ratio hbfp8 / fp32",
            LANGUAGE_MODEL,
            lambda fp32, hbfp8: hbfp8.final_perplexity / fp32.final_perplexity, 1.0,
        )
    return rows
