"""Table 2: workload sensitivity (LSTM, GRU, ResNet50) on Equinox_500µs.

Per model: training throughput at 60 % inference load, maximum
inference throughput, and unloaded inference latency. Shapes to check:
LSTM and GRU deliver the same inference and training throughput despite
two orders of magnitude difference in service time; ResNet50 runs at a
fraction of peak because its lowered-convolution GEMMs tile poorly on
the large MMU.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.eval.report import render_table
from repro.eval.runner import run_load_points

#: Paper values: model -> (train TOp/s @60%, max inf TOp/s, latency ms).
PAPER = {
    "lstm": (83.4, 319.0, 0.5),
    "gru": (83.4, 319.0, 36.6),
    "resnet50": (18.0, 67.0, 1.32),
}


@dataclass(frozen=True)
class Table2Result:
    #: model key -> (train TOp/s @60% load, max inf TOp/s, latency ms).
    rows: Dict[str, Tuple[float, float, float]]

    def recurrent_throughputs_match(self, tolerance: float = 0.15) -> bool:
        """LSTM and GRU should deliver near-identical throughput."""
        lstm, gru = self.rows["lstm"], self.rows["gru"]
        return (
            abs(lstm[0] - gru[0]) <= tolerance * max(lstm[0], 1e-9)
            and abs(lstm[1] - gru[1]) <= tolerance * max(lstm[1], 1e-9)
        )


def _models(gru_steps: int, resnet_side: int) -> Dict[str, Dict[str, Any]]:
    """model key -> the load-point keys that build it: the model (with
    its size), the compiler chunk (µs) and the measurement batches."""
    return {
        "lstm": {"model": "lstm", "chunk_us": 2.0, "batches": 8},
        "gru": {"model": "gru", "steps": gru_steps, "chunk_us": 20.0,
                "batches": 2},
        "resnet50": {"model": "resnet50", "image_size": resnet_side,
                     "chunk_us": 4.0, "batches": 4},
    }


def run(
    latency_class: str = "500us",
    load: float = 0.6,
    gru_steps: int = 1500,
    resnet_side: int = 224,
    seed: int = 0,
    executor: Optional[Any] = None,
) -> Table2Result:
    """Per model, two points: a saturating offered load without
    training (max inference throughput; its accelerator's batch service
    time is the unloaded latency) and ``load`` with the model training
    too."""
    models = _models(gru_steps, resnet_side)
    points: List[Dict[str, Any]] = []
    for spec in models.values():
        base = {"latency_class": latency_class, **spec}
        points += [{**base, "load": 1.2}, {**base, "load": load, "training": True}]
    results = iter(run_load_points(points, seed, executor))
    rows: Dict[str, Tuple[float, float, float]] = {}
    for key in models:
        saturated, loaded = next(results), next(results)
        rows[key] = (
            loaded["training_top_s"],
            saturated["inference_top_s"],
            saturated["batch_service_us"] / 1e3,
        )
    return Table2Result(rows=rows)


def render(result: Table2Result) -> str:
    rows = []
    for key, (train, inf, latency) in result.rows.items():
        paper = PAPER.get(key, (float("nan"),) * 3)
        rows.append(
            (
                key, f"{train:.1f}", f"{inf:.1f}", f"{latency:.2f}",
                paper[0], paper[1], paper[2],
            )
        )
    return render_table(
        "Table 2: workload sensitivity on Equinox_500us (ours vs paper)",
        [
            "model", "train TOp/s", "max inf TOp/s", "latency ms",
            "paper_train", "paper_inf", "paper_lat",
        ],
        rows,
    )
