"""DNN workload models and the tile compiler.

The paper evaluates three inference/training workloads (§5): the
DeepBench machine-translation LSTM (2048 hidden units, 25 steps), the
DeepBench speech-recognition GRU (2816 hidden units, 1500 steps), and a
ResNet50 CNN. This package builds layer-accurate specifications of all
three (plus an MLP used by the examples) and compiles them into the
tiled instruction streams of paper Figure 4 for any accelerator
configuration — for inference batches and for training iterations
(forward, input-gradient and weight-gradient passes plus the
parameter-server exchange).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.models.mlp import mlp  # shadows its submodule, so eager

if TYPE_CHECKING:
    from repro.models.compiler import (
        TileCompiler,
        compile_inference,
        compile_training,
        tiling_utilization,
    )
    from repro.models.graph import GemmLayer, ModelSpec
    from repro.models.gru import deepbench_gru
    from repro.models.lstm import deepbench_lstm
    from repro.models.resnet import resnet50
    from repro.models.training import TrainingPlan, build_training_plan

__all__ = [
    "GemmLayer",
    "ModelSpec",
    "deepbench_lstm",
    "deepbench_gru",
    "resnet50",
    "mlp",
    "TileCompiler",
    "compile_inference",
    "compile_training",
    "tiling_utilization",
    "TrainingPlan",
    "build_training_plan",
]

__getattr__ = lazy_exports(__name__, {
    "TileCompiler": "repro.models.compiler",
    "compile_inference": "repro.models.compiler",
    "compile_training": "repro.models.compiler",
    "tiling_utilization": "repro.models.compiler",
    "GemmLayer": "repro.models.graph",
    "ModelSpec": "repro.models.graph",
    "deepbench_gru": "repro.models.gru",
    "deepbench_lstm": "repro.models.lstm",
    "resnet50": "repro.models.resnet",
    "TrainingPlan": "repro.models.training",
    "build_training_plan": "repro.models.training",
})
