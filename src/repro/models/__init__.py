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
