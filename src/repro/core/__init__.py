"""Equinox core: the front-end that piggybacks training on inference.

This package implements the paper's §3 mechanisms:

* per-service buffer space reserved at install, so inference and
  training services co-reside in on-chip SRAM
  (:class:`~repro.core.equinox.EquinoxAccelerator`);
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
