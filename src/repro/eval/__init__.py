"""Experiment harness: one module per table/figure of the paper.

Each module exposes a ``run(...)`` returning structured results and a
``render(...)`` producing the text table/series the paper reports. The
benchmarks under ``benchmarks/`` are thin wrappers that execute these
and print the output; EXPERIMENTS.md records paper-vs-measured.
"""
