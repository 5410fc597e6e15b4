"""The default analysis suite: what ``python -m repro analyze`` checks.

Programs: every model the examples and the evaluation harness install
(the DeepBench LSTM and GRU, ResNet50 and the example MLP), compiled
for the paper's Equinox configuration, verified at both the job level
(what the engines install) and the instruction-image level (what the
host writes into the 32 KB instruction buffer).

ResNet50's *training* image is excluded from the image checks by
design: a CNN backward pass materializes ~350 KB of instructions, an
order of magnitude past the buffer — Equinox trains recurrent services
(paper section 5), and the verifier exists precisely to reject such an
install. The regression corpus pins that failure.

Codebase: the lint pass over the installed ``repro`` package tree.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

import repro
from repro.analysis.codebase_linter import LintRule, lint_tree
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.program_verifier import (
    DEFAULT_WASTE_THRESHOLD,
    verify_image,
    verify_program,
)
from repro.hw.config import AcceleratorConfig
from repro.hw.instructions import assemble_inference, assemble_training
from repro.models import deepbench_gru, deepbench_lstm, mlp, resnet50
from repro.models.compiler import TileCompiler
from repro.models.graph import ModelSpec

#: Two installed services space-share the instruction buffer.
IMAGE_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    """One model the suite verifies.

    Attributes:
        model: The model spec.
        chunk_us: Compiler job granularity (matches the eval harness).
        train_image: Whether the training instruction image is expected
            to fit the buffer (False only for CNN training, see module
            docstring).
    """

    model: ModelSpec
    chunk_us: float = 2.0
    train_image: bool = True


def builtin_workloads() -> List[Workload]:
    """The models installed by ``examples/`` and the benchmark suite."""
    return [
        Workload(deepbench_lstm(), chunk_us=2.0),
        Workload(deepbench_gru(), chunk_us=20.0),
        Workload(resnet50(), chunk_us=4.0, train_image=False),
        Workload(mlp((1024, 1024, 1024, 10), name="mlp_1k"), chunk_us=2.0),
    ]


def default_config() -> AcceleratorConfig:
    """The paper's published design point (Table 1, 500 us class)."""
    from repro.dse.table1 import equinox_configuration

    return equinox_configuration("500us")


def verify_workload(
    workload: Workload,
    config: AcceleratorConfig,
    waste_threshold: float = DEFAULT_WASTE_THRESHOLD,
    train_batch: int = 128,
) -> List[Diagnostic]:
    """Verify one model's compiled programs and instruction images."""
    compiler = TileCompiler(config, workload.chunk_us)
    model = workload.model
    diags: List[Diagnostic] = []

    inference = compiler.compile_inference(model)
    diags.extend(verify_program(
        inference, config, context="inference", waste_threshold=waste_threshold
    ))
    training = compiler.compile_training(
        model, batch=train_batch, max_stream_bytes=config.staging_bytes / 2.0
    )
    diags.extend(verify_program(
        training, config, context="training", waste_threshold=waste_threshold
    ))

    diags.extend(verify_image(
        assemble_inference(model, config), config, share=IMAGE_SHARE
    ))
    if workload.train_image:
        diags.extend(verify_image(
            assemble_training(model, config, batch=train_batch),
            config, share=IMAGE_SHARE,
        ))
    return diags


def verify_builtin_programs(
    config: Optional[AcceleratorConfig] = None,
    waste_threshold: float = DEFAULT_WASTE_THRESHOLD,
) -> List[Diagnostic]:
    """Run the program verifier over the whole builtin suite."""
    config = config or default_config()
    diags: List[Diagnostic] = []
    for workload in builtin_workloads():
        diags.extend(verify_workload(workload, config, waste_threshold))
    return diags


def repo_source_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(repro.__file__).resolve().parent


def lint_repository(
    root: Optional[Path] = None,
    lint_rules: Optional[List[LintRule]] = None,
) -> List[Diagnostic]:
    """Run the codebase lint pass (default: the repro package tree)."""
    return lint_tree(root or repo_source_root(), lint_rules)


class FixtureError(ValueError):
    """A path the fixture loader cannot load as a fixture module."""


def iter_fixture_artifacts(fixture_path: Path) -> Iterator[tuple]:
    """Load a regression-corpus fixture module.

    A fixture is a Python file defining ``build()`` returning
    ``(config, artifacts)`` where ``artifacts`` is one Program /
    InstructionImage or a list of them. A path that is not such a file
    raises :class:`FixtureError`; whatever ``build()`` itself raises
    propagates unchanged.
    """
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        f"repro_analysis_fixture_{fixture_path.stem}", fixture_path
    )
    if spec is None or spec.loader is None:
        raise FixtureError(f"cannot load fixture {fixture_path}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except SyntaxError as err:
        raise FixtureError(f"cannot load fixture {fixture_path}: {err}") from err
    if not hasattr(module, "build"):
        raise FixtureError(f"fixture {fixture_path} defines no build()")
    built = module.build()
    if not (isinstance(built, tuple) and len(built) == 2):
        raise FixtureError(
            f"fixture {fixture_path}: build() returned "
            f"{type(built).__name__}, not (config, artifacts)"
        )
    config, artifacts = built
    if not isinstance(artifacts, (list, tuple)):
        artifacts = [artifacts]
    for artifact in artifacts:
        yield config, artifact
