"""Figure 2: hbfp8 vs fp32 convergence (validation error, perplexity).

The paper trains ResNet50/ImageNet and BERT/Wikipedia; the reproduction
trains laptop-scale analogs through the same functional hbfp8 GEMM
pipeline (see DESIGN.md for the substitution rationale). The claim
checked is identical: the hbfp8 curve tracks fp32 epoch for epoch.
"""

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.eval.report import render_series
from repro.train.convergence import convergence_experiment, perplexity_experiment
from repro.train.trainer import TrainingCurve


@dataclass(frozen=True)
class Fig2Result:
    classification: Dict[str, TrainingCurve]
    language_model: Dict[str, TrainingCurve]

    def final_error_gap(self) -> float:
        """|hbfp8 − fp32| final validation error, percentage points."""
        return abs(
            self.classification["hbfp8"].final_error
            - self.classification["fp32"].final_error
        )

    def final_perplexity_ratio(self) -> float:
        """hbfp8 / fp32 final perplexity (1.0 = identical)."""
        return (
            self.language_model["hbfp8"].final_perplexity
            / self.language_model["fp32"].final_perplexity
        )


def run(
    encodings: Sequence[str] = ("fp32", "hbfp8"),
    epochs: int = 12,
    lm_epochs: int = 10,
) -> Fig2Result:
    """Run both convergence experiments in-process (each curve is one
    serial training run, so there is nothing to fan out)."""
    return Fig2Result(
        classification=convergence_experiment(encodings=encodings, epochs=epochs),
        language_model=perplexity_experiment(encodings=encodings, epochs=lm_epochs),
    )


def render(result: Fig2Result) -> str:
    cls = result.classification
    epochs = next(iter(cls.values())).epochs
    part_a = render_series(
        "Figure 2a analog: validation error (%) vs epoch",
        "epoch",
        epochs,
        {enc: curve.validation_error for enc, curve in cls.items()},
    )
    lm = result.language_model
    lm_epochs = next(iter(lm.values())).epochs
    part_b = render_series(
        "Figure 2b analog: validation perplexity vs epoch",
        "epoch",
        lm_epochs,
        {enc: curve.perplexities() for enc, curve in lm.items()},
    )
    summary = (
        f"final error gap (hbfp8 - fp32): "
        f"{result.final_error_gap():.2f} points; "
        f"final perplexity ratio: {result.final_perplexity_ratio():.3f}"
    )
    return "\n\n".join([part_a, part_b, summary])
