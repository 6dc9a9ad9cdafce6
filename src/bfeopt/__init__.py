"""Learning-rate-automating optimizers built on binary forward exploration,
with fixed-rate baselines and a deterministic benchmark harness.
"""
__version__ = "0.1.0"

from .core import (
    Branch,
    LossPair,
    NonFiniteEvaluation,
    NonTermination,
    Objective,
    StepOutcome,
    ThresholdPolicy,
    TraceRecord,
    angular_deviation,
    eval_criterion_threshold,
)

__all__ = [
    "__version__",
    "Branch",
    "LossPair",
    "NonFiniteEvaluation",
    "NonTermination",
    "Objective",
    "StepOutcome",
    "ThresholdPolicy",
    "TraceRecord",
    "angular_deviation",
    "eval_criterion_threshold",
]
