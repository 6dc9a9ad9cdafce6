"""Shared domain types, the gradient-angle metric, and the finite-difference
gradient checker.

Parameter vectors and gradients are plain 1-D float64 numpy arrays; all
state objects here are immutable values and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Protocol

import numpy as np

Batch = Any  # opaque mini-batch handle, interpreted by the objective


class NonFiniteEvaluation(RuntimeError):
    """A loss or gradient evaluation produced NaN/inf at a trial point."""

    def __init__(self, message: str, eta: float | None = None):
        super().__init__(message)
        self.eta = eta
        self.step: int | None = None  # set by the run loop
        # the run's full loss before the failing step, when it had one; set
        # by the run loop for a non-finite loss at a committed point
        self.last_finite_loss: float | None = None


class NonTermination(RuntimeError):
    """An inner rate-search loop exceeded its iteration budget."""

    def __init__(self, message: str, etas: list[float] | None = None,
                 stuck_dims: list[int] | None = None):
        super().__init__(message)
        self.etas = etas or []
        self.stuck_dims = stuck_dims or []
        self.step: int | None = None  # set by the run loop


class Objective(Protocol):
    """Deterministic loss/gradient pair over a fixed mini-batch."""

    def loss(self, theta: np.ndarray, batch: Batch) -> float: ...

    def grad(self, theta: np.ndarray, batch: Batch) -> np.ndarray: ...


class ThresholdPolicy(str, Enum):
    MEAN_SCALED = "mean_scaled"
    MIN_SCALED = "min_scaled"
    CONSTANT = "constant"
    EPOCH_DECAY = "epoch_decay"


@dataclass(frozen=True)
class CriterionState:
    """Carried comparison/threshold pair plus the threshold policy.

    ``eps_comp >= eps_val`` selects the zoom-in branch of the next step;
    the default initialization (inf vs finite) forces zoom-in first.
    """

    eps_comp: float = math.inf
    eps_val: float = 0.001
    eps_ratio: float = 0.001
    policy: ThresholdPolicy = ThresholdPolicy.MEAN_SCALED
    constant: float = 1.0       # used by the CONSTANT policy
    decay_rate: float = 0.01    # used by the EPOCH_DECAY policy
    floor: float = 1e-12        # keeps the threshold strictly positive

    def __post_init__(self):
        if self.eps_ratio <= 0:
            raise ValueError("eps_ratio must be positive")
        if self.eps_val <= 0:
            raise ValueError("eps_val must be positive")
        if self.eps_comp < 0:
            raise ValueError("eps_comp must be nonnegative")


@dataclass(frozen=True)
class RateState:
    """Current learning rate(s) on the eta0 * base**k lattice."""

    eta: float = 0.001
    eta0: float = 0.001
    per_dim: np.ndarray | None = None

    def __post_init__(self):
        if self.eta <= 0 or self.eta0 <= 0:
            raise ValueError("learning rates must be positive")
        if self.per_dim is not None and np.any(np.asarray(self.per_dim) <= 0):
            raise ValueError("per-dimension rates must be positive")


@dataclass(frozen=True)
class LossPair:
    """The two forward-explored losses of one probe, with their trial points."""

    loss1: float
    loss2: float
    trial_half: np.ndarray
    trial_full: np.ndarray
    trial_two_step: np.ndarray


def angular_deviation(g, g_star):
    """Angle in [0, pi/2] between tangent lines of slopes ``g`` and ``g_star``.

    Computed as arctan(|(g_star - g) / (1 + g_star * g)|); a zero denominator
    means perpendicular slopes and returns pi/2 exactly. Accepts scalars or
    arrays (elementwise).
    """
    g = np.asarray(g, dtype=float)
    g_star = np.asarray(g_star, dtype=float)
    with np.errstate(divide="ignore"):  # x / 0 -> inf, and arctan(inf) == pi/2
        out = np.arctan(np.abs(g_star - g) / np.abs(1.0 + g_star * g))
    if out.ndim == 0:
        return float(out)
    return out


def eval_criterion_threshold(loss1: float, loss2: float, crit: CriterionState,
                             epoch: int = 0) -> float:
    """Threshold value eps_val for the loss-comparison criterion."""
    if crit.policy is ThresholdPolicy.MIN_SCALED:
        val = min(abs(loss1) * crit.eps_ratio, abs(loss2) * crit.eps_ratio)
    elif crit.policy is ThresholdPolicy.CONSTANT:
        val = crit.constant
    else:
        val = 0.5 * (abs(loss1) + abs(loss2)) * crit.eps_ratio
        if crit.policy is ThresholdPolicy.EPOCH_DECAY:
            val = val / (1.0 + epoch * crit.decay_rate)
    return max(val, crit.floor)


def grad_check(obj: Objective, theta: np.ndarray, batch: Batch = None,
               h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central differences.

    Error per dimension is |analytic - numeric| / max(1, |analytic|).
    Raises NonFiniteEvaluation if any probe loss is non-finite.
    """
    theta = np.asarray(theta, dtype=float)
    analytic = np.asarray(obj.grad(theta, batch), dtype=float)
    worst = 0.0
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        lo = obj.loss(theta - step, batch)
        hi = obj.loss(theta + step, batch)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NonFiniteEvaluation(
                f"non-finite loss while probing dimension {i}")
        numeric = (hi - lo) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst


def rms_grad_norm(g: np.ndarray) -> float:
    """Dimension-independent gradient magnitude: ||g||_2 / sqrt(dim)."""
    g = np.asarray(g, dtype=float)
    return float(np.linalg.norm(g) / math.sqrt(g.size))


class Branch(str, Enum):
    ZOOM_IN = "zoom_in"
    ZOOM_OUT = "zoom_out"


@dataclass
class StepOutcome:
    """Result of one outer time-step of any optimizer.

    Every optimizer's ``step(obj, theta, batch, g0=None, epoch=0)`` returns
    one; ``g0`` is the gradient at ``theta`` on ``batch`` when the caller
    already has it. Fixed-rate baselines report one inner loop, their rate,
    and no branch.
    """

    theta_next: np.ndarray
    eta_next: float
    inner_loops: int
    branch: Branch | None = None
    eps_comp: float = math.nan
    eps_val: float = math.nan
    capped: bool = False
    rates_next: np.ndarray | None = None      # per-dimension rates (AdaBFE)
    branches_next: np.ndarray | None = None   # per-dimension zoom-in flags


@dataclass(frozen=True)
class TraceRecord:
    """One per-time-step log line of an experiment run."""

    step: int
    batch_loss: float
    full_loss: float
    eta: float
    inner_loops: int
    grad_norm: float
