"""Shared domain types, the gradient-angle metric, and the loss threshold.

Parameter vectors and gradients are plain 1-D float64 numpy arrays; all
state objects here are immutable values and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple, Protocol

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


class Objective(Protocol):
    """Deterministic loss/gradient pair over a fixed mini-batch."""

    def loss(self, theta: np.ndarray, batch: Batch) -> float: ...

    def grad(self, theta: np.ndarray, batch: Batch) -> np.ndarray: ...


class ThresholdPolicy(str, Enum):
    MEAN_SCALED = "mean_scaled"
    MIN_SCALED = "min_scaled"
    CONSTANT = "constant"
    EPOCH_DECAY = "epoch_decay"


# settings of the loss-comparison threshold that no run changes: the value
# of the CONSTANT policy, the decay rate of the EPOCH_DECAY policy, and a
# floor that keeps every threshold strictly positive
THRESHOLD_CONSTANT = 1.0
DECAY_RATE = 0.01
THRESHOLD_FLOOR = 1e-12


class LossPair(NamedTuple):
    """The two forward-explored losses of one probe, named by the trial point
    each was taken at, with the three trial points."""

    loss_full: float
    loss_two_step: float
    trial_half: np.ndarray
    trial_full: np.ndarray
    trial_two_step: np.ndarray


def angular_deviation(g, g_star):
    """Angle in [0, pi/2] between tangent lines of slopes ``g`` and ``g_star``.

    Computed as arctan(|(g_star - g) / (1 + g_star * g)|); a zero denominator
    means perpendicular slopes and returns pi/2 exactly. Accepts scalars or
    arrays (elementwise). Only a call with a zero denominator enters errstate.
    """
    g = np.asarray(g, dtype=float)
    g_star = np.asarray(g_star, dtype=float)
    num = g_star - g  # first, so overflow warnings follow the formula's order
    den = 1.0 + g_star * g
    if np.count_nonzero(den) == den.size:
        out = num / den
    else:
        with np.errstate(divide="ignore"):  # x / 0 -> inf, arctan(inf) == pi/2
            out = num / den
    out = np.arctan(np.abs(out))
    if out.ndim == 0:
        return float(out)
    return out


def eval_criterion_threshold(loss1: float, loss2: float, eps_ratio: float,
                             policy: ThresholdPolicy, epoch: int = 0) -> float:
    """Threshold value eps_val for the loss-comparison criterion."""
    if policy is ThresholdPolicy.MIN_SCALED:
        val = min(abs(loss1) * eps_ratio, abs(loss2) * eps_ratio)
    elif policy is ThresholdPolicy.CONSTANT:
        val = THRESHOLD_CONSTANT
    else:
        val = 0.5 * (abs(loss1) + abs(loss2)) * eps_ratio
        if policy is ThresholdPolicy.EPOCH_DECAY:
            val = val / (1.0 + epoch * DECAY_RATE)
    return max(val, THRESHOLD_FLOOR)


def rms_grad_norm(g: np.ndarray) -> float:
    """Dimension-independent gradient magnitude: ||g||_2 / sqrt(dim).

    ``g`` is a 1-D float array. The norm is ``sqrt(g.dot(g))``, as
    ``np.linalg.norm`` computes it, with the same float, unless that dot
    falls below the normal floats: then it is ``math.hypot``'s, which scales
    ``g`` by max|g| first, so a gradient whose squares underflow is not 0.
    """
    sq = g.dot(g)
    if sq < 2.0 ** -1022 and g.any():
        return math.hypot(*g.tolist()) / math.sqrt(g.size)
    return math.sqrt(sq) / math.sqrt(g.size)


@dataclass
class StepOutcome:
    """Result of one outer time-step of any optimizer.

    Every optimizer's ``step(obj, theta, batch, epoch=0)`` returns one.
    Fixed-rate baselines report one inner loop, their rate, and no branch.
    """

    theta_next: np.ndarray
    eta_next: float
    inner_loops: int
    branch: str | None = None  # "zoom_in" or "zoom_out" (BFE)
    eps_comp: float = math.nan
    eps_val: float = math.nan
    capped: bool = False
    k_next: int | np.ndarray | None = None    # lattice index (BFE)
    rates_next: np.ndarray | None = None      # per-dimension rates (AdaBFE)
    zoom_in_next: bool | np.ndarray | None = None  # next branch (BFE)


class TraceRecord(NamedTuple):
    """One per-time-step log line of an experiment run: a tuple, in the
    order of the trace file's columns."""

    step: int
    batch_loss: float
    full_loss: float
    eta: float
    inner_loops: int
    grad_norm: float
