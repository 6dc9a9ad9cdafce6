"""Reference optimizers: fixed-rate SGD, Nesterov momentum, and Adam.

All step functions are stateless over explicit state values and cost one
gradient evaluation per step. SGD and Adam take the gradient at ``theta``,
which under the run loop's memo is the stop check's and costs none;
Nesterov takes it at the look-ahead point.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Batch, NonFiniteEvaluation, Objective, StepOutcome

# Adam's moment decay rates and the stabilizer added to sqrt(v_hat), at the
# usual values; no run changes them
BETA1 = 0.9
BETA2 = 0.999
EPS_STAB = 1e-8


def _finite_grad(obj: Objective, theta: np.ndarray, batch: Batch
                 ) -> np.ndarray:
    g = obj.grad(theta, batch)
    # exact and warning-free, at a third of the cost of np.isfinite(g).all()
    # for a small gradient
    if np.count_nonzero(np.isfinite(g)) != g.size:
        raise NonFiniteEvaluation("non-finite gradient")
    return g


@dataclass(frozen=True)
class MomentumState:
    v: np.ndarray
    beta: float = 0.9
    alpha: float = 0.001

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    alpha: float = 0.001
    t: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def sgd_step(obj: Objective, theta: np.ndarray, alpha: float, batch: Batch
             ) -> np.ndarray:
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return theta - alpha * _finite_grad(obj, theta, batch)


def nesterov_step(obj: Objective, theta: np.ndarray, state: MomentumState,
                  batch: Batch) -> tuple[np.ndarray, MomentumState]:
    """Velocity update with the gradient taken at the look-ahead point."""
    look_ahead = theta - state.alpha * state.beta * state.v
    g = _finite_grad(obj, look_ahead, batch)
    v = state.beta * state.v + g
    theta_next = theta - state.alpha * v
    return theta_next, replace(state, v=v)


def adam_step(obj: Objective, theta: np.ndarray, state: AdamState,
              batch: Batch) -> tuple[np.ndarray, AdamState]:
    """Standard bias-corrected Adam update."""
    g = _finite_grad(obj, theta, batch)
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g * g
    if np.count_nonzero(np.isfinite(v)) != v.size:  # g * g overflowed
        dims = np.flatnonzero(~np.isfinite(v))
        raise NonFiniteEvaluation(
            f"non-finite Adam second moment in dims {dims.tolist()}")
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    theta_next = theta - state.alpha * m_hat / (np.sqrt(v_hat) + EPS_STAB)
    return theta_next, replace(state, m=m, v=v, t=t)


class SgdOptimizer:
    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha

    def step(self, obj, theta, batch, epoch=0) -> StepOutcome:
        return StepOutcome(sgd_step(obj, theta, self.alpha, batch),
                           self.alpha, 1)


class NesterovOptimizer:
    def __init__(self, dim: int, alpha: float, beta: float = 0.9):
        self.state = MomentumState(v=np.zeros(dim), beta=beta, alpha=alpha)

    def step(self, obj, theta, batch, epoch=0) -> StepOutcome:
        theta, self.state = nesterov_step(obj, theta, self.state, batch)
        return StepOutcome(theta, self.state.alpha, 1)


class AdamOptimizer:
    def __init__(self, dim: int, alpha: float = 0.001):
        self.state = AdamState(m=np.zeros(dim), v=np.zeros(dim), alpha=alpha)

    def step(self, obj, theta, batch, epoch=0) -> StepOutcome:
        theta, self.state = adam_step(obj, theta, self.state, batch)
        return StepOutcome(theta, self.state.alpha, 1)
