"""Reference optimizers: fixed-rate SGD, Nesterov momentum, and Adam.

Each step function takes its state as plain arrays and the run's
``BaselineConfig``, and costs one gradient evaluation. SGD and Adam take the
gradient at ``theta``, which under the run loop's memo is the stop check's
and costs none; Nesterov takes it at the look-ahead point.
"""
from __future__ import annotations

from dataclasses import dataclass

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
class BaselineConfig:
    """Every baseline's rate ``alpha`` and Nesterov's momentum ``beta``."""

    alpha: float = 0.001
    beta: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        if not self.alpha > 0:  # NaN fails too
            raise ValueError("alpha must be positive")
        if self.alpha == np.inf:
            raise ValueError("alpha must be finite")


def sgd_step(obj: Objective, theta: np.ndarray, cfg: BaselineConfig,
             batch: Batch) -> np.ndarray:
    return theta - cfg.alpha * _finite_grad(obj, theta, batch)


def nesterov_step(obj: Objective, theta: np.ndarray, v: np.ndarray,
                  cfg: BaselineConfig, batch: Batch
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Velocity update with the gradient taken at the look-ahead point."""
    look_ahead = theta - cfg.alpha * cfg.beta * v
    v = cfg.beta * v + _finite_grad(obj, look_ahead, batch)
    return theta - cfg.alpha * v, v


def adam_step(obj: Objective, theta: np.ndarray, m: np.ndarray,
              v: np.ndarray, t: int, cfg: BaselineConfig, batch: Batch
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard bias-corrected Adam update; ``t`` is this step's number,
    from 1."""
    g = _finite_grad(obj, theta, batch)
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * g * g
    if np.count_nonzero(np.isfinite(v)) != v.size:  # g * g overflowed
        dims = np.flatnonzero(~np.isfinite(v))
        raise NonFiniteEvaluation(
            f"non-finite Adam second moment in dims {dims.tolist()}")
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return theta - cfg.alpha * m_hat / (np.sqrt(v_hat) + EPS_STAB), m, v


class SgdOptimizer:
    def __init__(self, cfg: BaselineConfig):
        self.cfg = cfg

    def step(self, obj, theta, batch, epoch=0) -> StepOutcome:
        return StepOutcome(sgd_step(obj, theta, self.cfg, batch),
                           self.cfg.alpha, 1)


class NesterovOptimizer:
    def __init__(self, cfg: BaselineConfig, dim: int):
        self.cfg, self.v = cfg, np.zeros(dim)

    def step(self, obj, theta, batch, epoch=0) -> StepOutcome:
        theta, self.v = nesterov_step(obj, theta, self.v, self.cfg, batch)
        return StepOutcome(theta, self.cfg.alpha, 1)


class AdamOptimizer:
    def __init__(self, cfg: BaselineConfig, dim: int):
        self.cfg, self.t = cfg, 0
        self.m, self.v = np.zeros(dim), np.zeros(dim)

    def step(self, obj, theta, batch, epoch=0) -> StepOutcome:
        self.t += 1
        theta, self.m, self.v = adam_step(obj, theta, self.m, self.v, self.t,
                                          self.cfg, batch)
        return StepOutcome(theta, self.cfg.alpha, 1)
