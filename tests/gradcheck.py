"""Finite-difference gradient check for the objective tests."""
import math

import numpy as np

from bfeopt.core import NonFiniteEvaluation


def grad_check(obj, theta, batch=None, h: float = 1e-5) -> float:
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
