"""Synthetic objectives and datasets: a seeded univariate regression task,
diagonal quadratic bowls, feature normalization, and epoch-shuffled batching.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Batch

X_RANGE = (0.0, 10.0)


@dataclass(frozen=True)
class LinRegSpec:
    w0: float = 5.0
    b0: float = 9.0
    noise_std: float = 1.0
    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")


def gen_linear_data(spec: LinRegSpec) -> Dataset:
    """Sample y = w0*x + b0 + noise with x uniform on the feature range."""
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(X_RANGE[0], X_RANGE[1], size=spec.n)
    noise = rng.normal(0.0, spec.noise_std, size=spec.n) if spec.noise_std > 0 \
        else np.zeros(spec.n)
    y = spec.w0 * x + spec.b0 + noise
    return Dataset(x=x, y=y)


def normalize(data: Dataset) -> Dataset:
    """Standardize features to zero mean, unit sample std; targets unchanged."""
    mu = float(np.mean(data.x))
    sigma = float(np.std(data.x, ddof=1))
    if sigma == 0.0:
        raise ValueError("cannot normalize constant features")
    return Dataset(x=(data.x - mu) / sigma, y=data.y)


class LinRegObjective:
    """Mean squared error of y ~ w*x + b; theta = (w, b).

    A batch is an index array into the dataset; None means the full dataset.
    The loss is quadratic in theta, so a few moments of a batch give its loss
    and gradient in O(1) (see ``_moments``). The full-dataset moments are
    computed once; a mini-batch's moments are computed on its first call and
    cached on the batch's identity, so a batch is treated as immutable.
    """

    def __init__(self, data: Dataset):
        if len(data.x) == 0:
            raise ValueError("empty dataset")
        self._x = np.asarray(data.x, dtype=float)
        self._y = np.asarray(data.y, dtype=float)
        self._full = _moments(self._x, self._y)
        # single-entry cache; holding the batch keeps its id from being reused
        self._key = None
        self._cached = None

    def _cached_moments(self, batch: Batch):
        if batch is None:
            return self._full
        if batch is not self._key:
            x = self._x[batch]
            if x.size == 0:
                raise ValueError("empty batch")
            self._cached = _moments(x, self._y[batch])
            self._key = batch
        return self._cached

    def loss(self, theta: np.ndarray, batch: Batch = None) -> float:
        xm, beta, alpha, rm, vxx, c, rv = self._cached_moments(batch)
        d = float(theta[0]) - beta
        m = d * xm + (float(theta[1]) - alpha) + rm
        # clamped: rounding must not make the residual variance negative
        return m * m + max(d * (d * vxx + 2.0 * c) + rv, 0.0)

    def grad(self, theta: np.ndarray, batch: Batch = None) -> np.ndarray:
        xm, beta, alpha, rm, vxx, c, _ = self._cached_moments(batch)
        d = float(theta[0]) - beta
        m = d * xm + (float(theta[1]) - alpha) + rm
        return np.array([2.0 * (xm * m + d * vxx + c), 2.0 * m])


def _moments(x: np.ndarray, y: np.ndarray):
    """Moments of the residuals r0 = beta*x + alpha - y about a reference line.

    Returns (mean x, beta, alpha, mean r0, Vxx, Cov(x, r0), Var(r0)). With
    d = w - beta and m = d*mean(x) + (b - alpha) + mean(r0), the loss at
    (w, b) is m**2 + d**2*Vxx + 2*d*Cov(x, r0) + Var(r0) in exact arithmetic,
    for any reference line. The batch's least-squares line keeps r0 small,
    so calls near the optimum round no worse than the direct sum over the
    batch. When mean(x) is 4 or more standard deviations from zero, that line
    is steep and r0 itself would lose digits; the flat line through mean(y)
    is used then.
    """
    n = x.size
    xm = float(x.sum()) / n
    dx = x - xm
    vxx = float(dx @ dx) / n
    beta = float(dx @ y) / n / vxx if xm * xm < 16.0 * vxx else 0.0
    alpha = float(y.sum()) / n - beta * xm
    r0 = beta * x + alpha - y
    rm = float(r0.sum()) / n
    dr = r0 - rm
    return xm, beta, alpha, rm, vxx, float(dx @ dr) / n, float(dr @ dr) / n


def linreg_objective(data: Dataset) -> LinRegObjective:
    return LinRegObjective(data)


class QuadraticObjective:
    """Diagonal bowl f(theta) = 0.5 * sum h_i * theta_i**2, batch-independent."""

    def __init__(self, curvatures):
        h = np.asarray(curvatures, dtype=float)
        if np.any(h <= 0):
            raise ValueError("curvatures must be positive")
        self.h = h

    def loss(self, theta: np.ndarray, batch: Batch = None) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(0.5 * np.sum(self.h * theta * theta))

    def grad(self, theta: np.ndarray, batch: Batch = None) -> np.ndarray:
        return self.h * np.asarray(theta, dtype=float)


def quadratic_objective(curvatures) -> QuadraticObjective:
    return QuadraticObjective(curvatures)


class BatchStream:
    """Seeded epoch-shuffled mini-batch index stream, without replacement.

    The final partial batch of an epoch is kept. ``epoch`` reflects the epoch
    of the most recently yielded batch.
    """

    def __init__(self, n: int, batch_size: int, seed: int = 0):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.n = n
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.epoch = 0

    def __iter__(self):
        while True:
            perm = self.rng.permutation(self.n)
            for start in range(0, self.n, self.batch_size):
                yield perm[start:start + self.batch_size]
            self.epoch += 1


class ConstantBatchStream:
    """Yields None forever, for batch-independent objectives."""

    def __init__(self):
        self.epoch = 0

    def __iter__(self):
        while True:
            yield None
