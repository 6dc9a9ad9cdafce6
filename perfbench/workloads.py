"""Benchmark workloads: the CLI flags each one passes to ``bfeopt optimize``.

Why these three (see NOTES.md for the full reasoning):

- ``linreg-bfe``: the paper's headline run, ``bfe`` on the acceptance
  regression config. Probes, kernel and batch copies do most of the work.
- ``linreg-sgd``: the same data and kernel used differently: 3 objective
  calls per batch instead of about 9.6, so per-step harness cost and the
  full-dataset loss weigh more.
- ``quadratic-adabfe``: ``adabfe`` on a 128-dimensional diagonal bowl. No
  dataset, kernel or batch; the per-dimension search loop dominates.

The benchmark seed only reaches the program through the generated flags.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 42

# The acceptance config: full_loss <= 1.05, i.e. 1.05 x the noise variance.
LINREG_FLAGS = ("--problem", "linreg", "--n-samples", "10000",
                "--batch-size", "512")
LINREG_N = 10000
ACCEPTANCE_THRESHOLD = 1.05

QUAD_DIM = 128
QUAD_CURVATURES = np.geomspace(0.1, 10.0, QUAD_DIM)
QUAD_THRESHOLD_RATIO = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]  # everything but --max-steps and --out
    threshold: float
    calibration_steps: int  # step cap of the calibration op
    reference_steps: int    # steps to threshold at DEFAULT_SEED


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _least_squares_floor(seed: int) -> float:
    """Lowest mean squared error any line reaches on the seeded dataset."""
    from bfeopt.problems import LinRegSpec, gen_linear_data

    data = gen_linear_data(LinRegSpec(n=LINREG_N, seed=seed))
    a = np.column_stack([data.x, np.ones_like(data.x)])
    coef = np.linalg.lstsq(a, data.y, rcond=None)[0]
    r = a @ coef - data.y
    return float(np.mean(r * r))


def linreg_threshold(seed: int) -> float:
    """The acceptance threshold, moved with the seed's least-squares floor.

    Every seed keeps the acceptance config's gap above its own floor, so the
    step count depends little on how far the seed's noise sits from 1. At
    DEFAULT_SEED it is exactly ACCEPTANCE_THRESHOLD.
    """
    if seed == DEFAULT_SEED:
        return ACCEPTANCE_THRESHOLD
    return ACCEPTANCE_THRESHOLD + (_least_squares_floor(seed)
                                   - _least_squares_floor(DEFAULT_SEED))


def _linreg(name, optimizer_flags, seed, calibration_steps, reference_steps):
    threshold = linreg_threshold(seed)
    flags = ("--optimizer", *optimizer_flags, *LINREG_FLAGS,
             "--seed", str(seed), "--loss-threshold", repr(threshold))
    return Workload(name, flags, threshold, calibration_steps,
                    reference_steps)


def _quadratic_adabfe(seed: int) -> Workload:
    theta0 = np.random.default_rng(seed).uniform(0.5, 1.5, QUAD_DIM)
    initial_loss = 0.5 * float(np.sum(QUAD_CURVATURES * theta0 * theta0))
    threshold = QUAD_THRESHOLD_RATIO * initial_loss
    flags = ("--optimizer", "adabfe", "--problem", "quadratic",
             "--curvatures", _floats(QUAD_CURVATURES),
             "--theta0", _floats(theta0), "--lim-zero", "1e-9",
             "--seed", str(seed), "--loss-threshold", repr(threshold))
    return Workload("quadratic-adabfe", flags, threshold, 400, 67)


NAMES = ("linreg-bfe", "linreg-sgd", "quadratic-adabfe")


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "linreg-bfe":
        return _linreg(name, ("bfe",), seed, 1500, 426)
    if name == "linreg-sgd":
        return _linreg(name, ("sgd", "--alpha", "0.001"), seed, 9000, 5972)
    if name == "quadratic-adabfe":
        return _quadratic_adabfe(seed)
    raise ValueError(f"unknown workload {name!r}")
