"""Loss-comparison binary forward exploration.

One time-step probes the loss ahead of the current point: a full step at the
current rate versus two half-rate substeps. While the two probe losses
disagree beyond a scaled threshold the rate is shrunk (zoom-in); while they
agree the rate is grown (zoom-out) and then backed off once. The branch taken
at each step is selected by the comparison pair carried over from the
previous step. A zoom-in-only variant resets the rate each step and skips the
zoom-out loop entirely.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable

import numpy as np

from .core import (
    Batch,
    LossPair,
    NonFiniteEvaluation,
    Objective,
    StepOutcome,
    ThresholdPolicy,
    eval_criterion_threshold,
)

# lattice exponent bound: rates live in [eta0 * base**-CAP, eta0 * base**CAP]
CAP_EXP = 60


@dataclass(frozen=True)
class Lattice:
    """The rates ``eta0 * base**k``, |k| <= CAP_EXP, computed on first use
    into ``rates``, which ``k`` itself indexes: a negative ``k`` counts back
    from the end. A lowest rate that rounds to 0 or a highest that overflows
    raises ValueError: a search at rate 0 never moves, and one at an
    infinite rate overflows. A field whose default is an Enum member
    stores that enum's member for a value or a member of it, and raises
    ValueError for anything else."""

    eta0: float = 0.001
    base: int = 2

    def __post_init__(self):
        for f in fields(self):
            if isinstance(f.default, Enum):
                object.__setattr__(self, f.name,
                                   type(f.default)(getattr(self, f.name)))
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.base < 2:
            raise ValueError("base must be >= 2")
        try:
            base = float(self.base)
            lo, hi = self.eta0 * base ** -CAP_EXP, self.eta0 * base ** CAP_EXP
        except OverflowError:  # base ** CAP_EXP is beyond the float range
            lo = self.eta0 * 2.0 ** (-CAP_EXP * math.log2(self.base))
            hi = math.inf
        if not (0 < lo and hi < math.inf):
            raise ValueError(
                f"eta0={self.eta0!r} and base={self.base!r} put the rate caps "
                f"eta0*base**-{CAP_EXP} and eta0*base**{CAP_EXP} at {lo!r} "
                f"and {hi!r}; they must be positive and finite")

    @functools.cached_property
    def rates(self) -> np.ndarray:
        ks = (*range(CAP_EXP + 1), *range(-CAP_EXP, 0))
        return np.array([self.eta0 * float(self.base) ** k for k in ks])


class LatticeOptimizer:
    """Stateful driver that threads the lattice index ``k`` and the carried
    branch ``zoom_in`` from each step's outcome into the next ``search``,
    which a subclass defines."""

    def __init__(self, cfg: Lattice):
        self.cfg, self.k, self.zoom_in = cfg, 0, True

    def step(self, obj: Objective, theta: np.ndarray, batch: Batch,
             epoch: int = 0) -> StepOutcome:
        out = self.search(obj, theta, batch, epoch)
        self.k, self.zoom_in = out.k_next, out.zoom_in_next
        return out


def lattice_search(probe: Callable[[float], Any],
                   exceeds: Callable[[Any], bool], k: int,
                   lattice: Lattice, zoom_in: bool
                   ) -> tuple[Any, int, int, bool]:
    """Move the lattice index ``k`` until ``exceeds`` differs from
    ``zoom_in``.

    Each pass probes at the rate ``lattice.rates[k]``; a probe that does not
    cross moves ``k`` down by one (zoom-in) or up (zoom-out). Returns (last
    probe result, the index of the last probe or the cap, passes, capped).
    A search is capped once a move reaches ``-CAP_EXP`` (zoom-in) or
    ``CAP_EXP`` (zoom-out), so from a ``k`` between the caps it ends within
    ``2 * CAP_EXP + 1`` passes. A ``k`` beyond the caps raises ValueError.
    """
    if not -CAP_EXP <= k <= CAP_EXP:
        raise ValueError(f"the lattice index {k!r} must be within "
                         f"+-{CAP_EXP}")
    rates, step = lattice.rates, -1 if zoom_in else 1
    passes = 0
    while True:
        passes += 1
        result = probe(rates.item(k))
        if exceeds(result) != zoom_in:
            return result, k, passes, False
        k += step
        if k * step >= CAP_EXP:
            return result, step * CAP_EXP, passes, True


class CommitPolicy(str, Enum):
    HALF_STEP = "half_step"    # commit the half-rate trial point
    FULL_STEP = "full_step"    # commit the full trial point, restore the rate


class ResetPolicy(str, Enum):
    PREV_ETA = "prev_eta"
    DOUBLE_PREV_ETA = "double_prev_eta"


@dataclass(frozen=True)
class BfeLossConfig(Lattice):
    eps_ratio: float = 0.001
    eps_val_policy: ThresholdPolicy = ThresholdPolicy.MEAN_SCALED
    commit_policy: CommitPolicy = CommitPolicy.HALF_STEP
    zoom_in_only: bool = False
    reset_policy: ResetPolicy = ResetPolicy.DOUBLE_PREV_ETA

    def __post_init__(self):
        super().__post_init__()
        if self.eps_ratio <= 0:
            raise ValueError("eps_ratio must be positive")
        if not self.eps_ratio < math.inf:  # NaN fails too
            raise ValueError("eps_ratio must be finite")


def _loss_pair(obj: Objective, theta: np.ndarray, eta: float, half: float,
               full: float, batch: Batch, g: np.ndarray | None) -> LossPair:
    """One step at rate ``full`` vs. two substeps at rate ``half`` from
    ``theta``; a non-finite loss raises NonFiniteEvaluation at the searched
    rate ``eta``.

    ``g`` is the gradient at ``theta``. Costs exactly 2 loss and 2 gradient
    evaluations, or 1 gradient evaluation when ``g`` is given.
    """
    if g is None:
        g = obj.grad(theta, batch)
    trial_half = theta - half * g
    trial_two_step = trial_half - half * obj.grad(trial_half, batch)
    trial_full = theta - full * g
    loss_full = obj.loss(trial_full, batch)
    loss_two_step = obj.loss(trial_two_step, batch)
    if not (math.isfinite(loss_full) and math.isfinite(loss_two_step)):
        raise NonFiniteEvaluation(
            f"non-finite trial loss at eta={eta!r}", eta=eta)
    return LossPair(loss_full, loss_two_step, trial_half, trial_full)


def loss_pair_zoom_in(obj: Objective, theta: np.ndarray, eta: float,
                      batch: Batch, g: np.ndarray | None = None) -> LossPair:
    """One full step vs. two half-rate substeps from ``theta``."""
    return _loss_pair(obj, theta, eta, eta / 2.0, eta, batch, g)


def loss_pair_zoom_out(obj: Objective, theta: np.ndarray, eta: float,
                       batch: Batch, g: np.ndarray | None = None) -> LossPair:
    """Two full-rate substeps vs. one double-rate step from ``theta``."""
    return _loss_pair(obj, theta, eta, eta, 2.0 * eta, batch, g)


def bfe_step(obj: Objective, theta: np.ndarray, k: int,
             cfg: BfeLossConfig, batch: Batch, zoom_in: bool = True,
             epoch: int = 0) -> StepOutcome:
    """One outer time-step of the loss-comparison BFE algorithm.

    The search starts at index ``k`` of the ``cfg`` lattice. ``zoom_in`` is
    the carried branch: True runs the rate-shrinking search, False the
    rate-growing one. The mini-batch and the gradient at ``theta`` are held
    fixed for all inner probes. A ``zoom_in_only`` config commits the
    half-rate trial point under either commit policy.
    """
    g = obj.grad(theta, batch)
    pair_at = loss_pair_zoom_in if zoom_in else loss_pair_zoom_out

    def probe(eta: float) -> tuple[LossPair, float, float]:
        pair = pair_at(obj, theta, eta, batch, g)
        # the criterion is symmetric in the two losses, so it reads them by
        # trial point in either direction
        return (pair, abs(pair.loss_two_step - pair.loss_full),
                eval_criterion_threshold(pair.loss_full, pair.loss_two_step,
                                         cfg.eps_ratio, cfg.eps_val_policy,
                                         epoch))

    (pair, eps_comp, eps_val), k, inner, capped = lattice_search(
        probe, lambda r: r[1] >= r[2], k, cfg, zoom_in)
    theta_next = pair.trial_half
    if (zoom_in and not capped and not cfg.zoom_in_only
            and cfg.commit_policy is CommitPolicy.FULL_STEP):
        theta_next = pair.trial_full
    elif zoom_in:
        # the half-rate trial point; half the lowest rate is held there
        k = max(k - 1, -CAP_EXP)
    # losses that disagree at the last probe -> zoom-in next
    return StepOutcome(theta_next, cfg.rates.item(k), inner,
                       "zoom_in" if zoom_in else "zoom_out",
                       eps_comp, eps_val, capped, k_next=k,
                       zoom_in_next=eps_comp >= eps_val)


class BfeLossOptimizer(LatticeOptimizer):
    def search(self, obj, theta, batch, epoch) -> StepOutcome:
        cfg, k, zoom_in = self.cfg, self.k, self.zoom_in
        if cfg.zoom_in_only:  # reset the rate, then search it downward
            zoom_in = True
            if cfg.reset_policy is ResetPolicy.DOUBLE_PREV_ETA:
                k = min(k + 1, CAP_EXP)
        return bfe_step(obj, theta, k, cfg, batch, zoom_in, epoch)
