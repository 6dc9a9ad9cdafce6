"""Gradient-angle binary forward exploration, global and per-parameter.

Instead of comparing probe losses, these variants compare the gradient before
and after a trial step through the angle between the two slopes. The global
variant shrinks or grows a single rate until the worst per-dimension angle
crosses a threshold; the adaptive variant (AdaBFE) gives every parameter
dimension its own rate and exit state, probing all still-active dimensions
jointly with one gradient evaluation per inner pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    THRESHOLD_FLOOR,
    Batch,
    NonFiniteEvaluation,
    Objective,
    StepOutcome,
    angular_deviation,
)
from .bfe_loss import CAP_EXP, Lattice, LatticeOptimizer, lattice_search

DEG = math.pi / 180.0
# the relative mode's per-dimension threshold is RELATIVE_RATIO * |arctan(g_i)|
RELATIVE_RATIO = 0.01


class ThresholdMode(str, Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


class ZoomOutExit(str, Enum):
    HALVE_COMMIT_TRIAL = "halve_commit_trial"
    QUARTER_FRESH_STEP = "quarter_fresh_step"


@dataclass(frozen=True)
class BfeGradConfig(Lattice):
    angle_threshold: float = 1.0 * DEG
    threshold_mode: ThresholdMode = ThresholdMode.ABSOLUTE
    zoom_out_exit: ZoomOutExit = ZoomOutExit.HALVE_COMMIT_TRIAL
    pre_halve: bool = False

    def __post_init__(self):
        if not 0.0 < self.angle_threshold < math.pi / 2:
            raise ValueError("angle_threshold must be in (0, pi/2)")
        super().__post_init__()


class GradProbe(NamedTuple):
    """The joint trial point and the per-dim angles of the gradient there."""

    theta_trial: np.ndarray
    eps_per_dim: np.ndarray


def grad_probe(obj: Objective, theta: np.ndarray, rates, batch: Batch,
               g: np.ndarray | None = None) -> GradProbe:
    """Probe the gradient change across one trial step.

    ``theta`` and ``g``, the gradient at ``theta``, are 1-D float64 arrays;
    ``rates`` is a scalar or a float64 array of one rate per dimension.
    Costs exactly 2 gradient evaluations, or 1 when ``g`` is given. A
    non-finite trial gradient raises NonFiniteEvaluation naming the
    dimensions where it is not finite and the rates probed there.
    """
    if g is None:
        g = obj.grad(theta, batch)
    theta_trial = theta - rates * g
    g_star = obj.grad(theta_trial, batch)
    if np.count_nonzero(np.isfinite(g_star)) != g_star.size:
        dims = np.flatnonzero(~np.isfinite(g_star))
        rates = np.broadcast_to(rates, g_star.shape)
        raise NonFiniteEvaluation(
            f"non-finite gradient at joint trial point in dims "
            f"{dims.tolist()} at rates {rates[dims].tolist()}")
    return GradProbe(theta_trial, angular_deviation(g, g_star))


def _thresholds(g: np.ndarray, cfg: BfeGradConfig) -> np.ndarray:
    """Per-dimension angle thresholds for the configured mode."""
    if cfg.threshold_mode is ThresholdMode.RELATIVE:
        thr = RELATIVE_RATIO * np.abs(np.arctan(g))
        return np.maximum(thr, THRESHOLD_FLOOR)
    return np.full(np.shape(g), cfg.angle_threshold)


def bfe_grad_step(obj: Objective, theta: np.ndarray, k: int,
                  cfg: BfeGradConfig, batch: Batch, zoom_in: bool = True
                  ) -> StepOutcome:
    """One time-step of the global gradient-angle BFE.

    The search starts at index ``k`` of the ``cfg`` lattice.
    ``zoom_in`` is the carried branch state: True after a step that ended
    with the angle at/above threshold, False after one that ended below.
    The gradient at ``theta`` is shared by all inner probes.
    """
    g = obj.grad(theta, batch)
    thresholds = _thresholds(g, cfg)
    probe, k, inner, capped = lattice_search(
        lambda eta: grad_probe(obj, theta, eta, batch, g),
        lambda p: bool(np.logical_or.reduce(p.eps_per_dim >= thresholds)),
        k, cfg, zoom_in)
    theta_next = probe.theta_trial
    if (not zoom_in and not capped
            and cfg.zoom_out_exit is ZoomOutExit.QUARTER_FRESH_STEP):
        # a fresh step at half the probed rate; the lowest rate holds
        k = max(k - 1, -CAP_EXP)
        theta_next = theta - cfg.rates.item(k) * g
    # a search ends across its threshold, so the branch switches; a capped
    # search switches too, unlike an AdaBFE dimension's
    return StepOutcome(theta_next, cfg.rates.item(k), inner,
                       "zoom_in" if zoom_in else "zoom_out",
                       float(probe.eps_per_dim.max()), float(thresholds.max()),
                       capped, k_next=k, zoom_in_next=not zoom_in)


def adabfe_step(obj: Objective, theta: np.ndarray, k: np.ndarray,
                cfg: BfeGradConfig, batch: Batch,
                zoom_in: np.ndarray | None = None) -> StepOutcome:
    """One time-step of per-parameter AdaBFE.

    Each dimension keeps its own lattice index from ``k`` (not modified) and
    its own branch; active dimensions probe jointly (one gradient evaluation
    at the joint trial point per inner pass) and freeze their trial
    coordinate once their exit condition holds.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or not theta.size:
        raise ValueError(f"theta must be a non-empty 1-D array, not one of "
                         f"shape {theta.shape}")
    dim = theta.size
    k = np.array(k)
    if k.shape != theta.shape or k.dtype.kind != "i":
        raise ValueError(f"per-dimension lattice indices must be ints of "
                         f"theta's shape {theta.shape}, not {k.dtype} of "
                         f"shape {k.shape}")
    if zoom_in is None:
        zoom_in = np.ones(dim, dtype=bool)
    zoom_in = np.asarray(zoom_in, dtype=bool)  # read, never written
    if zoom_in.shape != theta.shape:
        raise ValueError(f"per-dimension branches must have theta's shape "
                         f"{theta.shape}, not {zoom_in.shape}")
    # an index beyond the caps would read the rate table wrapped round
    if np.maximum.reduce(np.abs(k)) > CAP_EXP:
        bad = np.flatnonzero(np.abs(k) > CAP_EXP)
        raise ValueError(f"per-dimension lattice indices must be within "
                         f"+-{CAP_EXP}, not {k[bad].tolist()} in dims "
                         f"{bad.tolist()}")

    rates = cfg.rates
    # each pass moves a zoom-in index down by one and a zoom-out index up; a
    # move reaches its branch's cap on pass ``room``, so no pass before
    # ``first_cap`` needs the cap test
    step = np.where(zoom_in, -1, 1)
    room = CAP_EXP - step * k
    first_cap = int(np.minimum.reduce(room))
    hits = np.zeros(dim, dtype=bool)
    if cfg.pre_halve:
        # a zoom-in index starts one below, and so probes the cap on pass
        # ``room``; a halving from the lowest rate is held there, as a hit
        # (its room is 0, so the cap test runs from the first pass)
        hits = zoom_in & (k == -CAP_EXP)
        k = np.maximum(k - zoom_in, -CAP_EXP)
    g = obj.grad(theta, batch)  # fixed base gradient
    thresholds = _thresholds(g, cfg)
    # k holds the index each dimension was last probed at: a finished
    # dimension's trial coordinate, theta - rate * g, keeps its committed
    # value
    active = np.ones(dim, dtype=bool)
    inner = 0
    last_eps = np.zeros(dim)

    while np.count_nonzero(active):
        inner += 1
        probe = grad_probe(obj, theta, rates[k], batch, g)
        eps = probe.eps_per_dim
        np.putmask(last_eps, active, eps)

        # zoom-in searches on while the angle exceeds its threshold, zoom-out
        # while it does not; any other active dimension has crossed
        active &= np.equal(eps >= thresholds, zoom_in)
        if inner >= first_cap:
            hit = active & (room <= inner)
            hits |= hit
            active ^= hit
        k += step * active  # a ufunc's where= costs more than the product
    capped = bool(np.count_nonzero(hits))
    if capped:  # a capped dimension kept its last probed index until here
        np.copyto(k, step * CAP_EXP, where=hits)
    rates_next = rates[k]

    branch = "zoom_in" if np.count_nonzero(zoom_in) == dim else "zoom_out"
    # a dimension that crossed its threshold switches branch; a capped one
    # keeps it
    return StepOutcome(theta_next=probe.theta_trial,
                       eta_next=float(np.add.reduce(rates_next)) / dim,
                       inner_loops=inner, branch=branch,
                       eps_comp=float(np.maximum.reduce(last_eps)),
                       eps_val=float(np.maximum.reduce(thresholds)),
                       capped=capped, k_next=k, rates_next=rates_next,
                       zoom_in_next=zoom_in ^ ~hits)


class BfeGradOptimizer(LatticeOptimizer):
    def search(self, obj, theta, batch, epoch) -> StepOutcome:
        return bfe_grad_step(obj, theta, self.k, self.cfg, batch,
                             self.zoom_in)


class AdaBfeOptimizer(LatticeOptimizer):
    """Carries one lattice index and one branch per dimension."""

    def __init__(self, cfg: BfeGradConfig, dim: int):
        super().__init__(cfg)
        self.k, self.zoom_in = np.zeros(dim, int), np.ones(dim, bool)

    def search(self, obj, theta, batch, epoch) -> StepOutcome:
        return adabfe_step(obj, theta, self.k, self.cfg, batch, self.zoom_in)
