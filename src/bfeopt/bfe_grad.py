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

import numpy as np

from .core import (
    Batch,
    Branch,
    NonFiniteEvaluation,
    NonTermination,
    Objective,
    RateState,
    StepOutcome,
    angular_deviation,
)
from .bfe_loss import lattice_search, rate_caps

DEG = math.pi / 180.0


class ThresholdMode(str, Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"  # per-dim threshold = ratio * |arctan(g_i)|


class ZoomOutExit(str, Enum):
    HALVE_COMMIT_TRIAL = "halve_commit_trial"
    QUARTER_FRESH_STEP = "quarter_fresh_step"


@dataclass(frozen=True)
class BfeGradConfig:
    eta0: float = 0.001
    angle_threshold: float = 1.0 * DEG
    threshold_mode: ThresholdMode = ThresholdMode.ABSOLUTE
    relative_ratio: float = 0.01
    base: int = 2
    zoom_out_exit: ZoomOutExit = ZoomOutExit.HALVE_COMMIT_TRIAL
    pre_halve: bool = False
    max_inner: int = 60
    threshold_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.angle_threshold < math.pi / 2:
            raise ValueError("angle_threshold must be in (0, pi/2)")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if self.base < 2:
            raise ValueError("base must be >= 2")


@dataclass(frozen=True)
class GradProbe:
    """Gradients before/after a joint trial step and the per-dim angles."""

    g: np.ndarray
    theta_trial: np.ndarray
    g_star: np.ndarray
    eps_per_dim: np.ndarray
    eps_max: float


def grad_probe(obj: Objective, theta: np.ndarray, rates, batch: Batch,
               g: np.ndarray | None = None) -> GradProbe:
    """Probe the gradient change across one trial step.

    ``rates`` is a scalar (broadcast) or a per-dimension array; ``g`` is the
    gradient at ``theta``. Costs exactly 2 gradient evaluations, or 1 when
    ``g`` is given.
    """
    theta = np.asarray(theta, dtype=float)
    rates = np.broadcast_to(np.asarray(rates, dtype=float), theta.shape)
    if g is None:
        g = obj.grad(theta, batch)
    g = np.asarray(g, dtype=float)
    theta_trial = theta - rates * g
    g_star = np.asarray(obj.grad(theta_trial, batch), dtype=float)
    if not np.all(np.isfinite(g_star)):
        raise _non_finite("trial point", g_star, rates)
    eps = np.atleast_1d(angular_deviation(g, g_star))
    return GradProbe(g=g, theta_trial=theta_trial, g_star=g_star,
                     eps_per_dim=eps, eps_max=float(eps.max()))


def _non_finite(where: str, g_star: np.ndarray,
                rates: np.ndarray) -> NonFiniteEvaluation:
    """The failure of a probe whose gradient is not finite, naming the
    dimensions where it is not and the rates used there."""
    dims = np.flatnonzero(~np.isfinite(g_star))
    return NonFiniteEvaluation(
        f"non-finite gradient at {where} in dims {dims.tolist()} "
        f"at rates {rates[dims].tolist()}")


def _thresholds(g: np.ndarray, cfg: BfeGradConfig) -> np.ndarray:
    """Per-dimension angle thresholds for the configured mode."""
    if cfg.threshold_mode is ThresholdMode.RELATIVE:
        thr = cfg.relative_ratio * np.abs(np.arctan(g))
        return np.maximum(thr, cfg.threshold_floor)
    return np.full(np.shape(g), cfg.angle_threshold)


def bfe_grad_step(obj: Objective, theta: np.ndarray, rate: RateState,
                  cfg: BfeGradConfig, batch: Batch, zoom_in: bool = True,
                  g0: np.ndarray | None = None) -> StepOutcome:
    """One time-step of the global gradient-angle BFE.

    ``zoom_in`` is the carried branch state: True after a step that ended
    with the angle at/above threshold, False after one that ended below.
    ``g0`` is the gradient at ``theta``, shared by all inner probes.
    """
    if g0 is None:
        g0 = obj.grad(theta, batch)
    thresholds = _thresholds(np.asarray(g0, dtype=float), cfg)
    probe, eta, inner, capped = lattice_search(
        lambda eta: grad_probe(obj, theta, eta, batch, g0),
        lambda p: bool(np.any(p.eps_per_dim >= thresholds)),
        rate.eta, rate.eta0, cfg.base, zoom_in, cfg.max_inner,
        "grad zoom-in" if zoom_in else "grad zoom-out")
    theta_next = probe.theta_trial
    if not capped:
        if zoom_in:
            eta = eta * cfg.base  # undo the last shrink: the probed rate
        elif cfg.zoom_out_exit is ZoomOutExit.QUARTER_FRESH_STEP:
            # after one pass up from the lowest rate, a quarter is below it
            eta = max(eta / (cfg.base * cfg.base),
                      rate_caps(rate.eta0, cfg.base)[0])
            theta_next = theta - eta * probe.g
        else:
            eta = eta / cfg.base
    return StepOutcome(theta_next, eta, inner,
                       Branch.ZOOM_IN if zoom_in else Branch.ZOOM_OUT,
                       probe.eps_max, float(thresholds.max()), capped)


def adabfe_step(obj: Objective, theta: np.ndarray, rate: RateState,
                cfg: BfeGradConfig, batch: Batch,
                zoom_in: np.ndarray | None = None,
                g0: np.ndarray | None = None) -> StepOutcome:
    """One time-step of per-parameter AdaBFE.

    Each dimension keeps its own rate and branch; active dimensions probe
    jointly (one gradient evaluation at the joint trial point per inner
    pass) and freeze their trial coordinate once their exit condition holds.
    ``g0`` is the gradient at ``theta``; it is computed when not given.
    """
    theta = np.asarray(theta, dtype=float)
    dim = theta.size
    base = float(cfg.base)
    if rate.per_dim is None:
        raise ValueError("adabfe_step requires per-dimension rates")
    eta = np.array(rate.per_dim, dtype=float)
    if eta.size != dim:
        raise ValueError("per-dimension rate count must match theta")
    if zoom_in is None:
        zoom_in = np.ones(dim, dtype=bool)
    zoom_in = np.array(zoom_in, dtype=bool)
    zoom_out = ~zoom_in

    # A zoom-in rate is capped at lo once it falls to lo * (1 + 1e-9), a
    # zoom-out rate at hi once it reaches hi * (1 - 1e-9). The zoom-out test
    # is negated, so one `sign * eta <= edge` covers both (exact: sign = +-1).
    lo, hi = rate_caps(rate.eta0, base)
    cap = np.where(zoom_in, lo, hi)
    sign = np.where(zoom_in, 1.0, -1.0)
    edge = np.where(zoom_in, lo * (1.0 + 1e-9), -(hi * (1.0 - 1e-9)))

    if g0 is None:
        g0 = obj.grad(theta, batch)
    g = np.asarray(g0, dtype=float)  # fixed base gradient
    thresholds = _thresholds(g, cfg)
    # trial coordinates of finished dimensions stay at their committed value
    trial = theta
    active = np.ones(dim, dtype=bool)
    hits = np.zeros(dim, dtype=bool)
    inner = 0
    last_eps = np.zeros(dim)

    while active.any():
        inner += 1
        if inner > cfg.max_inner:
            raise NonTermination(
                f"adabfe exceeded max_inner={cfg.max_inner}",
                stuck_dims=list(np.nonzero(active)[0]))
        if cfg.pre_halve:
            np.divide(eta, base, out=eta, where=active & zoom_in)
        trial = np.where(active, theta - eta * g, trial)
        g_star = np.asarray(obj.grad(trial, batch), dtype=float)
        if not np.all(np.isfinite(g_star)):
            raise _non_finite("joint trial point", g_star, eta)
        eps = np.atleast_1d(angular_deviation(g, g_star))
        np.copyto(last_eps, eps, where=active)

        # zoom-in searches on while the angle exceeds its threshold, zoom-out
        # while it does not; any other active dimension has crossed
        move = active & ((eps >= thresholds) == zoom_in)
        if not cfg.pre_halve:
            np.divide(eta, base, out=eta, where=move & zoom_in)
        np.multiply(eta, base, out=eta, where=move & zoom_out)
        hit = move & (sign * eta <= edge)
        np.copyto(eta, cap, where=hit)
        hits |= hit
        active = move ^ hit

    branch = Branch.ZOOM_IN if zoom_in.all() else Branch.ZOOM_OUT
    # a dimension that crossed its threshold switches branch; a capped one
    # keeps it
    return StepOutcome(theta_next=trial, eta_next=float(eta.mean()),
                       inner_loops=inner, branch=branch,
                       eps_comp=float(last_eps.max()),
                       eps_val=float(thresholds.max()),
                       capped=bool(hits.any()), rates_next=eta,
                       branches_next=zoom_in ^ ~hits)


class BfeGradOptimizer:
    """Stateful driver for the global gradient-angle variant."""

    def __init__(self, cfg: BfeGradConfig):
        self.cfg = cfg
        self.eta = cfg.eta0
        self.zoom_in = True

    def step(self, obj: Objective, theta: np.ndarray, batch: Batch,
             g0: np.ndarray | None = None, epoch: int = 0) -> StepOutcome:
        rate = RateState(eta=self.eta, eta0=self.cfg.eta0)
        out = bfe_grad_step(obj, theta, rate, self.cfg, batch, self.zoom_in,
                            g0)
        self.eta = out.eta_next
        # zoom-in ends below threshold -> zoom-out next; zoom-out ends
        # at/above threshold -> zoom-in next
        self.zoom_in = out.branch is Branch.ZOOM_OUT
        return out


class AdaBfeOptimizer:
    """Stateful driver for the per-parameter adaptive variant."""

    def __init__(self, cfg: BfeGradConfig, dim: int):
        self.cfg = cfg
        self.rates = np.full(dim, cfg.eta0, dtype=float)
        self.zoom_in = np.ones(dim, dtype=bool)

    def step(self, obj: Objective, theta: np.ndarray, batch: Batch,
             g0: np.ndarray | None = None, epoch: int = 0) -> StepOutcome:
        rate = RateState(eta=self.cfg.eta0, eta0=self.cfg.eta0,
                         per_dim=self.rates)
        out = adabfe_step(obj, theta, rate, self.cfg, batch, self.zoom_in,
                          g0)
        self.rates = out.rates_next
        self.zoom_in = out.branches_next
        return out
