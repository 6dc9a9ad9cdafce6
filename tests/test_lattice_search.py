"""The scalar BFE rate search (``lattice_search``) and its two callers.

``bfe_step`` and ``bfe_grad_step`` are checked bit for bit against
reference copies that each spell the search out as their own loops, one per
branch, with the lattice bounds and the cap test inline.
``adabfe_step``'s per-dimension rates are checked to stay on the lattice.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt.bfe_grad import (
    RELATIVE_RATIO,
    BfeGradConfig,
    ThresholdMode,
    ZoomOutExit,
    adabfe_step,
    bfe_grad_step,
    grad_probe,
)
from bfeopt.bfe_loss import (
    CAP_EXP,
    BfeLossConfig,
    CommitPolicy,
    Lattice,
    bfe_step,
    lattice_search,
    loss_pair_zoom_in,
    loss_pair_zoom_out,
)
from bfeopt.core import (
    THRESHOLD_FLOOR,
    Branch,
    ThresholdPolicy,
    eval_criterion_threshold,
)
from bfeopt.problems import quadratic_objective


def reference_bfe_step(obj, theta, eta, cfg, batch, zoom_in=True, epoch=0):
    g = obj.grad(theta, batch)
    base = float(cfg.base)
    lo = cfg.eta0 * base ** -CAP_EXP
    hi = cfg.eta0 * base ** CAP_EXP
    inner = 0
    capped = False

    if zoom_in:
        while True:
            inner += 1
            pair = loss_pair_zoom_in(obj, theta, eta, batch, g)
            eps_comp = abs(pair.loss_two_step - pair.loss_full)
            eps_val = eval_criterion_threshold(
                pair.loss_full, pair.loss_two_step, cfg.eps_ratio,
                cfg.eps_val_policy, epoch)
            eta = eta / base
            if eps_comp < eps_val:
                break
            if eta <= lo * (1.0 + 1e-9):
                eta = lo
                capped = True
                break
        if not capped and cfg.commit_policy is CommitPolicy.FULL_STEP:
            eta_next = eta * base
            theta_next = pair.trial_full
        else:
            eta_next = max(eta, lo)
            theta_next = pair.trial_half
        branch = Branch.ZOOM_IN
    else:
        while True:
            inner += 1
            pair = loss_pair_zoom_out(obj, theta, eta, batch, g)
            eps_comp = abs(pair.loss_full - pair.loss_two_step)
            eps_val = eval_criterion_threshold(
                pair.loss_two_step, pair.loss_full, cfg.eps_ratio,
                cfg.eps_val_policy, epoch)
            eta = eta * base
            if eps_comp >= eps_val:
                break
            if eta >= hi * (1.0 - 1e-9):
                eta = hi
                capped = True
                break
        if not capped:
            eta = eta / base
        eta_next = eta
        theta_next = pair.trial_half
        branch = Branch.ZOOM_OUT
    return (theta_next, eta_next, inner, branch, eps_comp, eps_val, capped)


def reference_thresholds(g, cfg):
    if cfg.threshold_mode is ThresholdMode.RELATIVE:
        thr = RELATIVE_RATIO * np.abs(np.arctan(g))
        return np.maximum(thr, THRESHOLD_FLOOR)
    return np.full(np.shape(g), cfg.angle_threshold)


def reference_exceeds(probe, cfg):
    return bool(np.any(probe.eps_per_dim >= reference_thresholds(probe.g,
                                                                 cfg)))


def reference_bfe_grad_step(obj, theta, eta, cfg, batch, zoom_in=True):
    g = obj.grad(theta, batch)
    base = float(cfg.base)
    lo = cfg.eta0 * base ** -CAP_EXP
    hi = cfg.eta0 * base ** CAP_EXP
    inner = 0
    capped = False

    if zoom_in:
        while True:
            inner += 1
            probe = grad_probe(obj, theta, eta, batch, g)
            eta = eta / base
            if not reference_exceeds(probe, cfg):
                break
            if eta <= lo * (1.0 + 1e-9):
                eta = lo
                capped = True
                break
        if not capped:
            eta = eta * base
        theta_next = probe.theta_trial
        branch = Branch.ZOOM_IN
    else:
        while True:
            inner += 1
            probe = grad_probe(obj, theta, eta, batch, g)
            eta = eta * base
            if reference_exceeds(probe, cfg):
                break
            if eta >= hi * (1.0 - 1e-9):
                eta = hi
                capped = True
                break
        if capped:
            theta_next = probe.theta_trial
        elif cfg.zoom_out_exit is ZoomOutExit.QUARTER_FRESH_STEP:
            eta = max(eta / (base * base), lo)
            theta_next = theta - eta * probe.g
        else:
            eta = eta / base
            theta_next = probe.theta_trial
        branch = Branch.ZOOM_OUT
    return (theta_next, eta, inner, branch, probe.eps_max,
            float(reference_thresholds(probe.g, cfg).max()), capped)


class SignFlip:
    """Every trial step flips the slope and moves off the zero-loss point:
    the loss pair disagrees and the angle is pi/2 at any rate, so a zoom-in
    search runs down to the lowest rate."""

    def loss(self, theta, batch=None):
        return 0.0 if np.all(theta == 0.0) else 1.0

    def grad(self, theta, batch=None):
        return np.where(theta == 0.0, 1.0, -1.0)


@st.composite
def search_cases(draw):
    """An objective, a start point and a start rate ``eta0 * base**k``.

    Quadratics at a random point stop somewhere inside the lattice; at the
    minimum the probes never cross, so zoom-out runs up to the highest rate;
    ``SignFlip`` takes zoom-in down to the lowest one.
    """
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["quadratic", "minimum", "signflip"]))
    if kind == "signflip":
        obj = SignFlip()
        theta = np.zeros(dim)
        eta0 = draw(st.sampled_from([1e-3, 1.0, 1e18]))
    else:
        obj = quadratic_objective(draw(st.lists(
            st.floats(1e-3, 1e2), min_size=dim, max_size=dim)))
        theta = np.zeros(dim) if kind == "minimum" else np.array(draw(
            st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)))
        eta0 = draw(st.sampled_from([1e-3, 1.0]))
    base = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(-CAP_EXP, CAP_EXP))
    eta = eta0 * float(base) ** k
    return obj, theta, eta, eta0, base, k


def _outcome(step, *args):
    """A step's result as comparable bytes."""
    theta_next, eta, inner, branch, eps_comp, eps_val, capped = step(*args)
    return (np.asarray(theta_next, dtype=float).tobytes(),
            float(eta).hex(), inner, branch, float(eps_comp).hex(),
            float(eps_val).hex(), capped)


def _fields(out):
    return (out.theta_next, out.eta_next, out.inner_loops, out.branch,
            out.eps_comp, out.eps_val, out.capped)


def assert_on_lattice(eta, eta0, base):
    """``eta / eta0`` is ``base**k`` to 1e-9 for an integer k in range."""
    k = round(math.log(eta / eta0) / math.log(base))
    assert eta / eta0 == pytest.approx(float(base) ** k, rel=1e-9)
    assert -CAP_EXP <= k <= CAP_EXP


@settings(max_examples=300, deadline=None)
@given(search_cases(), st.sampled_from(list(CommitPolicy)),
       st.sampled_from(list(ThresholdPolicy)), st.booleans(),
       st.sampled_from([1e-3, 0.1]), st.integers(0, 5))
def test_bfe_step_matches_reference(case, commit, policy, zoom_in, ratio,
                                    epoch):
    obj, theta, eta, eta0, base, _ = case
    cfg = BfeLossConfig(eta0=eta0, base=base, eps_ratio=ratio,
                        eps_val_policy=policy, commit_policy=commit)
    ref = _outcome(reference_bfe_step, obj, theta, eta, cfg, None, zoom_in,
                   epoch)
    got = _outcome(lambda *a: _fields(bfe_step(*a)), obj, theta, eta, cfg,
                   None, zoom_in, epoch)
    assert got == ref
    assert_on_lattice(float.fromhex(got[1]), eta0, base)


@settings(max_examples=300, deadline=None)
@given(search_cases(), st.sampled_from(list(ZoomOutExit)),
       st.sampled_from(list(ThresholdMode)), st.booleans(),
       st.sampled_from([0.1, 1.0, 10.0]))
def test_bfe_grad_step_matches_reference(case, exit_rule, mode, zoom_in,
                                         angle_deg):
    obj, theta, eta, eta0, base, _ = case
    cfg = BfeGradConfig(eta0=eta0, angle_threshold=math.radians(
        angle_deg), threshold_mode=mode, base=base, zoom_out_exit=exit_rule)
    ref = _outcome(reference_bfe_grad_step, obj, theta, eta, cfg, None,
                   zoom_in)
    got = _outcome(lambda *a: _fields(bfe_grad_step(*a)), obj, theta, eta,
                   cfg, None, zoom_in)
    assert got == ref
    assert_on_lattice(float.fromhex(got[1]), eta0, base)


@st.composite
def adabfe_search_cases(draw):
    """``search_cases`` with a rate ``eta0 * base**k`` and a branch per
    dimension; the caps are drawn more often than the rates between."""
    dim = draw(st.integers(1, 4))
    obj, theta, _, eta0, base, _ = draw(search_cases())
    theta = np.resize(theta, dim)
    if isinstance(obj, SignFlip):
        theta = np.zeros(dim)
    else:
        obj = quadratic_objective(np.resize(obj.h, dim))
    ks = draw(st.lists(st.one_of(st.integers(-CAP_EXP, CAP_EXP),
                                 st.sampled_from([-CAP_EXP, CAP_EXP])),
                       min_size=dim, max_size=dim))
    rates = np.array([eta0 * float(base) ** k for k in ks])
    zoom_in = np.array(draw(st.lists(st.booleans(), min_size=dim,
                                     max_size=dim)))
    return obj, theta, rates, zoom_in, eta0, base


@settings(max_examples=300, deadline=None)
@given(adabfe_search_cases(), st.booleans(),
       st.sampled_from(list(ThresholdMode)), st.sampled_from([0.1, 1.0, 10.0]))
def test_adabfe_step_rates_stay_on_the_lattice(case, pre_halve, mode,
                                               angle_deg):
    obj, theta, rates, zoom_in, eta0, base = case
    cfg = BfeGradConfig(eta0=eta0, angle_threshold=math.radians(angle_deg),
                        threshold_mode=mode, base=base, pre_halve=pre_halve)
    out = adabfe_step(obj, theta, rates, cfg, None, zoom_in=zoom_in)
    assert out.inner_loops <= 2 * CAP_EXP + 1
    for eta in out.rates_next:
        assert_on_lattice(float(eta), eta0, base)


class NeverCrosses:
    """At the origin no probe crosses: a zoom-in dimension's slope flips at
    any trial step, so its angle is pi/2, and a zoom-out dimension has no
    slope, so its angle is 0."""

    def __init__(self, zoom_in):
        self.zoom_in = zoom_in

    def loss(self, theta, batch=None):
        return 0.0

    def grad(self, theta, batch=None):
        return np.where(self.zoom_in, np.where(theta == 0.0, 1.0, -1.0), 0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.tuples(
    st.lists(st.integers(-CAP_EXP, CAP_EXP), min_size=dim, max_size=dim),
    st.lists(st.booleans(), min_size=dim, max_size=dim))),
    st.sampled_from([1e-3, 1.0, 1e18]), st.integers(2, 6), st.booleans())
def test_adabfe_search_that_never_crosses_caps_every_dimension(
        ks_branches, eta0, base, pre_halve):
    ks, branches = ks_branches
    zoom_in = np.array(branches)
    cfg = BfeGradConfig(eta0=eta0, base=base, pre_halve=pre_halve)
    rates = np.array([eta0 * float(base) ** k for k in ks])
    out = adabfe_step(NeverCrosses(zoom_in), np.zeros(len(ks)), rates, cfg,
                      None, zoom_in=zoom_in)
    assert out.capped
    assert out.inner_loops <= 2 * CAP_EXP + 1
    assert out.rates_next.tolist() == np.where(zoom_in, cfg.lo,
                                               cfg.hi).tolist()
    assert out.branches_next.tolist() == branches  # capped: branches kept


@pytest.mark.parametrize("base", [2, 3])
def test_adabfe_pre_halving_from_the_lowest_rate_is_a_cap_hit(base):
    lo = Lattice(1e-3, base).lo
    cfg = BfeGradConfig(eta0=1e-3, base=base, pre_halve=True)
    # the probe at the lowest rate crosses the threshold at once
    out = adabfe_step(quadratic_objective([1.0]), np.array([1.0]),
                      np.array([lo]), cfg, None)
    assert (out.rates_next.tolist(), out.inner_loops, out.capped) == \
        ([lo], 1, True)
    assert out.theta_next.tolist() == [1.0 - lo]
    assert out.branches_next.tolist() == [True]  # capped: branch kept


@pytest.mark.parametrize("config", [BfeLossConfig, BfeGradConfig])
@pytest.mark.parametrize("eta0, base", [
    (5e-324, 2), (1e-310, 2), (1e-300, 3),  # the lowest rate rounds to 0
    (1.6e290, 2), (4.3e279, 3),             # the highest rate overflows
    (1e-3, 1000000), (1e-3, 10 ** 400),     # base**60 is beyond a float
])
def test_config_rejects_a_lattice_beyond_the_floats(config, eta0, base):
    with pytest.raises(ValueError,
                       match=re.escape(f"eta0={eta0!r} and base={base} ")):
        config(eta0=eta0, base=base)


@pytest.mark.parametrize("eta0, base", [(2.9e-306, 2), (1.5e290, 2),
                                        (1.1e-295, 3), (4.2e279, 3)])
def test_lattice_just_inside_the_floats_is_accepted(eta0, base):
    lattice = Lattice(eta0, base)
    assert 0.0 < lattice.lo and lattice.hi < math.inf


@pytest.mark.parametrize("base", [2, 3])
def test_half_step_exit_from_the_lowest_rate_stays_in_range(base):
    lo = Lattice(1e-3, base).lo
    cfg = BfeLossConfig(eta0=1e-3, base=base)
    # at the minimum the first probe's losses agree, so the search stops
    # after one pass, one scaling below the lowest rate
    out = bfe_step(quadratic_objective([1.0]), np.zeros(1), lo, cfg, None)
    assert (out.eta_next, out.inner_loops, out.capped) == (lo, 1, False)


@pytest.mark.parametrize("base", [2, 3])
def test_quarter_exit_from_the_lowest_rate_stays_in_range(base):
    lo = Lattice(1e-3, base).lo
    cfg = BfeGradConfig(eta0=1e-3, base=base,
                        zoom_out_exit=ZoomOutExit.QUARTER_FRESH_STEP)
    out = bfe_grad_step(SignFlip(), np.zeros(1), lo, cfg, None,
                        zoom_in=False)
    # one pass up from the lowest rate; a quarter of the next is clamped
    assert (out.eta_next, out.inner_loops, out.capped) == (lo, 1, False)
    assert out.theta_next.tolist() == [-lo]  # the fresh step at that rate


def test_search_returns_the_rate_after_the_last_scaling():
    probed = []
    result, eta, passes, capped = lattice_search(
        lambda e: probed.append(e) or len(probed), lambda n: n < 3,
        1.0, Lattice(1.0, 2), True)
    assert probed == [1.0, 0.5, 0.25]
    assert (result, eta, passes, capped) == (3, 0.125, 3, False)
    result, eta, passes, capped = lattice_search(
        lambda e: e, lambda e: e >= 4.0, 1.0, Lattice(1.0, 2), False)
    assert (result, eta, passes, capped) == (4.0, 8.0, 3, False)


@pytest.mark.parametrize("zoom_in", [True, False])
def test_search_stops_at_the_cap(zoom_in):
    lattice = Lattice(1.0, 3)
    lo, hi = lattice.lo, lattice.hi
    probed = []
    result, eta, passes, capped = lattice_search(
        lambda e: probed.append(e) or e, lambda e: zoom_in, 1.0, lattice,
        zoom_in)
    # one pass per lattice point from the start up to the cap, not onto it
    assert (eta, passes, capped) == (lo if zoom_in else hi, CAP_EXP, True)
    assert result == probed[-1] == pytest.approx(
        3.0 ** (1 - CAP_EXP if zoom_in else CAP_EXP - 1), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1e-300, 1e-3, 1.0, 1e18, 1e270]),
       st.integers(2, 6), st.integers(-CAP_EXP, CAP_EXP), st.booleans())
def test_search_that_never_crosses_ends_at_a_cap(eta0, base, k, zoom_in):
    try:
        lattice = Lattice(eta0, base)
    except ValueError:  # the caps of this pair are beyond the floats
        return
    probed = []
    # a criterion that never flips: zoom-in always exceeds, zoom-out never
    result, eta, passes, capped = lattice_search(
        lambda e: probed.append(e) or e, lambda e: zoom_in,
        eta0 * float(base) ** k, lattice, zoom_in)
    assert capped
    assert eta == (lattice.lo if zoom_in else lattice.hi)
    assert passes == len(probed) <= 2 * CAP_EXP + 1


@pytest.mark.parametrize("eta", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("zoom_in", [True, False])
def test_search_rejects_a_rate_that_never_reaches_a_cap(eta, zoom_in):
    with pytest.raises(ValueError, match="must be positive and finite"):
        lattice_search(lambda e: e, lambda e: zoom_in, eta, Lattice(1.0, 2),
                       zoom_in)
