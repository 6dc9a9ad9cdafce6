"""The scalar BFE rate search (``lattice_search``) and its two callers.

``bfe_step`` and ``bfe_grad_step`` are checked bit for bit against
reference copies that each spell the search out as their own loops, one per
branch, with the lattice bounds, the pass budget and the cap test inline.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt.bfe_grad import (
    BfeGradConfig,
    ThresholdMode,
    ZoomOutExit,
    bfe_grad_step,
    grad_probe,
)
from bfeopt.bfe_loss import (
    CAP_EXP,
    BfeLossConfig,
    CommitPolicy,
    bfe_step,
    lattice_search,
    loss_pair_zoom_in,
    loss_pair_zoom_out,
    rate_caps,
)
from bfeopt.core import (
    Branch,
    CriterionState,
    NonTermination,
    RateState,
    ThresholdPolicy,
    eval_criterion_threshold,
)
from bfeopt.problems import quadratic_objective


def reference_bfe_step(obj, theta, rate, crit, cfg, batch, epoch=0, g0=None):
    if g0 is None:
        g0 = obj.grad(theta, batch)
    base = float(cfg.base)
    eta = rate.eta
    lo = rate.eta0 * base ** -CAP_EXP
    hi = rate.eta0 * base ** CAP_EXP
    etas = []
    inner = 0
    capped = False

    if crit.eps_comp >= crit.eps_val:
        while True:
            inner += 1
            if inner > cfg.max_inner:
                raise NonTermination(
                    f"zoom-in exceeded max_inner={cfg.max_inner}", etas=etas)
            etas.append(eta)
            pair = loss_pair_zoom_in(obj, theta, eta, batch, g0)
            eps_comp = abs(pair.loss2 - pair.loss1)
            eps_val = eval_criterion_threshold(pair.loss1, pair.loss2, crit,
                                               epoch)
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
            eta_next = eta
            theta_next = pair.trial_half
        branch = Branch.ZOOM_IN
    else:
        while True:
            inner += 1
            if inner > cfg.max_inner:
                raise NonTermination(
                    f"zoom-out exceeded max_inner={cfg.max_inner}", etas=etas)
            etas.append(eta)
            pair = loss_pair_zoom_out(obj, theta, eta, batch, g0)
            eps_comp = abs(pair.loss2 - pair.loss1)
            eps_val = eval_criterion_threshold(pair.loss1, pair.loss2, crit,
                                               epoch)
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
        thr = cfg.relative_ratio * np.abs(np.arctan(g))
        return np.maximum(thr, cfg.threshold_floor)
    return np.full(np.shape(g), cfg.angle_threshold)


def reference_exceeds(probe, cfg):
    return bool(np.any(probe.eps_per_dim >= reference_thresholds(probe.g,
                                                                 cfg)))


def reference_bfe_grad_step(obj, theta, rate, cfg, batch, zoom_in=True,
                            g0=None):
    if g0 is None:
        g0 = obj.grad(theta, batch)
    base = float(cfg.base)
    eta = rate.eta
    lo = rate.eta0 * base ** -CAP_EXP
    hi = rate.eta0 * base ** CAP_EXP
    etas = []
    inner = 0
    capped = False

    if zoom_in:
        while True:
            inner += 1
            if inner > cfg.max_inner:
                raise NonTermination(
                    f"grad zoom-in exceeded max_inner={cfg.max_inner}",
                    etas=etas)
            etas.append(eta)
            probe = grad_probe(obj, theta, eta, batch, g0)
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
            if inner > cfg.max_inner:
                raise NonTermination(
                    f"grad zoom-out exceeded max_inner={cfg.max_inner}",
                    etas=etas)
            etas.append(eta)
            probe = grad_probe(obj, theta, eta, batch, g0)
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
    rate = RateState(eta=eta0 * float(base) ** k, eta0=eta0)
    # 2 * CAP_EXP + 1 passes take a rate from one cap to the other
    max_inner = draw(st.one_of(st.integers(1, 2 * CAP_EXP),
                               st.just(2 * CAP_EXP + 1)))
    return obj, theta, rate, base, k, max_inner


def _outcome(step, *args):
    """A step's result as comparable bytes, or its failure."""
    try:
        theta_next, eta, inner, branch, eps_comp, eps_val, capped = step(
            *args)
    except NonTermination as exc:
        return ("NonTermination", str(exc), exc.etas)
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
    obj, theta, rate, base, _, max_inner = case
    crit = CriterionState(eps_comp=math.inf if zoom_in else 0.0,
                          eps_ratio=ratio, policy=policy)
    cfg = BfeLossConfig(eta0=rate.eta0, crit=crit, base=base,
                        commit_policy=commit, max_inner=max_inner)
    ref = _outcome(reference_bfe_step, obj, theta, rate, crit, cfg, None,
                   epoch)
    got = _outcome(lambda *a: _fields(bfe_step(*a)), obj, theta, rate, crit,
                   cfg, None, epoch)
    assert got == ref
    if ref[0] != "NonTermination":
        assert_on_lattice(float.fromhex(got[1]), rate.eta0, base)


@settings(max_examples=300, deadline=None)
@given(search_cases(), st.sampled_from(list(ZoomOutExit)),
       st.sampled_from(list(ThresholdMode)), st.booleans(),
       st.sampled_from([0.1, 1.0, 10.0]))
def test_bfe_grad_step_matches_reference(case, exit_rule, mode, zoom_in,
                                         angle_deg):
    obj, theta, rate, base, _, max_inner = case
    cfg = BfeGradConfig(eta0=rate.eta0, angle_threshold=math.radians(
        angle_deg), threshold_mode=mode, base=base, zoom_out_exit=exit_rule,
        max_inner=max_inner)
    ref = _outcome(reference_bfe_grad_step, obj, theta, rate, cfg, None,
                   zoom_in)
    got = _outcome(lambda *a: _fields(bfe_grad_step(*a)), obj, theta, rate,
                   cfg, None, zoom_in)
    assert got == ref
    if ref[0] != "NonTermination":
        assert_on_lattice(float.fromhex(got[1]), rate.eta0, base)


@pytest.mark.parametrize("base", [2, 3])
def test_quarter_exit_from_the_lowest_rate_stays_in_range(base):
    lo, _ = rate_caps(1e-3, base)
    cfg = BfeGradConfig(eta0=1e-3, base=base,
                        zoom_out_exit=ZoomOutExit.QUARTER_FRESH_STEP)
    out = bfe_grad_step(SignFlip(), np.zeros(1), RateState(eta=lo, eta0=1e-3),
                        cfg, None, zoom_in=False)
    # one pass up from the lowest rate; a quarter of the next is clamped
    assert (out.eta_next, out.inner_loops, out.capped) == (lo, 1, False)
    assert out.theta_next.tolist() == [-lo]  # the fresh step at that rate


def test_search_returns_the_rate_after_the_last_scaling():
    probed = []
    result, eta, passes, capped = lattice_search(
        lambda e: probed.append(e) or len(probed), lambda n: n < 3,
        1.0, 1.0, 2, True, 10, "test")
    assert probed == [1.0, 0.5, 0.25]
    assert (result, eta, passes, capped) == (3, 0.125, 3, False)
    result, eta, passes, capped = lattice_search(
        lambda e: e, lambda e: e >= 4.0, 1.0, 1.0, 2, False, 10, "test")
    assert (result, eta, passes, capped) == (4.0, 8.0, 3, False)


@pytest.mark.parametrize("zoom_in", [True, False])
def test_search_stops_at_the_cap(zoom_in):
    lo, hi = rate_caps(1.0, 3)
    probed = []
    result, eta, passes, capped = lattice_search(
        lambda e: probed.append(e) or e, lambda e: zoom_in, 1.0, 1.0, 3,
        zoom_in, 1000, "test")
    # one pass per lattice point from the start up to the cap, not onto it
    assert (eta, passes, capped) == (lo if zoom_in else hi, CAP_EXP, True)
    assert result == probed[-1] == pytest.approx(
        3.0 ** (1 - CAP_EXP if zoom_in else CAP_EXP - 1), rel=1e-12)


def test_search_over_budget_names_the_probed_rates():
    with pytest.raises(NonTermination, match="^grad zoom-out exceeded "
                       "max_inner=3$") as exc:
        lattice_search(lambda e: e, lambda e: False, 1.0, 1.0, 2, False, 3,
                       "grad zoom-out")
    assert exc.value.etas == [1.0, 2.0, 4.0]
