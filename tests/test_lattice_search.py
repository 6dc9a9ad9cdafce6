"""The scalar BFE rate search (``lattice_search``) and its two callers.

``bfe_step`` and ``bfe_grad_step`` are checked bit for bit against
reference copies that each spell the search out as their own loops, one per
branch, moving an int lattice index and computing each rate as
``eta0 * base**k`` themselves, not from the lattice's table.
``adabfe_step``'s per-dimension rates are checked to stay on the lattice,
and so is every rate a whole run of the four BFE optimizers commits.
"""
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt import harness
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
    ResetPolicy,
    bfe_step,
    lattice_search,
    loss_pair_zoom_in,
    loss_pair_zoom_out,
)
from bfeopt.core import (
    THRESHOLD_FLOOR,
    NonFiniteEvaluation,
    ThresholdPolicy,
    eval_criterion_threshold,
)
from bfeopt.harness import RunConfig, build_optimizer, build_problem
from bfeopt.problems import quadratic_objective


def reference_bfe_step(obj, theta, k, cfg, batch, zoom_in=True, epoch=0):
    g = obj.grad(theta, batch)
    base = float(cfg.base)
    inner = 0
    capped = False

    if zoom_in:
        while True:
            inner += 1
            pair = loss_pair_zoom_in(obj, theta, cfg.eta0 * base ** k, batch,
                                     g)
            eps_comp = abs(pair.loss_two_step - pair.loss_full)
            eps_val = eval_criterion_threshold(
                pair.loss_full, pair.loss_two_step, cfg.eps_ratio,
                cfg.eps_val_policy, epoch)
            k -= 1
            if eps_comp < eps_val:
                break
            if k <= -CAP_EXP:
                k = -CAP_EXP
                capped = True
                break
        if not capped and cfg.commit_policy is CommitPolicy.FULL_STEP:
            k_next = k + 1
            theta_next = pair.trial_full
        else:
            k_next = max(k, -CAP_EXP)
            theta_next = pair.trial_half
        branch = "zoom_in"
    else:
        while True:
            inner += 1
            pair = loss_pair_zoom_out(obj, theta, cfg.eta0 * base ** k, batch,
                                      g)
            eps_comp = abs(pair.loss_full - pair.loss_two_step)
            eps_val = eval_criterion_threshold(
                pair.loss_two_step, pair.loss_full, cfg.eps_ratio,
                cfg.eps_val_policy, epoch)
            k += 1
            if eps_comp >= eps_val:
                break
            if k >= CAP_EXP:
                k = CAP_EXP
                capped = True
                break
        if not capped:
            k -= 1
        k_next = k
        theta_next = pair.trial_half
        branch = "zoom_out"
    return (theta_next, cfg.eta0 * base ** k_next, k_next, inner, branch,
            eps_comp, eps_val, capped)


def reference_thresholds(g, cfg):
    if cfg.threshold_mode is ThresholdMode.RELATIVE:
        thr = RELATIVE_RATIO * np.abs(np.arctan(g))
        return np.maximum(thr, THRESHOLD_FLOOR)
    return np.full(np.shape(g), cfg.angle_threshold)


def reference_exceeds(probe, g, cfg):
    return bool(np.any(probe.eps_per_dim >= reference_thresholds(g, cfg)))


def reference_bfe_grad_step(obj, theta, k, cfg, batch, zoom_in=True):
    g = obj.grad(theta, batch)
    base = float(cfg.base)
    inner = 0
    capped = False

    if zoom_in:
        while True:
            inner += 1
            probe = grad_probe(obj, theta, cfg.eta0 * base ** k, batch, g)
            k -= 1
            if not reference_exceeds(probe, g, cfg):
                break
            if k <= -CAP_EXP:
                k = -CAP_EXP
                capped = True
                break
        if not capped:
            k += 1
        theta_next = probe.theta_trial
        branch = "zoom_in"
    else:
        while True:
            inner += 1
            probe = grad_probe(obj, theta, cfg.eta0 * base ** k, batch, g)
            k += 1
            if reference_exceeds(probe, g, cfg):
                break
            if k >= CAP_EXP:
                k = CAP_EXP
                capped = True
                break
        if capped:
            theta_next = probe.theta_trial
        elif cfg.zoom_out_exit is ZoomOutExit.QUARTER_FRESH_STEP:
            k = max(k - 2, -CAP_EXP)
            theta_next = theta - cfg.eta0 * base ** k * g
        else:
            k -= 1
            theta_next = probe.theta_trial
        branch = "zoom_out"
    return (theta_next, cfg.eta0 * base ** k, k, inner, branch,
            float(probe.eps_per_dim.max()),
            float(reference_thresholds(g, cfg).max()), capped)


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
    """An objective, a start point and a start index ``k`` on the lattice.

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
    return obj, theta, k, eta0, base


def _outcome(step, *args):
    """A step's result as comparable bytes."""
    theta_next, eta, k, inner, branch, eps_comp, eps_val, capped = step(*args)
    return (np.asarray(theta_next, dtype=float).tobytes(),
            float(eta).hex(), k, inner, branch, float(eps_comp).hex(),
            float(eps_val).hex(), capped)


def _fields(out):
    return (out.theta_next, out.eta_next, out.k_next, out.inner_loops,
            out.branch, out.eps_comp, out.eps_val, out.capped)


def assert_on_lattice(rates, k, lattice):
    """``k`` holds ints within the caps, and ``rates`` is exactly the
    lattice's table at ``k``."""
    k = np.asarray(k)
    assert k.dtype.kind == "i"
    assert np.all(np.abs(k) <= CAP_EXP)
    assert np.asarray(rates).tobytes() == lattice.rates[k].tobytes()


@settings(max_examples=300, deadline=None)
@given(search_cases(), st.sampled_from(list(CommitPolicy)),
       st.sampled_from(list(ThresholdPolicy)), st.booleans(),
       st.sampled_from([1e-3, 0.1]), st.integers(0, 5))
def test_bfe_step_matches_reference(case, commit, policy, zoom_in, ratio,
                                    epoch):
    obj, theta, k, eta0, base = case
    cfg = BfeLossConfig(eta0=eta0, base=base, eps_ratio=ratio,
                        eps_val_policy=policy, commit_policy=commit)
    ref = _outcome(reference_bfe_step, obj, theta, k, cfg, None, zoom_in,
                   epoch)
    got = _outcome(lambda *a: _fields(bfe_step(*a)), obj, theta, k, cfg,
                   None, zoom_in, epoch)
    assert got == ref
    assert_on_lattice(float.fromhex(got[1]), got[2], cfg)


@settings(max_examples=300, deadline=None)
@given(search_cases(), st.sampled_from(list(ZoomOutExit)),
       st.sampled_from(list(ThresholdMode)), st.booleans(),
       st.sampled_from([0.1, 1.0, 10.0]))
def test_bfe_grad_step_matches_reference(case, exit_rule, mode, zoom_in,
                                         angle_deg):
    obj, theta, k, eta0, base = case
    cfg = BfeGradConfig(eta0=eta0, angle_threshold=math.radians(
        angle_deg), threshold_mode=mode, base=base, zoom_out_exit=exit_rule)
    ref = _outcome(reference_bfe_grad_step, obj, theta, k, cfg, None,
                   zoom_in)
    got = _outcome(lambda *a: _fields(bfe_grad_step(*a)), obj, theta, k,
                   cfg, None, zoom_in)
    assert got == ref
    assert_on_lattice(float.fromhex(got[1]), got[2], cfg)


@st.composite
def adabfe_search_cases(draw):
    """``search_cases`` with a lattice index and a branch per dimension; the
    caps are drawn more often than the indices between."""
    dim = draw(st.integers(1, 4))
    obj, theta, _, eta0, base = draw(search_cases())
    theta = np.resize(theta, dim)
    if isinstance(obj, SignFlip):
        theta = np.zeros(dim)
    else:
        obj = quadratic_objective(np.resize(obj.h, dim))
    ks = np.array(draw(st.lists(st.one_of(st.integers(-CAP_EXP, CAP_EXP),
                                          st.sampled_from([-CAP_EXP,
                                                           CAP_EXP])),
                                min_size=dim, max_size=dim)))
    zoom_in = np.array(draw(st.lists(st.booleans(), min_size=dim,
                                     max_size=dim)))
    return obj, theta, ks, zoom_in, eta0, base


@settings(max_examples=300, deadline=None)
@given(adabfe_search_cases(), st.booleans(),
       st.sampled_from(list(ThresholdMode)), st.sampled_from([0.1, 1.0, 10.0]))
def test_adabfe_step_rates_stay_on_the_lattice(case, pre_halve, mode,
                                               angle_deg):
    obj, theta, ks, zoom_in, eta0, base = case
    cfg = BfeGradConfig(eta0=eta0, angle_threshold=math.radians(angle_deg),
                        threshold_mode=mode, base=base, pre_halve=pre_halve)
    out = adabfe_step(obj, theta, ks, cfg, None, zoom_in=zoom_in)
    assert out.inner_loops <= 2 * CAP_EXP + 1
    assert_on_lattice(out.rates_next, out.k_next, cfg)


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
    out = adabfe_step(NeverCrosses(zoom_in), np.zeros(len(ks)),
                      np.array(ks), cfg, None, zoom_in=zoom_in)
    assert out.capped
    assert out.inner_loops <= 2 * CAP_EXP + 1
    caps = [-CAP_EXP if z else CAP_EXP for z in branches]
    assert out.k_next.tolist() == caps
    assert out.rates_next.tolist() == [eta0 * float(base) ** k for k in caps]
    assert out.zoom_in_next.tolist() == branches  # capped: branches kept


@pytest.mark.parametrize("base", [2, 3])
def test_adabfe_pre_halving_from_the_lowest_rate_is_a_cap_hit(base):
    lo = 1e-3 * float(base) ** -CAP_EXP
    cfg = BfeGradConfig(eta0=1e-3, base=base, pre_halve=True)
    # the probe at the lowest rate crosses the threshold at once
    out = adabfe_step(quadratic_objective([1.0]), np.array([1.0]),
                      np.array([-CAP_EXP]), cfg, None)
    assert (out.rates_next.tolist(), out.inner_loops, out.capped) == \
        ([lo], 1, True)
    assert out.k_next.tolist() == [-CAP_EXP]
    assert out.theta_next.tolist() == [1.0 - lo]
    assert out.zoom_in_next.tolist() == [True]  # capped: branch kept


@pytest.mark.parametrize("eta0, base", [(1e-3, 2), (1e-3, 3), (1e-300, 2),
                                        (1e290, 2), (1.0, 6)])
def test_lattice_rates_are_eta0_times_base_to_the_k(eta0, base):
    # k indexes the table itself, from -CAP_EXP to CAP_EXP
    rates = Lattice(eta0, base).rates
    assert len(rates) == 2 * CAP_EXP + 1
    for k in range(-CAP_EXP, CAP_EXP + 1):
        assert rates[k] == eta0 * float(base) ** k


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
    rates = Lattice(eta0, base).rates
    assert 0.0 < rates[-CAP_EXP] and rates[CAP_EXP] < math.inf


def test_a_run_config_checks_the_lattice_without_its_rate_table(monkeypatch):
    built = []

    def recorded(config):
        def build(*args, **kwargs):
            built.append(config(*args, **kwargs))
            return built[-1]
        build.__dataclass_fields__ = config.__dataclass_fields__
        return build

    for config in (BfeLossConfig, BfeGradConfig):
        monkeypatch.setattr(harness, config.__name__, recorded(config))
    RunConfig()
    # the angle is checked in degrees; no BfeGradConfig is built for it
    assert [type(c) for c in built] == [BfeLossConfig]
    assert all("rates" not in vars(c) for c in built)
    assert built[0].rates is built[0].rates  # computed once, then kept


@pytest.mark.parametrize("step, config, field, member, k, zoom_in, h", [
    (bfe_step, BfeLossConfig, "commit_policy", CommitPolicy.FULL_STEP, 0,
     True, [1.0, 10.0]),
    (bfe_step, BfeLossConfig, "eps_val_policy", ThresholdPolicy.CONSTANT, 3,
     True, [1.0, 10.0]),
    (bfe_grad_step, BfeGradConfig, "threshold_mode", ThresholdMode.RELATIVE,
     0, False, [0.1]),
    (bfe_grad_step, BfeGradConfig, "zoom_out_exit",
     ZoomOutExit.QUARTER_FRESH_STEP, 0, False, [1.0, 10.0]),
])
def test_a_policy_value_commits_the_point_its_member_does(
        step, config, field, member, k, zoom_in, h):
    obj, theta = quadratic_objective(h), np.ones(len(h))
    stored = config(**{field: member.value})
    assert getattr(stored, field) is member
    points = [step(obj, theta, k, cfg, None, zoom_in).theta_next.tobytes()
              for cfg in (config(), config(**{field: member}), stored)]
    # the member moves the point off the default's, and the value with it
    assert points[0] != points[1] == points[2]


# sha256 of the float64 bytes of the table at eta0 = 1e-3, as computed
# before the table was built on first use
RATE_TABLES = {
    2: "8dc06f4adf2daecf5293be6e74e23ecb27a6ca9597a4a44a9eb40022ead52d1f",
    3: "9a11b9a5f76af3b7dff1f36539a5a9ebd5f228d0e77d74b1ac30125f85aed8ee",
}


@pytest.mark.parametrize("config", [Lattice, BfeLossConfig, BfeGradConfig])
@pytest.mark.parametrize("base", sorted(RATE_TABLES))
def test_the_rate_table_is_bitwise_unchanged(config, base):
    rates = config(eta0=1e-3, base=base).rates
    assert rates.dtype == np.float64 and rates.shape == (2 * CAP_EXP + 1,)
    assert hashlib.sha256(rates.tobytes()).hexdigest() == RATE_TABLES[base]


@pytest.mark.parametrize("base", [2, 3])
def test_half_step_exit_from_the_lowest_rate_stays_in_range(base):
    lo = 1e-3 * float(base) ** -CAP_EXP
    cfg = BfeLossConfig(eta0=1e-3, base=base)
    # at the minimum the first probe's losses agree, so the search stops
    # after one pass, one move below the lowest rate
    out = bfe_step(quadratic_objective([1.0]), np.zeros(1), -CAP_EXP, cfg,
                   None)
    assert (out.eta_next, out.inner_loops, out.capped) == (lo, 1, False)
    assert out.k_next == -CAP_EXP


@pytest.mark.parametrize("base", [2, 3])
def test_quarter_exit_from_the_lowest_rate_stays_in_range(base):
    lo = 1e-3 * float(base) ** -CAP_EXP
    cfg = BfeGradConfig(eta0=1e-3, base=base,
                        zoom_out_exit=ZoomOutExit.QUARTER_FRESH_STEP)
    out = bfe_grad_step(SignFlip(), np.zeros(1), -CAP_EXP, cfg, None,
                        zoom_in=False)
    # one pass up from the lowest rate; a quarter of the next is clamped
    assert (out.eta_next, out.inner_loops, out.capped) == (lo, 1, False)
    assert out.k_next == -CAP_EXP
    assert out.theta_next.tolist() == [-lo]  # the fresh step at that rate


def test_search_returns_the_index_of_its_last_probe():
    probed = []
    result, k, passes, capped = lattice_search(
        lambda e: probed.append(e) or len(probed), lambda n: n < 3,
        0, Lattice(1.0, 2), True)
    assert probed == [1.0, 0.5, 0.25]
    assert (result, k, passes, capped) == (3, -2, 3, False)
    result, k, passes, capped = lattice_search(
        lambda e: e, lambda e: e >= 4.0, 0, Lattice(1.0, 2), False)
    assert (result, k, passes, capped) == (4.0, 2, 3, False)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1e-300, 1e-3, 1.0, 1e18, 1e270]),
       st.integers(2, 6), st.integers(-CAP_EXP, CAP_EXP), st.booleans(),
       st.data())
def test_search_that_crosses_returns_its_last_probed_index(
        eta0, base, k, zoom_in, data):
    try:
        lattice = Lattice(eta0, base)
    except ValueError:  # the caps of this pair are beyond the floats
        return
    step = -1 if zoom_in else 1
    # the criterion flips on pass n, before a move reaches the cap
    n = data.draw(st.integers(1, max(1, CAP_EXP - step * k)))
    probed = []
    result, k_end, passes, capped = lattice_search(
        lambda e: probed.append(e) or len(probed),
        lambda p: zoom_in != (p >= n), k, lattice, zoom_in)
    assert (result, passes, capped) == (n, n, False)
    assert k_end == k + step * (n - 1)
    assert lattice.rates[k_end] == probed[-1]


@pytest.mark.parametrize("zoom_in", [True, False])
def test_search_stops_at_the_cap(zoom_in):
    step = -1 if zoom_in else 1
    probed = []
    result, k, passes, capped = lattice_search(
        lambda e: probed.append(e) or e, lambda e: zoom_in, 0,
        Lattice(1.0, 3), zoom_in)
    # one pass per lattice point from the start up to the cap, not onto it
    assert (k, passes, capped) == (step * CAP_EXP, CAP_EXP, True)
    assert probed == [3.0 ** j for j in range(0, step * CAP_EXP, step)]
    assert result == probed[-1]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1e-300, 1e-3, 1.0, 1e18, 1e270]),
       st.integers(2, 6), st.integers(-CAP_EXP, CAP_EXP), st.booleans())
def test_search_that_never_crosses_ends_at_a_cap(eta0, base, k, zoom_in):
    try:
        lattice = Lattice(eta0, base)
    except ValueError:  # the caps of this pair are beyond the floats
        return
    step = -1 if zoom_in else 1
    probed = []
    # a criterion that never flips: zoom-in always exceeds, zoom-out never
    result, k_end, passes, capped = lattice_search(
        lambda e: probed.append(e) or e, lambda e: zoom_in, k, lattice,
        zoom_in)
    assert capped
    assert k_end == step * CAP_EXP
    # one pass per index from k until the next move reaches the cap; a
    # search that starts at its cap probes it once
    assert passes == len(probed) == max(
        1, CAP_EXP + k if zoom_in else CAP_EXP - k)
    # every probed rate is on the lattice, subnormal ones included
    assert probed == [eta0 * float(base) ** j
                      for j in range(k, k + step * passes, step)]


@pytest.mark.parametrize("k", [-CAP_EXP - 1, CAP_EXP + 1, math.inf,
                               math.nan])
@pytest.mark.parametrize("zoom_in", [True, False])
def test_search_rejects_an_index_beyond_the_caps(k, zoom_in):
    with pytest.raises(ValueError, match=f"must be within \\+-{CAP_EXP}"):
        lattice_search(lambda e: e, lambda e: zoom_in, k, Lattice(1.0, 2),
                       zoom_in)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["bfe", "bfe-zoomin", "bfe-grad", "adabfe"]),
       st.sampled_from([2, 3]), st.sampled_from([1e-290, 1e-3, 1.0, 1e18]),
       st.sampled_from(list(CommitPolicy)), st.sampled_from(list(ResetPolicy)),
       st.sampled_from(list(ZoomOutExit)), st.booleans(), st.integers(1, 20))
def test_every_committed_rate_of_a_run_is_on_the_lattice(
        optimizer, base, eta0, commit, reset, exit_rule, pre_halve, steps):
    cfg = RunConfig(optimizer=optimizer, problem="quadratic",
                    curvatures=(0.1, 1.0, 10.0), eta0=eta0, base=base,
                    commit_policy=commit.value, reset_policy=reset.value,
                    zoom_out_exit=exit_rule.value, pre_halve=pre_halve)
    obj, theta, _ = build_problem(cfg)
    opt = build_optimizer(cfg, dim=theta.size)
    for _ in range(steps):
        try:
            out = opt.step(obj, theta, None)
        # a diverged run commits no more rates; at a rate of 1e18 the angle
        # overflows, which the test config turns into an error, before the
        # run fails
        except (NonFiniteEvaluation, RuntimeWarning):
            break
        theta = out.theta_next
        if optimizer == "adabfe":
            assert_on_lattice(out.rates_next, out.k_next, opt.cfg)
        else:  # the trace's eta column
            assert_on_lattice(out.eta_next, out.k_next, opt.cfg)
