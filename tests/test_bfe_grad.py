import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt.bfe_grad import (
    AdaBfeOptimizer,
    BfeGradConfig,
    BfeGradOptimizer,
    DEG,
    RELATIVE_RATIO,
    ThresholdMode,
    ZoomOutExit,
    adabfe_step,
    bfe_grad_step,
    grad_probe,
)
from bfeopt.bfe_loss import CAP_EXP
from bfeopt.core import (
    THRESHOLD_FLOOR,
    NonFiniteEvaluation,
)
from bfeopt.problems import quadratic_objective


# ---------------------------------------------------------------------------
# Independent oracle: closed-form angle sequence on f = h/2 * theta^2,
# where g = h*theta and a trial step at rate eta gives g* = g*(1 - eta*h).
# ---------------------------------------------------------------------------

def oracle_angle(h, theta, eta):
    g = h * theta
    gs = g * (1.0 - eta * h)
    den = 1.0 + gs * g
    if den == 0.0:
        return math.pi / 2
    return math.atan(abs((gs - g) / den))


def oracle_grad_step(h, theta, eta, threshold, zoom_in,
                     exit_mode="halve_commit_trial"):
    inner = 0
    if zoom_in:
        while True:
            inner += 1
            eps = oracle_angle(h, theta, eta)
            trial = theta - eta * h * theta
            eta = eta / 2.0
            if eps < threshold:
                break
        return trial, eta * 2.0, inner
    while True:
        inner += 1
        eps = oracle_angle(h, theta, eta)
        trial = theta - eta * h * theta
        eta = eta * 2.0
        if eps >= threshold:
            break
    if exit_mode == "quarter_fresh_step":
        eta = eta / 4.0
        return theta - eta * h * theta, eta, inner
    return trial, eta / 2.0, inner


# ---------------------------------------------------------------------------
# grad_probe
# ---------------------------------------------------------------------------

def test_probe_unit_rate_quarter_turn():
    obj = quadratic_objective([1.0])
    probe = grad_probe(obj, np.array([1.0]), 1.0, None)
    assert probe.g[0] == 1.0
    assert probe.theta_trial[0] == 0.0
    assert probe.g_star[0] == 0.0
    assert float(probe.eps_per_dim.max()) == pytest.approx(math.pi / 4,
                                                           rel=1e-12)


def test_probe_small_rate():
    obj = quadratic_objective([1.0])
    probe = grad_probe(obj, np.array([1.0]), 0.01, None)
    assert float(probe.eps_per_dim.max()) == pytest.approx(
        math.atan(0.01 / 1.99), rel=1e-12)
    assert float(probe.eps_per_dim.max()) < 1.0 * DEG


def test_probe_two_dims():
    obj = quadratic_objective([1.0, 100.0])
    probe = grad_probe(obj, np.array([1.0, 1.0]), 0.001, None)
    assert probe.eps_per_dim[0] == pytest.approx(math.atan(0.001 / 1.999),
                                                 rel=1e-12)
    assert probe.eps_per_dim[1] == pytest.approx(math.atan(10.0 / 9001.0),
                                                 rel=1e-12)
    assert float(probe.eps_per_dim.max()) == probe.eps_per_dim[1]


def test_probe_budget(counting):
    obj = counting(quadratic_objective([1.0, 2.0]))
    grad_probe(obj, np.array([1.0, 1.0]), 0.01, None)
    assert obj.grad_calls == 2
    assert obj.loss_calls == 0


def test_probe_with_given_gradient_matches(counting):
    obj = counting(quadratic_objective([1.0, 2.0]))
    theta = np.array([1.0, 1.0])
    probe = grad_probe(obj, theta, 0.01, None)
    obj.reset()
    given = grad_probe(obj, theta, 0.01, None, g=obj.inner.grad(theta, None))
    assert obj.grad_calls == 1
    assert np.array_equal(given.theta_trial, probe.theta_trial)
    assert np.array_equal(given.eps_per_dim, probe.eps_per_dim)


# ---------------------------------------------------------------------------
# Global gradient-angle steps vs the oracle
# ---------------------------------------------------------------------------

def test_grad_zoom_in_trace():
    obj = quadratic_objective([1.0])
    cfg = BfeGradConfig(eta0=1.0)
    out = bfe_grad_step(obj, np.array([1.0]), 0, cfg, None, zoom_in=True)
    exp_theta, exp_eta, exp_inner = oracle_grad_step(1.0, 1.0, 1.0,
                                                     1.0 * DEG, True)
    # oracle-computed: probes at 1, 0.5, ..., 0.03125 (0.909 deg < 1 deg)
    assert exp_inner == 6
    assert out.inner_loops == 6
    assert out.theta_next[0] == pytest.approx(0.96875, rel=1e-12)
    assert out.eta_next == pytest.approx(0.03125, rel=1e-12)
    assert out.theta_next[0] == pytest.approx(exp_theta, rel=1e-12)
    assert out.eta_next == pytest.approx(exp_eta, rel=1e-12)
    assert out.k_next == -5


@pytest.mark.parametrize("exit_mode", ["halve_commit_trial",
                                       "quarter_fresh_step"])
def test_grad_zoom_out_trace(exit_mode):
    obj = quadratic_objective([1.0])
    cfg = BfeGradConfig(eta0=0.001, zoom_out_exit=ZoomOutExit(exit_mode))
    out = bfe_grad_step(obj, np.array([1.0]), 0, cfg, None, zoom_in=False)
    exp_theta, exp_eta, exp_inner = oracle_grad_step(1.0, 1.0, 0.001,
                                                     1.0 * DEG, False,
                                                     exit_mode)
    assert out.inner_loops == exp_inner == 7  # 0.001 doubling to 0.064
    assert out.eta_next == pytest.approx(exp_eta, rel=1e-12)
    assert out.theta_next[0] == pytest.approx(exp_theta, rel=1e-12)


def test_grad_zoom_out_zero_gradient_caps():
    obj = quadratic_objective([1.0])
    cfg = BfeGradConfig(eta0=0.001)
    out = bfe_grad_step(obj, np.array([0.0]), 0, cfg, None, zoom_in=False)
    assert out.capped
    assert (out.k_next, out.eta_next) == (CAP_EXP, 0.001 * 2.0 ** CAP_EXP)
    assert out.theta_next[0] == 0.0


def test_grad_zoom_in_that_never_crosses_caps_at_the_lowest_rate():
    class ConstantAngle:
        # gradient flips sign regardless of step size: angle never shrinks
        def loss(self, theta, batch=None):
            return float(abs(theta[0]))

        def grad(self, theta, batch=None):
            return np.array([1.0 if theta[0] >= 0.0 else -1.0])

    cfg = BfeGradConfig(eta0=1.0)
    out = bfe_grad_step(ConstantAngle(), np.array([0.0]), 0, cfg, None,
                        zoom_in=True)
    # one shrink per pass from eta0 down to the lowest rate
    assert (out.inner_loops, out.capped, out.eta_next) == \
        (CAP_EXP, True, 2.0 ** -CAP_EXP)
    assert out.k_next == -CAP_EXP


def test_zoom_in_angles_decrease_with_rate():
    # eps(eta) is increasing in eta for eta*h in (0, 1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = rng.uniform(0.1, 10.0)
        theta = rng.uniform(0.1, 5.0)
        eta = rng.uniform(0.0, 1.0) / h
        assert oracle_angle(h, theta, eta) >= oracle_angle(h, theta, eta / 2)


# ---------------------------------------------------------------------------
# AdaBFE
# ---------------------------------------------------------------------------

def test_adabfe_anisotropic_rates_diverge():
    obj = quadratic_objective([1.0, 100.0])
    cfg = BfeGradConfig(eta0=0.001)
    out = adabfe_step(obj, np.array([1.0, 1.0]), np.array([0, 0]), cfg, None,
                      zoom_in=np.array([False, False]))
    # the stiff dimension exits its growth loop at a smaller rate
    assert out.rates_next[1] < out.rates_next[0]
    assert out.k_next[1] < out.k_next[0]


def test_adabfe_symmetric_dims_stay_equal():
    obj = quadratic_objective([2.0, 2.0])
    cfg = BfeGradConfig(eta0=0.001)
    opt = AdaBfeOptimizer(cfg, dim=2)
    theta = np.array([1.5, 1.5])
    for _ in range(20):
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        assert out.rates_next[0] == out.rates_next[1]
        assert theta[0] == theta[1]


def test_adabfe_one_joint_gradient_per_inner_pass(counting):
    obj = counting(quadratic_objective([1.0, 100.0]))
    cfg = BfeGradConfig(eta0=0.001)
    out = adabfe_step(obj, np.array([1.0, 1.0]), np.array([0, 0]), cfg, None)
    # one base gradient plus one joint probe gradient per inner pass
    assert obj.grad_calls == out.inner_loops + 1
    assert obj.loss_calls == 0


@pytest.mark.parametrize("pre_halve", [False, True])
def test_adabfe_1d_matches_global_variant(pre_halve):
    obj = quadratic_objective([3.0])
    cfg = BfeGradConfig(eta0=0.001, pre_halve=pre_halve)
    acfg = BfeGradConfig(eta0=0.001, pre_halve=pre_halve)
    gopt = BfeGradOptimizer(cfg)
    aopt = AdaBfeOptimizer(acfg, dim=1)
    gtheta = np.array([1.0])
    atheta = np.array([1.0])
    for step in range(25):
        gout = gopt.step(obj, gtheta, None)
        aout = aopt.step(obj, atheta, None)
        gtheta, atheta = gout.theta_next, aout.theta_next
        if pre_halve:
            # the pre-halving reordering changes the trajectory; only the
            # structural invariants are shared
            assert aout.inner_loops >= 1
            continue
        assert gout.inner_loops == aout.inner_loops, f"step {step}"
        assert gtheta[0] == atheta[0], f"step {step}"
        assert gout.eta_next == aout.rates_next[0], f"step {step}"


def test_capped_zoom_out_branch_rules_of_the_1d_variants():
    # from eta0 = 1e-30 the angle stays below threshold up to the highest
    # rate, so step 2's zoom-out search ends capped at k = CAP_EXP. The
    # global variant switches branch after every step, capped or not;
    # AdaBFE keeps a capped dimension's branch, so it stays on zoom-out and
    # is capped on every later step. Both commit the same points.
    obj = quadratic_objective([1.0])
    cfg = BfeGradConfig(eta0=1e-30)
    gopt, aopt = BfeGradOptimizer(cfg), AdaBfeOptimizer(cfg, dim=1)
    gtheta = atheta = np.array([1.0])
    gsteps, asteps = [], []
    for step in range(6):
        gout, aout = gopt.step(obj, gtheta, None), aopt.step(obj, atheta, None)
        gtheta, atheta = gout.theta_next, aout.theta_next
        assert gtheta[0] == atheta[0], f"step {step}"
        gsteps.append((gout.branch, gout.capped, gout.k_next, gopt.zoom_in))
        asteps.append((aout.branch, aout.capped, aout.k_next.tolist(),
                       aopt.zoom_in.tolist()))
    zi, zo = "zoom_in", "zoom_out"
    assert gsteps == [(zi, False, 0, False),
                      *[(zo, True, CAP_EXP, True),
                        (zi, False, CAP_EXP, False)] * 2,
                      (zo, True, CAP_EXP, True)]
    assert asteps == [(zi, False, [0], [False]),
                      *[(zo, True, [CAP_EXP], [False])] * 5]
    assert gtheta[0] < 1.0


def test_adabfe_stuck_dimension_searches_on_to_its_cap():
    class Stuck:
        def loss(self, theta, batch=None):
            return 0.0

        def grad(self, theta, batch=None):
            # dim 1 angle never falls below threshold
            return np.array([theta[0], 1.0 if theta[1] >= 0.0 else -1.0])

    cfg = BfeGradConfig(eta0=1.0)
    out = adabfe_step(Stuck(), np.array([0.5, 0.0]), np.array([0, 0]), cfg,
                      None)
    # dim 0 crosses at 1/32; dim 1 shrinks on down to the lowest rate
    assert (out.inner_loops, out.capped) == (CAP_EXP, True)
    assert out.rates_next.tolist() == [1.0 / 32, 2.0 ** -CAP_EXP]
    assert out.k_next.tolist() == [-5, -CAP_EXP]
    assert out.zoom_in_next.tolist() == [False, True]


def test_adabfe_rates_on_lattice():
    obj = quadratic_objective([1.0, 100.0])
    cfg = BfeGradConfig(eta0=0.001)
    opt = AdaBfeOptimizer(cfg, dim=2)
    theta = np.array([1.0, 1.0])
    for _ in range(50):
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        assert np.all(np.abs(out.k_next) <= CAP_EXP)
        assert out.rates_next.tolist() == [cfg.rates[k] for k in out.k_next]


# ---------------------------------------------------------------------------
# AdaBFE against a per-dimension reference: the rate search written as one
# Python loop over the active dimensions, with the angle computed through
# explicit zero-denominator handling.
# ---------------------------------------------------------------------------

def reference_angle(g, g_star):
    den = 1.0 + g_star * g
    safe_den = np.where(den == 0.0, 1.0, den)
    return np.where(den == 0.0, math.pi / 2,
                    np.arctan(np.abs(np.abs(g_star - g) / safe_den)))


def reference_adabfe_step(obj, theta, k, eta0, cfg, zoom_in):
    """Returns (theta_next, rates_next, k_next, zoom_in_next, inner_loops,
    capped, eps_comp, eps_val)."""
    theta = np.asarray(theta, dtype=float)
    dim = theta.size
    base = float(cfg.base)
    k = np.array(k)
    zoom_in = np.array(zoom_in, dtype=bool)
    zoom_next = zoom_in.copy()
    g = obj.grad(theta, None)
    if cfg.threshold_mode is ThresholdMode.RELATIVE:
        thresholds = np.maximum(RELATIVE_RATIO * np.abs(np.arctan(g)),
                                THRESHOLD_FLOOR)
    else:
        thresholds = np.full(dim, cfg.angle_threshold)
    committed = theta.copy()
    active = np.ones(dim, dtype=bool)
    held = np.zeros(dim, dtype=bool)
    capped = False
    inner = 0
    last_eps = np.zeros(dim)
    while active.any():
        inner += 1
        if cfg.pre_halve:
            shrink = active & zoom_in
            k[shrink] -= 1
            # a halving from the lowest rate is held there, as a cap hit
            under = k < -CAP_EXP
            k[under] = -CAP_EXP
            held |= under
            capped = capped or bool(under.any())
        trial = committed.copy()
        for i in np.nonzero(active)[0]:
            trial[i] = theta[i] - eta0 * base ** int(k[i]) * g[i]
        eps = reference_angle(g, obj.grad(trial, None))
        last_eps[active] = eps[active]
        for i in np.nonzero(active)[0]:
            exceed = eps[i] >= thresholds[i]
            if zoom_in[i]:
                if exceed:
                    if not cfg.pre_halve:
                        k[i] -= 1
                    if k[i] <= -CAP_EXP:
                        k[i] = -CAP_EXP
                        committed[i] = trial[i]
                        active[i] = False
                        capped = True
                else:
                    committed[i] = trial[i]
                    active[i] = False
                    zoom_next[i] = held[i]  # a capped dim keeps its branch
            else:
                if exceed:
                    committed[i] = trial[i]
                    active[i] = False
                    zoom_next[i] = True
                else:
                    k[i] += 1
                    if k[i] >= CAP_EXP:
                        k[i] = CAP_EXP
                        committed[i] = trial[i]
                        active[i] = False
                        capped = True
    rates = np.array([eta0 * base ** int(j) for j in k])
    return (committed, rates, k, zoom_next, inner, capped,
            float(last_eps.max()), float(thresholds.max()))


@st.composite
def adabfe_cases(draw):
    dim = draw(st.integers(1, 40))
    base = draw(st.sampled_from([2, 3]))
    # with eta0 = 1e18 the lowest rate is large enough for a quadratic's
    # angle to stay above the threshold there, so zoom-in reaches the cap
    eta0 = draw(st.sampled_from([1e-3, 1.0, 1e18]))
    # exponents k of eta0 * base**k, from the lower cap to the upper one
    ks = draw(st.lists(st.integers(-CAP_EXP, CAP_EXP), min_size=dim,
                       max_size=dim))
    theta = draw(st.lists(st.floats(-10.0, 10.0), min_size=dim,
                          max_size=dim))
    # a zero gradient keeps a zoom-out dim below threshold up to the cap
    for i in draw(st.sets(st.integers(0, dim - 1), max_size=2)):
        theta[i] = 0.0
    curvatures = draw(st.lists(st.floats(1e-3, 1e2), min_size=dim,
                               max_size=dim))
    zoom_in = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    cfg = BfeGradConfig(
        eta0=eta0, base=base,
        angle_threshold=draw(st.sampled_from([0.1, 1.0, 10.0])) * DEG,
        threshold_mode=draw(st.sampled_from(list(ThresholdMode))),
        pre_halve=draw(st.booleans()))
    return curvatures, theta, ks, zoom_in, cfg


@settings(max_examples=300, deadline=None)
@given(adabfe_cases())
def test_adabfe_matches_per_dimension_reference(case):
    curvatures, theta, ks, zoom_in, cfg = case
    obj = quadratic_objective(curvatures)
    theta = np.array(theta)
    ref = reference_adabfe_step(obj, theta, ks, cfg.eta0, cfg, zoom_in)
    out = adabfe_step(obj, theta, np.array(ks), cfg, None, zoom_in=zoom_in)
    theta_next, rates_next, k_next, zoom_in_next, inner, capped, eps_comp, \
        eps_val = ref
    assert out.theta_next.tobytes() == theta_next.tobytes()
    assert out.rates_next.tobytes() == rates_next.tobytes()
    assert out.k_next.tolist() == k_next.tolist()
    assert np.array_equal(out.zoom_in_next, zoom_in_next)
    assert out.inner_loops == inner
    assert out.capped is capped
    assert out.eps_comp == eps_comp
    assert out.eps_val == eps_val
    # the trace's eta column: the mean of the rates, to the bit
    assert out.eta_next.hex() == float(np.mean(rates_next)).hex()
    assert out.branch == ("zoom_in" if all(zoom_in) else "zoom_out")


# (pass of the first possible cap, branch of the dimension that takes it,
# pre_halve): a zoom-in index at the lowest rate is a preset hit, on pass 1
FIRST_CAPS = [(p, zoom_in, pre_halve) for p in (1, 2, 3)
              for zoom_in in (True, False) for pre_halve in (False, True)]
FIRST_CAPS.append((0, True, True))


@pytest.mark.parametrize("later", [False, True],
                         ids=["alone", "with-a-later-cap"])
@pytest.mark.parametrize("base", [2, 3])
@pytest.mark.parametrize("first_cap, zoom_in, pre_halve", FIRST_CAPS)
def test_adabfe_cap_on_the_first_pass_that_can_reach_one(
        first_cap, zoom_in, pre_halve, base, later):
    # with the lowest rate at 1, every probe of a zoom-in dim 0 (theta 1,
    # curvature 1) exceeds the threshold, and a zero gradient keeps every
    # probe of a zoom-out dim 0, and of the later dim, below it, so each
    # runs to its cap; dims 1 and 2 cross on pass 1
    cfg = BfeGradConfig(eta0=float(base) ** CAP_EXP, base=base,
                        pre_halve=pre_halve)
    sign = -1 if zoom_in else 1
    curvatures = [1.0, 1e-20, 1.0]
    theta = [1.0, 1.0, 1.0]
    ks = [sign * (CAP_EXP - first_cap), 0, 0]
    zoom_ins = [zoom_in, True, False]
    if not zoom_in:
        theta[0] = 0.0
    if later:  # a zoom-out dim that reaches its cap two passes later
        curvatures.append(1.0)
        theta.append(0.0)
        ks.append(CAP_EXP - first_cap - 2)
        zoom_ins.append(False)
    obj = quadratic_objective(curvatures)
    theta = np.array(theta)
    out = adabfe_step(obj, theta, np.array(ks), cfg, None,
                      zoom_in=np.array(zoom_ins))
    theta_next, _, k_next, zoom_in_next, inner, capped, eps_comp, _ = \
        reference_adabfe_step(obj, theta, ks, cfg.eta0, cfg, zoom_ins)
    assert out.theta_next.tobytes() == theta_next.tobytes()
    assert out.k_next.tolist() == k_next.tolist()
    assert out.zoom_in_next.tolist() == zoom_in_next.tolist()
    assert out.capped is capped is True
    assert out.eps_comp.hex() == eps_comp.hex()
    assert out.inner_loops == inner == (first_cap + 2 if later
                                        else max(first_cap, 1))
    assert out.k_next[0] == sign * CAP_EXP
    assert out.zoom_in_next[0] == zoom_in  # a capped dim keeps its branch


@pytest.mark.parametrize("zoom_in", [[False], [True, False]])
def test_adabfe_rejects_a_branch_count_other_than_dim(zoom_in):
    # a length-1 list would broadcast over all 3 dims without a word
    obj = quadratic_objective([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=re.escape(
            f"branches must have theta's shape (3,), not ({len(zoom_in)},)")):
        adabfe_step(obj, np.ones(3), np.zeros(3, dtype=int), BfeGradConfig(),
                    None, zoom_in=zoom_in)


@pytest.mark.parametrize("theta", [[], [[1.0]], 1.0])
def test_adabfe_rejects_a_theta_that_is_not_a_non_empty_vector(theta):
    shape = np.shape(theta)
    with pytest.raises(ValueError, match=re.escape(
            f"theta must be a non-empty 1-D array, not one of shape {shape}")):
        adabfe_step(quadratic_objective([1.0]), theta,
                    np.zeros(shape, dtype=int), BfeGradConfig(), None)


@pytest.mark.parametrize("k", [0, [[0]], [1e-3]])
def test_adabfe_rejects_indices_of_another_shape(k):
    # a bare index has one entry, as theta does, but not its shape; a rate
    # has its shape, but is not an index
    with pytest.raises(ValueError, match=re.escape(
            f"indices must be ints of theta's shape (1,), not "
            f"{np.array(k).dtype} of shape {np.shape(k)}")):
        adabfe_step(quadratic_objective([1.0]), np.array([1.0]), k,
                    BfeGradConfig(), None)


@pytest.mark.parametrize("k", [-CAP_EXP - 1, CAP_EXP + 1, -2 * CAP_EXP - 1,
                               2 * CAP_EXP + 1])
@pytest.mark.parametrize("zoom_in", [True, False])
def test_adabfe_rejects_an_index_beyond_the_caps(k, zoom_in):
    # the first three would read the rate table wrapped round, the last
    # past its end
    with pytest.raises(ValueError, match=re.escape(
            f"indices must be within +-{CAP_EXP}, not [{k}] in dims [1]")):
        adabfe_step(quadratic_objective([1.0, 1.0]), np.array([0.0, 0.0]),
                    np.array([0, k]), BfeGradConfig(), None,
                    zoom_in=np.array([zoom_in, zoom_in]))


class SignFlip:
    """Every trial step flips the slope: the angle is pi/2 at any rate."""

    def loss(self, theta, batch=None):
        return 0.0

    def grad(self, theta, batch=None):
        return np.where(theta == 0.0, 1.0, -1.0)


@pytest.mark.parametrize("base", [2, 3])
def test_adabfe_zoom_in_caps_at_the_lowest_rate(base):
    cfg = BfeGradConfig(eta0=1e-3, base=base)
    out = adabfe_step(SignFlip(), np.array([0.0]), np.array([0]), cfg, None)
    lo = 1e-3 * float(base) ** -CAP_EXP
    assert out.inner_loops == CAP_EXP  # one shrink per pass down to the cap
    assert out.capped
    assert out.rates_next[0] == lo
    assert out.k_next.tolist() == [-CAP_EXP]
    assert out.zoom_in_next.tolist() == [True]  # a capped dim keeps its branch
    ref = reference_adabfe_step(SignFlip(), np.array([0.0]), [0], 1e-3, cfg,
                                [True])
    assert out.theta_next[0] == ref[0][0]


@pytest.mark.parametrize("base", [2, 3])
def test_adabfe_zoom_out_caps_at_the_highest_rate(base):
    # dim 0 has no gradient, so its angle never reaches the threshold
    obj = quadratic_objective([1.0, 1.0])
    cfg = BfeGradConfig(eta0=1e-3, base=base)
    k = np.array([0, 0])
    out = adabfe_step(obj, np.array([0.0, 1.0]), k, cfg, None,
                      zoom_in=np.array([False, False]))
    assert out.inner_loops == CAP_EXP
    assert out.capped
    assert out.rates_next[0] == 1e-3 * float(base) ** CAP_EXP
    assert out.k_next[0] == CAP_EXP
    assert out.theta_next[0] == 0.0
    # the capped dim stays on zoom-out, the crossed one switches to zoom-in
    assert out.zoom_in_next.tolist() == [False, True]
    again = adabfe_step(obj, np.array([1.0, 1.0]), k, cfg, None,
                        zoom_in=np.array([False, False]))
    assert not again.capped


def test_adabfe_search_at_the_highest_rate_warns_of_no_overflow():
    # at eta0 = 1e290 the highest rate doubled is past the float range. Dim 0
    # has no gradient and starts at that rate, its cap; dim 1 crosses its
    # threshold on the 7th pass. Every rate is read from the lattice's table,
    # so no rate beyond the cap is computed and nothing overflows.
    cfg = BfeGradConfig(eta0=1e290)
    hi = 1e290 * 2.0 ** CAP_EXP
    obj = quadratic_objective([1.0, 1e-146])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = adabfe_step(obj, np.array([0.0, 1.0]), np.array([CAP_EXP, -5]),
                          cfg, None, zoom_in=np.array([False, False]))
    assert caught == []
    assert out.inner_loops == 7
    assert out.capped
    assert out.rates_next.tolist() == [hi, 1e290 * 2]
    assert out.k_next.tolist() == [CAP_EXP, 1]
    assert out.zoom_in_next.tolist() == [False, True]


class NanAfterStep:
    """Finite gradient at (1, 1); dimension 1 is NaN anywhere else."""

    def loss(self, theta, batch=None):
        return 0.0

    def grad(self, theta, batch=None):
        return np.array([1.0, 1.0 if theta[1] == 1.0 else math.nan])


@pytest.mark.parametrize("adaptive", [False, True])
def test_non_finite_gradient_names_dims_and_rates(adaptive):
    theta = np.array([1.0, 1.0])
    rates = np.array([0.25, 0.5])
    with pytest.raises(NonFiniteEvaluation) as exc:
        if adaptive:  # the same rates as lattice indices
            adabfe_step(NanAfterStep(), theta, np.array([0, 1]),
                        BfeGradConfig(eta0=0.25), None)
        else:
            grad_probe(NanAfterStep(), theta, rates, None)
    assert "in dims [1] at rates [0.5]" in str(exc.value)
