import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt.bfe_grad import (
    AdaBfeOptimizer,
    BfeGradConfig,
    BfeGradOptimizer,
    DEG,
    ThresholdMode,
    ZoomOutExit,
    adabfe_step,
    bfe_grad_step,
    grad_probe,
)
from bfeopt.bfe_loss import CAP_EXP
from bfeopt.core import (
    Branch,
    NonFiniteEvaluation,
    NonTermination,
    RateState,
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
    assert probe.eps_max == pytest.approx(math.pi / 4, rel=1e-12)


def test_probe_small_rate():
    obj = quadratic_objective([1.0])
    probe = grad_probe(obj, np.array([1.0]), 0.01, None)
    assert probe.eps_max == pytest.approx(math.atan(0.01 / 1.99), rel=1e-12)
    assert probe.eps_max < 1.0 * DEG


def test_probe_two_dims():
    obj = quadratic_objective([1.0, 100.0])
    probe = grad_probe(obj, np.array([1.0, 1.0]), 0.001, None)
    assert probe.eps_per_dim[0] == pytest.approx(math.atan(0.001 / 1.999),
                                                 rel=1e-12)
    assert probe.eps_per_dim[1] == pytest.approx(math.atan(10.0 / 9001.0),
                                                 rel=1e-12)
    assert probe.eps_max == probe.eps_per_dim[1]


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


@pytest.mark.parametrize("adaptive", [False, True])
def test_step_with_given_gradient_matches(adaptive, counting):
    obj = counting(quadratic_objective([1.0, 100.0]))
    theta = np.array([1.0, 1.0])
    cfg = BfeGradConfig(eta0=0.001, max_inner=200)
    opts = [AdaBfeOptimizer(cfg, dim=2) if adaptive else BfeGradOptimizer(cfg)
            for _ in range(2)]
    for _ in range(5):
        plain = opts[0].step(obj, theta, None)
        obj.reset()
        given = opts[1].step(obj, theta, None, g0=obj.inner.grad(theta, None))
        assert obj.grad_calls == given.inner_loops
        assert np.array_equal(given.theta_next, plain.theta_next)
        assert given.eta_next == plain.eta_next
        theta = plain.theta_next


# ---------------------------------------------------------------------------
# Global gradient-angle steps vs the oracle
# ---------------------------------------------------------------------------

def test_grad_zoom_in_trace():
    obj = quadratic_objective([1.0])
    cfg = BfeGradConfig(eta0=0.001)
    out = bfe_grad_step(obj, np.array([1.0]), RateState(eta=1.0, eta0=0.001),
                        cfg, None, zoom_in=True)
    exp_theta, exp_eta, exp_inner = oracle_grad_step(1.0, 1.0, 1.0,
                                                     1.0 * DEG, True)
    # oracle-computed: probes at 1, 0.5, ..., 0.03125 (0.909 deg < 1 deg)
    assert exp_inner == 6
    assert out.inner_loops == 6
    assert out.theta_next[0] == pytest.approx(0.96875, rel=1e-12)
    assert out.eta_next == pytest.approx(0.03125, rel=1e-12)
    assert out.theta_next[0] == pytest.approx(exp_theta, rel=1e-12)
    assert out.eta_next == pytest.approx(exp_eta, rel=1e-12)


@pytest.mark.parametrize("exit_mode", ["halve_commit_trial",
                                       "quarter_fresh_step"])
def test_grad_zoom_out_trace(exit_mode):
    obj = quadratic_objective([1.0])
    cfg = BfeGradConfig(eta0=0.001, zoom_out_exit=ZoomOutExit(exit_mode))
    out = bfe_grad_step(obj, np.array([1.0]),
                        RateState(eta=0.001, eta0=0.001), cfg, None,
                        zoom_in=False)
    exp_theta, exp_eta, exp_inner = oracle_grad_step(1.0, 1.0, 0.001,
                                                     1.0 * DEG, False,
                                                     exit_mode)
    assert out.inner_loops == exp_inner == 7  # 0.001 doubling to 0.064
    assert out.eta_next == pytest.approx(exp_eta, rel=1e-12)
    assert out.theta_next[0] == pytest.approx(exp_theta, rel=1e-12)


def test_grad_zoom_out_zero_gradient_caps():
    obj = quadratic_objective([1.0])
    cfg = BfeGradConfig(eta0=0.001, max_inner=100)
    out = bfe_grad_step(obj, np.array([0.0]),
                        RateState(eta=0.001, eta0=0.001), cfg, None,
                        zoom_in=False)
    assert out.capped
    assert out.theta_next[0] == 0.0


def test_grad_zoom_in_non_termination_reports_rates():
    class ConstantAngle:
        # gradient flips sign regardless of step size: angle never shrinks
        def loss(self, theta, batch=None):
            return float(abs(theta[0]))

        def grad(self, theta, batch=None):
            return np.array([1.0 if theta[0] >= 1.0 else -1.0])

    cfg = BfeGradConfig(eta0=1.0, max_inner=5)
    with pytest.raises(NonTermination) as exc:
        bfe_grad_step(ConstantAngle(), np.array([1.0]),
                      RateState(eta=1.0, eta0=1.0), cfg, None, zoom_in=True)
    assert len(exc.value.etas) == 5


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
    cfg = BfeGradConfig(eta0=0.001, max_inner=200)
    rate = RateState(eta=0.001, eta0=0.001,
                     per_dim=np.array([0.001, 0.001]))
    out = adabfe_step(obj, np.array([1.0, 1.0]), rate, cfg, None,
                      zoom_in=np.array([False, False]))
    # the stiff dimension exits its growth loop at a smaller rate
    assert out.rates_next[1] < out.rates_next[0]


def test_adabfe_symmetric_dims_stay_equal():
    obj = quadratic_objective([2.0, 2.0])
    cfg = BfeGradConfig(eta0=0.001, max_inner=200)
    opt = AdaBfeOptimizer(cfg, dim=2)
    theta = np.array([1.5, 1.5])
    for _ in range(20):
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        assert out.rates_next[0] == out.rates_next[1]
        assert theta[0] == theta[1]


def test_adabfe_one_joint_gradient_per_inner_pass(counting):
    obj = counting(quadratic_objective([1.0, 100.0]))
    cfg = BfeGradConfig(eta0=0.001, max_inner=200)
    rate = RateState(eta=0.001, eta0=0.001, per_dim=np.array([0.001, 0.001]))
    out = adabfe_step(obj, np.array([1.0, 1.0]), rate, cfg, None)
    # one base gradient plus one joint probe gradient per inner pass
    assert obj.grad_calls == out.inner_loops + 1
    assert obj.loss_calls == 0


@pytest.mark.parametrize("pre_halve", [False, True])
def test_adabfe_1d_matches_global_variant(pre_halve):
    obj = quadratic_objective([3.0])
    cfg = BfeGradConfig(eta0=0.001, max_inner=200, pre_halve=pre_halve)
    acfg = BfeGradConfig(eta0=0.001, max_inner=200, pre_halve=pre_halve)
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


def test_adabfe_non_termination_names_stuck_dims():
    class Stuck:
        def loss(self, theta, batch=None):
            return 0.0

        def grad(self, theta, batch=None):
            # dim 1 angle never falls below threshold
            return np.array([theta[0], 1.0 if theta[1] >= 1.0 else -1.0])

    cfg = BfeGradConfig(eta0=1.0, max_inner=5)
    rate = RateState(eta=1.0, eta0=1.0, per_dim=np.array([1.0, 1.0]))
    with pytest.raises(NonTermination) as exc:
        adabfe_step(Stuck(), np.array([0.5, 1.0]), rate, cfg, None)
    assert 1 in exc.value.stuck_dims


def test_adabfe_rates_on_lattice():
    obj = quadratic_objective([1.0, 100.0])
    cfg = BfeGradConfig(eta0=0.001, max_inner=200)
    opt = AdaBfeOptimizer(cfg, dim=2)
    theta = np.array([1.0, 1.0])
    for _ in range(50):
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        for eta in out.rates_next:
            k = math.log2(eta / cfg.eta0)
            assert abs(k - round(k)) < 1e-9


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


def reference_adabfe_step(obj, theta, rates, eta0, cfg, zoom_in):
    """Returns (theta_next, rates_next, branches_next, inner_loops, capped,
    eps_comp, eps_val); raises NonTermination naming the stuck dimensions."""
    theta = np.asarray(theta, dtype=float)
    dim = theta.size
    base = float(cfg.base)
    eta = np.array(rates, dtype=float)
    zoom_in = np.array(zoom_in, dtype=bool)
    zoom_next = zoom_in.copy()
    lo = eta0 * base ** -CAP_EXP
    hi = eta0 * base ** CAP_EXP
    g = obj.grad(theta, None)
    if cfg.threshold_mode is ThresholdMode.RELATIVE:
        thresholds = np.maximum(cfg.relative_ratio * np.abs(np.arctan(g)),
                                cfg.threshold_floor)
    else:
        thresholds = np.full(dim, cfg.angle_threshold)
    committed = theta.copy()
    active = np.ones(dim, dtype=bool)
    capped = False
    inner = 0
    last_eps = np.zeros(dim)
    while active.any():
        inner += 1
        if inner > cfg.max_inner:
            raise NonTermination("reference", stuck_dims=list(
                np.nonzero(active)[0]))
        if cfg.pre_halve:
            shrink = active & zoom_in
            eta[shrink] = eta[shrink] / base
        trial = committed.copy()
        trial[active] = theta[active] - eta[active] * g[active]
        eps = reference_angle(g, obj.grad(trial, None))
        last_eps[active] = eps[active]
        for i in np.nonzero(active)[0]:
            exceed = eps[i] >= thresholds[i]
            if zoom_in[i]:
                if exceed:
                    if not cfg.pre_halve:
                        eta[i] = eta[i] / base
                    if eta[i] <= lo * (1.0 + 1e-9):
                        eta[i] = lo
                        committed[i] = trial[i]
                        active[i] = False
                        capped = True
                else:
                    committed[i] = trial[i]
                    active[i] = False
                    zoom_next[i] = False
            else:
                if exceed:
                    committed[i] = trial[i]
                    active[i] = False
                    zoom_next[i] = True
                else:
                    eta[i] = eta[i] * base
                    if eta[i] >= hi * (1.0 - 1e-9):
                        eta[i] = hi
                        committed[i] = trial[i]
                        active[i] = False
                        capped = True
    return (committed, eta, zoom_next, inner, capped, float(last_eps.max()),
            float(thresholds.max()))


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
        pre_halve=draw(st.booleans()),
        # 2 * CAP_EXP + 1 passes take any rate from one cap to the other
        max_inner=draw(st.one_of(st.integers(1, 2 * CAP_EXP),
                                 st.just(2 * CAP_EXP + 1))))
    rates = [eta0 * float(base) ** k for k in ks]
    return curvatures, theta, rates, zoom_in, cfg


@settings(max_examples=300, deadline=None)
@given(adabfe_cases())
def test_adabfe_matches_per_dimension_reference(case):
    curvatures, theta, rates, zoom_in, cfg = case
    obj = quadratic_objective(curvatures)
    theta = np.array(theta)
    try:
        ref = reference_adabfe_step(obj, theta, rates, cfg.eta0, cfg, zoom_in)
    except NonTermination as exc:
        with pytest.raises(NonTermination) as got:
            adabfe_step(obj, theta, RateState(eta0=cfg.eta0, per_dim=rates),
                        cfg, None, zoom_in=zoom_in)
        assert got.value.stuck_dims == exc.stuck_dims
        return
    out = adabfe_step(obj, theta, RateState(eta0=cfg.eta0, per_dim=rates),
                      cfg, None, zoom_in=zoom_in)
    theta_next, rates_next, branches_next, inner, capped, eps_comp, \
        eps_val = ref
    assert out.theta_next.tobytes() == theta_next.tobytes()
    assert out.rates_next.tobytes() == rates_next.tobytes()
    assert np.array_equal(out.branches_next, branches_next)
    assert out.inner_loops == inner
    assert out.capped is capped
    assert out.eps_comp == eps_comp
    assert out.eps_val == eps_val


class SignFlip:
    """Every trial step flips the slope: the angle is pi/2 at any rate."""

    def loss(self, theta, batch=None):
        return 0.0

    def grad(self, theta, batch=None):
        return np.where(theta == 0.0, 1.0, -1.0)


@pytest.mark.parametrize("base", [2, 3])
def test_adabfe_zoom_in_caps_at_the_lowest_rate(base):
    cfg = BfeGradConfig(eta0=1e-3, base=base)
    rate = RateState(eta0=1e-3, per_dim=np.array([1e-3]))
    out = adabfe_step(SignFlip(), np.array([0.0]), rate, cfg, None)
    lo = 1e-3 * float(base) ** -CAP_EXP
    assert out.inner_loops == CAP_EXP  # one shrink per pass down to the cap
    assert out.capped
    assert out.rates_next[0] == lo
    assert out.branches_next.tolist() == [True]  # a capped dim keeps its branch
    ref = reference_adabfe_step(SignFlip(), np.array([0.0]), [1e-3], 1e-3,
                                cfg, [True])
    assert out.theta_next[0] == ref[0][0]


@pytest.mark.parametrize("base", [2, 3])
def test_adabfe_zoom_out_caps_at_the_highest_rate(base):
    # dim 0 has no gradient, so its angle never reaches the threshold
    obj = quadratic_objective([1.0, 1.0])
    cfg = BfeGradConfig(eta0=1e-3, base=base)
    rate = RateState(eta0=1e-3, per_dim=np.array([1e-3, 1e-3]))
    out = adabfe_step(obj, np.array([0.0, 1.0]), rate, cfg, None,
                      zoom_in=np.array([False, False]))
    assert out.inner_loops == CAP_EXP
    assert out.capped
    assert out.rates_next[0] == 1e-3 * float(base) ** CAP_EXP
    assert out.theta_next[0] == 0.0
    # the capped dim stays on zoom-out, the crossed one switches to zoom-in
    assert out.branches_next.tolist() == [False, True]
    again = adabfe_step(obj, np.array([1.0, 1.0]), rate, cfg, None,
                        zoom_in=np.array([False, False]))
    assert not again.capped


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
        if adaptive:
            adabfe_step(NanAfterStep(), theta,
                        RateState(eta0=0.25, per_dim=rates),
                        BfeGradConfig(eta0=0.25), None)
        else:
            grad_probe(NanAfterStep(), theta, rates, None)
    assert "in dims [1] at rates [0.5]" in str(exc.value)
