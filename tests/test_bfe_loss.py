import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt.bfe_loss import (
    BfeLossConfig,
    BfeLossOptimizer,
    CommitPolicy,
    ResetPolicy,
    bfe_step,
    loss_pair_zoom_in,
    loss_pair_zoom_out,
)
from bfeopt.core import (
    NonFiniteEvaluation,
)
from bfeopt.problems import (
    LinRegSpec,
    gen_linear_data,
    linreg_objective,
    quadratic_objective,
)

CAP = 60


# ---------------------------------------------------------------------------
# Independent oracle: scalar recursion on f = h/2 * theta^2 using the
# factored closed forms for the probe losses. Never touches package step code.
# ---------------------------------------------------------------------------

def oracle_pair_zoom_in(h, theta, eta):
    loss1 = 0.5 * h * (theta * (1.0 - eta * h)) ** 2
    half = theta * (1.0 - eta * h / 2.0)
    two = half * (1.0 - eta * h / 2.0)
    loss2 = 0.5 * h * two * two
    full = theta * (1.0 - eta * h)
    return loss1, loss2, half, full


def oracle_pair_zoom_out(h, theta, eta):
    half = theta * (1.0 - eta * h)
    two = half * (1.0 - eta * h)
    full = theta * (1.0 - 2.0 * eta * h)
    loss1 = 0.5 * h * two * two
    loss2 = 0.5 * h * full * full
    return loss1, loss2, half, full


def oracle_step(h, theta, eta, eta0, ec, ev, eps_ratio, commit):
    lo, hi = eta0 * 2.0 ** -CAP, eta0 * 2.0 ** CAP
    inner = 0
    capped = False
    if ec >= ev:
        while True:
            inner += 1
            l1, l2, half, full = oracle_pair_zoom_in(h, theta, eta)
            ec = abs(l2 - l1)
            ev = max(0.5 * (abs(l1) + abs(l2)) * eps_ratio, 1e-12)
            eta = eta / 2.0
            if ec < ev:
                break
            if eta <= lo * (1.0 + 1e-9):
                eta, capped = lo, True
                break
        if not capped and commit == "full_step":
            theta, eta = full, eta * 2.0
        else:
            theta = half
    else:
        while True:
            inner += 1
            l1, l2, half, full = oracle_pair_zoom_out(h, theta, eta)
            ec = abs(l2 - l1)
            ev = max(0.5 * (abs(l1) + abs(l2)) * eps_ratio, 1e-12)
            eta = eta * 2.0
            if ec >= ev:
                break
            if eta >= hi * (1.0 - 1e-9):
                eta, capped = hi, True
                break
        if not capped:
            eta = eta / 2.0
        theta = half
    return theta, eta, ec, ev, inner


def oracle_run(h, theta0, eta0, steps, commit="half_step", eps_ratio=0.001):
    theta, eta = theta0, eta0
    ec, ev = math.inf, 0.001
    out = []
    for _ in range(steps):
        theta, eta, ec, ev, inner = oracle_step(h, theta, eta, eta0, ec, ev,
                                                eps_ratio, commit)
        out.append((theta, eta, inner))
    return out


# ---------------------------------------------------------------------------
# Probe pairs
# ---------------------------------------------------------------------------

def test_zoom_in_pair_unit_rate():
    obj = quadratic_objective([1.0])
    pair = loss_pair_zoom_in(obj, np.array([1.0]), 1.0, None)
    assert pair.loss_full == 0.0
    assert pair.trial_half[0] == 0.5
    assert pair.loss_two_step == obj.loss(np.array([0.25]), None)
    assert pair.loss_two_step == pytest.approx(0.03125, rel=1e-12)


def test_zoom_in_pair_small_rate():
    obj = quadratic_objective([1.0])
    pair = loss_pair_zoom_in(obj, np.array([1.0]), 0.1, None)
    assert pair.loss_full == pytest.approx(0.405, rel=1e-12)
    assert pair.loss_two_step == pytest.approx(0.407253125, rel=1e-12)
    assert abs(pair.loss_two_step - pair.loss_full) == pytest.approx(
        0.002253125, rel=1e-10)


def test_zoom_in_pair_zero_rate_limit():
    obj = quadratic_objective([1.0])
    pair = loss_pair_zoom_in(obj, np.array([1.0]), 1e-300, None)
    assert abs(pair.loss_two_step - pair.loss_full) < 1e-200


def test_zoom_out_pair():
    obj = quadratic_objective([1.0])
    pair = loss_pair_zoom_out(obj, np.array([1.0]), 0.025, None)
    assert pair.loss_two_step == pytest.approx(0.5 * 0.975 ** 4, rel=1e-12)
    assert pair.loss_full == pytest.approx(0.45125, rel=1e-12)
    assert abs(pair.loss_full - pair.loss_two_step) == pytest.approx(
        5.9394531e-4, rel=1e-6)


def test_zoom_out_pair_criterion_passes_at_small_rate():
    obj = quadratic_objective([1.0])
    pair = loss_pair_zoom_out(obj, np.array([1.0]), 0.00625, None)
    ec = abs(pair.loss_full - pair.loss_two_step)
    ev = 0.5 * (abs(pair.loss_two_step) + abs(pair.loss_full)) * 0.001
    assert ec == pytest.approx(3.86e-5, rel=1e-2)
    assert ev == pytest.approx(4.876e-4, rel=1e-2)
    assert ec < ev


def test_pair_evaluation_budget(counting):
    obj = counting(quadratic_objective([1.0]))
    loss_pair_zoom_in(obj, np.array([1.0]), 0.1, None)
    assert (obj.grad_calls, obj.loss_calls) == (2, 2)
    obj.reset()
    loss_pair_zoom_out(obj, np.array([1.0]), 0.1, None)
    assert (obj.grad_calls, obj.loss_calls) == (2, 2)


def test_pair_raises_on_non_finite():
    class Diverging:
        def loss(self, theta, batch=None):
            return math.inf if abs(theta[0]) > 10 else float(theta[0] ** 2)

        def grad(self, theta, batch=None):
            return 1e6 * theta

    with pytest.raises(NonFiniteEvaluation) as exc:
        loss_pair_zoom_in(Diverging(), np.array([1.0]), 1.0, None)
    assert exc.value.eta == 1.0


# ---------------------------------------------------------------------------
# Single steps, hand-traced
# ---------------------------------------------------------------------------

def _step(theta, eta, zoom_in=True, **cfg_kw):
    """A step from the rate ``eta``: index 0 of the lattice at ``eta``."""
    obj = quadratic_objective([1.0])
    cfg = BfeLossConfig(eta0=eta, **cfg_kw)
    return bfe_step(obj, np.array([theta]), 0, cfg, None, zoom_in)


def test_zoom_in_branch_trace():
    out = _step(1.0, 0.1)
    assert out.branch == "zoom_in"
    assert out.inner_loops == 3
    assert out.eta_next == pytest.approx(0.0125, rel=1e-12)
    assert out.k_next == -3
    assert out.theta_next[0] == pytest.approx(0.9875, rel=1e-12)
    assert out.eps_comp < out.eps_val  # zoom-in exit postcondition


def test_zoom_in_branch_full_step_commit():
    out = _step(1.0, 0.1, commit_policy=CommitPolicy.FULL_STEP)
    assert out.inner_loops == 3
    assert out.eta_next == pytest.approx(0.025, rel=1e-12)
    assert out.k_next == -2
    assert out.theta_next[0] == pytest.approx(0.975, rel=1e-12)


def test_zoom_out_branch_trace():
    out = _step(1.0, 0.00625, zoom_in=False)
    assert out.branch == "zoom_out"
    assert out.inner_loops == 3
    assert out.eta_next == pytest.approx(0.025, rel=1e-12)
    assert out.k_next == 2
    assert out.theta_next[0] == pytest.approx(0.975, rel=1e-12)
    assert out.eps_comp >= out.eps_val  # zoom-out exit postcondition


def test_zoom_out_at_optimum_hits_rate_cap():
    out = _step(0.0, 0.001, zoom_in=False)
    assert out.capped
    assert out.theta_next[0] == 0.0
    assert (out.k_next, out.eta_next) == (CAP, 0.001 * 2.0 ** CAP)


def test_step_budget_is_one_base_grad_plus_one_grad_two_losses_per_inner_loop(
        counting):
    obj = counting(quadratic_objective([1.0]))
    cfg = BfeLossConfig(eta0=0.1)
    out = bfe_step(obj, np.array([1.0]), 0, cfg, None)
    # the gradient at theta is computed once and shared by every probe
    assert obj.grad_calls == 1 + out.inner_loops
    assert obj.loss_calls == 2 * out.inner_loops


# ---------------------------------------------------------------------------
# Zoom-in-only variant
# ---------------------------------------------------------------------------

def _zoom_in_only(theta, prev_eta, reset_policy):
    """A step after the rate ``prev_eta``: index 0 of the lattice there."""
    obj = quadratic_objective([1.0])
    cfg = BfeLossConfig(eta0=prev_eta, zoom_in_only=True,
                        reset_policy=reset_policy)
    return BfeLossOptimizer(cfg).step(obj, np.array([theta]), None)


def test_zoom_in_only_double_reset():
    out = _zoom_in_only(1.0, 0.0125, ResetPolicy.DOUBLE_PREV_ETA)
    assert out.inner_loops == 1
    assert out.theta_next[0] == pytest.approx(0.9875, rel=1e-12)
    assert out.eta_next == pytest.approx(0.0125, rel=1e-12)
    assert out.k_next == 0


def test_zoom_in_only_prev_reset_mandatory_halving():
    out = _zoom_in_only(1.0, 0.0125, ResetPolicy.PREV_ETA)
    assert out.inner_loops == 1
    assert out.eta_next == pytest.approx(0.0125 / 2, rel=1e-12)
    assert out.k_next == -1


def test_zoom_in_only_zero_gradient():
    out = _zoom_in_only(0.0, 0.0125, ResetPolicy.DOUBLE_PREV_ETA)
    assert out.inner_loops == 1
    assert out.theta_next[0] == 0.0


def test_zoom_in_only_steps_build_no_config(monkeypatch):
    obj = quadratic_objective([1.0, 10.0])
    runs = {}
    for commit in CommitPolicy:
        opt = BfeLossOptimizer(BfeLossConfig(eta0=0.001, zoom_in_only=True,
                                             commit_policy=commit))
        built = []
        monkeypatch.setattr(BfeLossConfig, "__post_init__",
                            lambda self: built.append(self))
        theta = np.array([1.0, 1.0])
        for _ in range(5):
            theta = opt.step(obj, theta, None).theta_next
        monkeypatch.undo()
        assert built == []
        runs[commit] = theta.tobytes()
    # the variant commits the half-rate point under either policy
    assert runs[CommitPolicy.FULL_STEP] == runs[CommitPolicy.HALF_STEP]


def _outcome_bits(out):
    """Every field of a StepOutcome, with floats and arrays as their bytes."""
    values = (getattr(out, f.name) for f in dataclasses.fields(out))
    return tuple(np.asarray(v).tobytes()
                 if isinstance(v, (float, np.ndarray)) else v for v in values)


_LINREG = linreg_objective(gen_linear_data(LinRegSpec(n=40, seed=3)))
_LINREG_BATCH = _LINREG.load_batches(np.arange(8, 24), 16)[0]


@settings(max_examples=150, deadline=None)
@given(k=st.integers(-CAP, CAP), zoom_in=st.booleans(),
       reset=st.sampled_from(ResetPolicy),
       commit=st.sampled_from(CommitPolicy),
       problem=st.sampled_from(["quadratic", "linreg"]),
       eta0=st.sampled_from([1e-3, 0.1, 1.0]), epoch=st.integers(0, 5))
def test_zoom_in_only_search_is_a_zoom_in_bfe_step_from_the_reset_index(
        k, zoom_in, reset, commit, problem, eta0, epoch):
    if problem == "quadratic":
        obj, theta, batch = (quadratic_objective([0.5, 4.0]),
                             np.array([1.0, -2.0]), None)
    else:
        obj, theta, batch = _LINREG, np.array([1.0, 2.0]), _LINREG_BATCH
    cfg = BfeLossConfig(eta0=eta0, zoom_in_only=True, reset_policy=reset,
                        commit_policy=commit)
    opt = BfeLossOptimizer(cfg)
    opt.k, opt.zoom_in = k, zoom_in  # a carried zoom-out branch is ignored
    start = min(k + 1, CAP) if reset is ResetPolicy.DOUBLE_PREV_ETA else k
    want = bfe_step(obj, theta, start, cfg, batch, True, epoch)
    got = opt.step(obj, theta, batch, epoch)
    assert _outcome_bits(got) == _outcome_bits(want)
    assert (opt.k, opt.zoom_in) == (want.k_next, want.zoom_in_next)


# ---------------------------------------------------------------------------
# Multi-step runs vs the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("commit", ["half_step", "full_step"])
@pytest.mark.parametrize("h", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("eta0", [1e-4, 1e-2, 1.0])
def test_oracle_equivalence_sample(h, eta0, commit):
    theta0 = 1.0
    obj = quadratic_objective([h])
    cfg = BfeLossConfig(eta0=eta0, commit_policy=CommitPolicy(commit))
    opt = BfeLossOptimizer(cfg)
    theta = np.array([theta0])
    expected = oracle_run(h, theta0, eta0, steps=15, commit=commit)
    for exp_theta, exp_eta, exp_inner in expected:
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        assert out.inner_loops == exp_inner
        assert out.eta_next == pytest.approx(exp_eta, rel=1e-12)
        assert theta[0] == pytest.approx(exp_theta, rel=1e-12, abs=1e-300)


def test_committed_rates_stay_on_lattice():
    obj = quadratic_objective([1.0])
    cfg = BfeLossConfig(eta0=0.001)
    opt = BfeLossOptimizer(cfg)
    theta = np.array([1.0])
    for _ in range(40):
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        assert -CAP <= out.k_next <= CAP
        assert out.eta_next == cfg.rates[out.k_next]


def test_branch_alternates_between_steps():
    obj = quadratic_objective([1.0])
    opt = BfeLossOptimizer(BfeLossConfig(eta0=0.001))
    theta = np.array([1.0])
    branches = []
    for _ in range(6):
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        branches.append(out.branch)
    for a, b in zip(branches, branches[1:]):
        assert a is not b
