import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bfeopt.baselines import (
    AdamOptimizer,
    BaselineConfig,
    NesterovOptimizer,
    SgdOptimizer,
    _finite_grad,
    adam_step,
    nesterov_step,
    sgd_step,
)
from bfeopt.core import NonFiniteEvaluation
from bfeopt.problems import quadratic_objective


RATE_01 = BaselineConfig(alpha=0.1)


def test_sgd_basic():
    obj = quadratic_objective([1.0])
    theta = sgd_step(obj, np.array([1.0]), RATE_01, None)
    assert theta[0] == pytest.approx(0.9, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.0, -0.1, float("nan")])
def test_a_rate_that_is_not_positive_is_rejected(alpha):
    with pytest.raises(ValueError, match="^alpha must be positive$"):
        BaselineConfig(alpha=alpha)


def test_sgd_fixed_point():
    obj = quadratic_objective([1.0])
    theta = sgd_step(obj, np.array([0.0]), RATE_01, None)
    assert theta[0] == 0.0


def test_nesterov_hand_recursion():
    obj = quadratic_objective([1.0])
    cfg = BaselineConfig(alpha=0.1, beta=0.9)
    theta, v = nesterov_step(obj, np.array([1.0]), np.zeros(1), cfg, None)
    assert v[0] == pytest.approx(1.0, rel=1e-15)
    assert theta[0] == pytest.approx(0.9, rel=1e-15)
    theta, v = nesterov_step(obj, theta, v, cfg, None)
    assert v[0] == pytest.approx(1.71, rel=1e-14)
    assert theta[0] == pytest.approx(0.729, rel=1e-14)


def test_nesterov_zero_beta_equals_sgd_bitwise():
    obj = quadratic_objective([2.5])
    cfg = BaselineConfig(alpha=0.07, beta=0.0)
    v = np.zeros(1)
    tn = np.array([1.3])
    ts = np.array([1.3])
    for _ in range(50):
        tn, v = nesterov_step(obj, tn, v, cfg, None)
        ts = sgd_step(obj, ts, cfg, None)
        assert tn[0] == ts[0]  # exact, not approximate


def test_nesterov_zero_gradient_keeps_params():
    class Flat:
        def loss(self, theta, batch=None):
            return 0.0

        def grad(self, theta, batch=None):
            return np.zeros_like(theta)

    cfg, v = BaselineConfig(alpha=0.1, beta=0.9), np.zeros(1)
    theta = np.array([2.0])
    for _ in range(5):
        theta, v = nesterov_step(Flat(), theta, v, cfg, None)
    assert theta[0] == 2.0


def test_adam_first_step_magnitude():
    class UnitGrad:
        def loss(self, theta, batch=None):
            return float(theta[0])

        def grad(self, theta, batch=None):
            return np.ones_like(theta)

    theta, m, v = adam_step(UnitGrad(), np.array([0.0]), np.zeros(1),
                            np.zeros(1), 1, BaselineConfig(alpha=0.001), None)
    assert theta[0] == pytest.approx(-0.001, rel=1e-7)
    assert m[0] == pytest.approx(0.1) and v[0] == pytest.approx(0.001)


def test_adam_zero_gradient_fixed_point():
    class Flat:
        def loss(self, theta, batch=None):
            return 0.0

        def grad(self, theta, batch=None):
            return np.zeros_like(theta)

    theta, _, _ = adam_step(Flat(), np.array([1.0]), np.zeros(1),
                            np.zeros(1), 1, BaselineConfig(alpha=0.001), None)
    assert theta[0] == 1.0


def test_adam_constant_gradient_step_approaches_alpha():
    class ConstGrad:
        def loss(self, theta, batch=None):
            return float(3.0 * theta[0])

        def grad(self, theta, batch=None):
            return np.full_like(theta, 3.0)

    alpha = 0.01
    opt = AdamOptimizer(BaselineConfig(alpha=alpha), 1)
    theta = np.array([0.0])
    for _ in range(1000):
        prev = theta[0]
        theta = opt.step(ConstGrad(), theta, None).theta_next
    assert abs(prev - theta[0]) == pytest.approx(alpha, rel=1e-3)


def test_adam_step_magnitude_sanity_bound():
    obj = quadratic_objective([4.0])
    rng = np.random.default_rng(11)
    alpha = 0.05
    opt = AdamOptimizer(BaselineConfig(alpha=alpha), 1)
    theta = np.array([rng.normal(0, 5)])
    for _ in range(300):
        prev = theta.copy()
        theta = opt.step(obj, theta, None).theta_next
        assert np.all(np.abs(theta - prev) <= alpha * 10)


def test_baselines_one_gradient_per_step(counting):
    obj = counting(quadratic_objective([1.0]))
    sgd_step(obj, np.array([1.0]), RATE_01, None)
    assert obj.grad_calls == 1
    obj.reset()
    nesterov_step(obj, np.array([1.0]), np.zeros(1), RATE_01, None)
    assert obj.grad_calls == 1
    obj.reset()
    adam_step(obj, np.array([1.0]), np.zeros(1), np.zeros(1), 1,
              BaselineConfig(), None)
    assert obj.grad_calls == 1


class NonFiniteGradient:
    """A loss of 0 and a gradient of ``value`` everywhere."""

    def __init__(self, value):
        self.value = value

    def loss(self, theta, batch=None):
        return 0.0

    def grad(self, theta, batch=None):
        return np.full(np.shape(theta), self.value)


def test_non_finite_gradient_is_rejected():
    theta = np.array([1.0])
    for value in (np.nan, np.inf, -np.inf):
        obj = NonFiniteGradient(value)
        with pytest.raises(NonFiniteEvaluation):
            sgd_step(obj, theta, RATE_01, None)
        with pytest.raises(NonFiniteEvaluation):
            nesterov_step(obj, theta, np.zeros(1), BaselineConfig(), None)
        with pytest.raises(NonFiniteEvaluation):
            adam_step(obj, theta, np.zeros(1), np.zeros(1), 1,
                      BaselineConfig(), None)


@pytest.mark.parametrize("opt", [SgdOptimizer(RATE_01),
                                 NesterovOptimizer(RATE_01, 1),
                                 AdamOptimizer(RATE_01, 1)])
def test_baseline_step_outcome(opt):
    obj = quadratic_objective([1.0])
    out = opt.step(obj, np.array([1.0]), None)
    assert out.eta_next == 0.1
    assert out.inner_loops == 1
    assert out.branch is None
    assert out.theta_next[0] < 1.0


class FixedGradient:
    def __init__(self, g):
        self.g = g

    def loss(self, theta, batch=None):
        return 0.0

    def grad(self, theta, batch=None):
        return self.g


_EDGE = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308])


@given(st.lists(st.one_of(st.floats(), _EDGE), min_size=1, max_size=200))
def test_finite_check_is_isfinite_all_without_warnings(values):
    g = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isfinite(g).all():
            assert _finite_grad(FixedGradient(g), g, None) is g
        else:
            with pytest.raises(NonFiniteEvaluation):
                _finite_grad(FixedGradient(g), g, None)

