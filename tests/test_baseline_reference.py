"""The three baselines, as ``build_optimizer`` makes them from a run config,
against plain-numpy textbook recursions, bit for bit, on a diagonal
quadratic whose gradient is ``h * theta``."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt.harness import RunConfig, build_optimizer, build_problem

STEPS = 30


def sgd_reference(h, theta, alpha, beta):
    for _ in range(STEPS):
        theta = theta - alpha * (h * theta)
        yield theta


def nesterov_reference(h, theta, alpha, beta):
    v = np.zeros_like(theta)
    for _ in range(STEPS):
        look_ahead = theta - alpha * beta * v
        v = beta * v + h * look_ahead
        theta = theta - alpha * v
        yield theta


def adam_reference(h, theta, alpha, beta):
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, STEPS + 1):
        g = h * theta
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        theta = theta - alpha * m_hat / (np.sqrt(v_hat) + 1e-8)
        yield theta


REFERENCES = {"sgd": sgd_reference, "nesterov": nesterov_reference,
              "adam": adam_reference}


@settings(max_examples=150, deadline=None)
@given(optimizer=st.sampled_from(sorted(REFERENCES)),
       dims=st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
           st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))),
       alpha=st.floats(1e-6, 1.0),
       beta=st.floats(0.0, 0.999))
def test_a_baseline_is_its_textbook_recursion_bitwise(optimizer, dims, alpha,
                                                      beta):
    curvatures, theta0 = dims
    cfg = RunConfig(optimizer=optimizer, problem="quadratic",
                    curvatures=tuple(curvatures), theta0=tuple(theta0),
                    alpha=alpha, beta=beta)
    obj, theta, _ = build_problem(cfg)
    opt = build_optimizer(cfg, theta.size)
    expected = REFERENCES[optimizer](np.array(curvatures), theta.copy(),
                                     alpha, beta)
    for want in expected:
        out = opt.step(obj, theta, None)
        theta = out.theta_next
        assert theta.tobytes() == want.tobytes()
        assert out.eta_next == alpha and out.inner_loops == 1
