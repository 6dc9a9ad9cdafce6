import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bfeopt.core import (
    NonFiniteEvaluation,
    ThresholdPolicy,
    angular_deviation,
    eval_criterion_threshold,
    rms_grad_norm,
)
from bfeopt.problems import quadratic_objective
from gradcheck import grad_check


def test_angular_deviation_identical_gradients():
    assert angular_deviation(1.0, 1.0) == 0.0


def test_angular_deviation_unit_slope_vs_flat():
    assert angular_deviation(1.0, 0.0) == pytest.approx(math.pi / 4)


def test_angular_deviation_perpendicular_slopes():
    # denominator 1 + 2 * (-0.5) is exactly zero
    assert angular_deviation(2.0, -0.5) == math.pi / 2


def test_angular_deviation_small_change():
    expected = math.atan(0.01 / 1.99)
    assert angular_deviation(1.0, 0.99) == pytest.approx(expected, rel=1e-12)
    # cross-check via the tangent-difference identity
    assert expected == pytest.approx(abs(math.atan(1.0) - math.atan(0.99)),
                                     rel=1e-12)


def test_angular_deviation_symmetry_and_identity():
    rng = np.random.default_rng(7)
    g = rng.normal(0, 3, 2000)
    gs = rng.normal(0, 3, 2000)
    fwd = angular_deviation(g, gs)
    bwd = angular_deviation(gs, g)
    np.testing.assert_array_equal(fwd, bwd)
    assert np.all(fwd >= 0) and np.all(fwd <= math.pi / 2)
    mask = 1.0 + g * gs > 0
    ident = np.abs(np.arctan(g) - np.arctan(gs))
    np.testing.assert_allclose(fwd[mask], ident[mask], atol=1e-12)


def test_angular_deviation_vectorized_matches_scalar():
    g = np.array([1.0, 2.0, -0.3])
    gs = np.array([0.99, -0.5, 0.7])
    vec = angular_deviation(g, gs)
    for i in range(3):
        assert vec[i] == angular_deviation(g[i], gs[i])


def _angle_two_abs(g, g_star):
    """The angle with |num| / |den|: the reference for angular_deviation's
    |num / den|."""
    g = np.asarray(g, dtype=float)
    g_star = np.asarray(g_star, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.arctan(np.abs(g_star - g) / np.abs(1.0 + g_star * g))
    if out.ndim == 0:
        return float(out)
    return out


def _bits_and_warnings(f, g, g_star):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = np.asarray(f(g, g_star), dtype=float)
    return out, [(w.category, str(w.message)) for w in caught]


# a pair whose product is exactly -1: 1 + g * g_star is +0.0
_PERPENDICULAR = st.integers(-1022, 1022).map(
    lambda k: (2.0 ** k, -(2.0 ** -k)))
_ANY_PAIR = st.tuples(st.floats(), st.floats())


@given(st.lists(_ANY_PAIR | _PERPENDICULAR, min_size=1, max_size=20))
@example([(0.0, -0.0)])
@example([(-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)])
@example([(1.0, -1.0), (-1.0, 1.0), (2.0, -0.5), (-0.5, 2.0)])
@example([(1e308, 1e308), (-1e308, 1e308), (1e308, -1e308)])
@example([(5e-324, -5e-324), (2.2e-308, 1e-310), (-1e-310, 5e-324)])
@example([(1e308, 5e-324), (math.inf, 1.0), (math.inf, -math.inf)])
@example([(math.nan, 0.0), (1.0, math.nan)])
# a zero denominator in one call with a nonzero one, and with an
# overflowing product
@example([(2.0, -0.5), (1.0, 3.0)])
@example([(1e308, 1e308), (2.0, -0.5)])
def test_angle_single_abs_is_bitwise_the_two_abs_form(pairs):
    # IEEE division rounds sign-symmetrically, so |a| / |b| == |a / b|
    # bit for bit, NaN for NaN, and with the same floating-point warnings
    g, g_star = map(np.array, zip(*pairs))
    for args in ((g, g_star), (g[0], g_star[0])):
        got, got_w = _bits_and_warnings(angular_deviation, *args)
        want, want_w = _bits_and_warnings(_angle_two_abs, *args)
        same = (got.view(np.uint64) == want.view(np.uint64)) \
            | (np.isnan(got) & np.isnan(want))
        assert same.all(), (args, got, want)
        assert got_w == want_w


_F32 = np.array([0.1, -2.5, 3.0], dtype=np.float32)
# scalars, lists and arrays of other dtypes, each converted to float64
CONVERTED = [
    (1.0, 0.0), (3, -1), (0.1, [0.3, 0.7]), ([1.0, 2.0], [0.5, -0.5]),
    (np.array([1, 2, -3]), np.array([0, -1, 4])),
    (_F32, _F32[::-1].copy()), (_F32, np.array([0.3, 0.2, 0.1])),
    (np.array([0.1, 0.2]), [0.5, 0.25]),
    (np.array(0.1), np.array(0.3)), (np.float64(0.1), np.float64(0.3)),
    (np.array([0.1, 0.2], dtype=">f8"), np.array([0.5, 0.25])),
]


@pytest.mark.parametrize("g, g_star", CONVERTED,
                         ids=lambda x: type(x).__name__ + str(np.shape(x)))
def test_angular_deviation_converts_its_inputs_to_float64(g, g_star):
    want = angular_deviation(np.array(g, dtype=float),
                             np.array(g_star, dtype=float))
    got = angular_deviation(g, g_star)
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.float64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_threshold_mean_scaled():
    assert eval_criterion_threshold(0.0, 0.03125, 0.001,
                                    ThresholdPolicy.MEAN_SCALED) == \
        pytest.approx(1.5625e-5, rel=1e-12)


def test_threshold_min_scaled():
    assert eval_criterion_threshold(2.0, 4.0, 0.001,
                                    ThresholdPolicy.MIN_SCALED) == \
        pytest.approx(0.002, rel=1e-12)


def test_threshold_constant():
    assert eval_criterion_threshold(123.0, -456.0, 0.001,
                                    ThresholdPolicy.CONSTANT) == 1.0


def test_threshold_epoch_decay_monotone():
    vals = [eval_criterion_threshold(1.0, 1.0, 0.001,
                                     ThresholdPolicy.EPOCH_DECAY, epoch=e)
            for e in range(5)]
    assert vals[0] == pytest.approx(0.001)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_threshold_floor_near_zero_losses():
    assert eval_criterion_threshold(0.0, 0.0, 0.001,
                                    ThresholdPolicy.MEAN_SCALED) == 1e-12


@pytest.mark.parametrize("policy", ["min_scaled", "bogus"])
def test_threshold_rejects_a_policy_that_is_not_a_member(policy):
    # a plain value matches no member, so it must not run the mean rule
    with pytest.raises(ValueError, match=repr(policy)):
        eval_criterion_threshold(1.0, 3.0, 0.1, policy)


def test_grad_check_quadratic():
    obj = quadratic_objective([1.0])
    assert grad_check(obj, np.array([1.0]), h=1e-5) <= 1e-8


def test_grad_check_at_origin():
    obj = quadratic_objective([1.0])
    assert grad_check(obj, np.array([0.0]), h=1e-5) <= 1e-10


def test_grad_check_flags_non_finite():
    class Bad:
        def loss(self, theta, batch=None):
            return math.inf

        def grad(self, theta, batch=None):
            return np.zeros_like(theta)

    with pytest.raises(NonFiniteEvaluation):
        grad_check(Bad(), np.array([1.0]))


@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=200))
def test_rms_grad_norm_is_the_linalg_norm_float(values):
    g = np.array(values)
    # where the squares underflow, np.linalg.norm reads too low, or 0
    assume(not g.any() or g.dot(g) >= 2.0 ** -1022)
    assert rms_grad_norm(g) == float(np.linalg.norm(g) / math.sqrt(g.size))


def test_rms_grad_norm_takes_the_dot_at_the_smallest_normal():
    # the squares' dot rounds to the smallest normal float exactly, which is
    # not below the normal floats; hypot, which sums the squares more
    # exactly, gives another float
    g = np.array([float.fromhex("0x1.e57c4cbc853eap-513"),
                  float.fromhex("0x1.c2cc9a5dfd033p-512")])
    assert g.dot(g) == 2.0 ** -1022
    assert rms_grad_norm(g) == 2.0 ** -511 / math.sqrt(2)
    assert rms_grad_norm(g) != math.hypot(*g) / math.sqrt(2)


@pytest.mark.parametrize("values", [[1e200], [1e200, -1e200, 3.0],
                                    [1e300, 1e-300]])
def test_rms_grad_norm_of_a_gradient_whose_squares_overflow_is_finite(values):
    # the dot of the squares overflows, and warns, where the norm does not
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        got = rms_grad_norm(np.array(values))
    assert got == math.hypot(*values) / math.sqrt(len(values))
    assert got < math.inf


def test_rms_grad_norm_beyond_the_floats_is_inf():
    g = np.full(4, 1e308)  # ||g||_2 is 2e308, its RMS 1e308
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        assert rms_grad_norm(g) == math.inf


@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=200)
       .filter(any))
@example([1e-160])
@example([1e-162])
@example([1e-170, -3e-200, 0.0])
@example([5e-324, 1e-323])
def test_rms_grad_norm_of_a_nonzero_gradient_is_its_hypot(values):
    # squares below the normal floats would make a live gradient read 0
    want = math.hypot(*values) / math.sqrt(len(values))
    got = rms_grad_norm(np.array(values))
    assert math.isclose(got, want, rel_tol=1e-12)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(_FINITE, _FINITE, st.sampled_from(ThresholdPolicy),
       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       st.integers(0, 1000))
def test_loss_criterion_is_symmetric_in_the_two_losses(a, b, policy,
                                                       eps_ratio, epoch):
    # a loss pair's two losses swap places between the zoom-in and the
    # zoom-out probe; eps_comp and eps_val must not see the order
    def bits(x):
        return struct.pack("<d", x)

    assert bits(eval_criterion_threshold(a, b, eps_ratio, policy, epoch)) \
        == bits(eval_criterion_threshold(b, a, eps_ratio, policy, epoch))
    assert bits(abs(b - a)) == bits(abs(a - b))
