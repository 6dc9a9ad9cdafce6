import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfeopt import harness, problems
from bfeopt.problems import (
    BatchStream,
    Dataset,
    LinRegSpec,
    gen_linear_data,
    linreg_objective,
    normalize,
    quadratic_objective,
)

from gradcheck import grad_check


def test_noise_free_line():
    # the targets are the line bit for bit, and the features the same draws
    # as with noise
    for spec in (LinRegSpec(noise_std=0.0, n=50, seed=1),
                 *(LinRegSpec(w0=-2.5, b0=0.75, noise_std=0.0, n=n, seed=n)
                   for n in (1, 7, 10000))):
        data = gen_linear_data(spec)
        assert data.y.tobytes() == (spec.w0 * data.x + spec.b0).tobytes()
        noisy = gen_linear_data(LinRegSpec(n=spec.n, seed=spec.seed))
        assert data.x.tobytes() == noisy.x.tobytes()


@pytest.mark.parametrize("noise_std", [float("nan"), float("inf"), -1.0])
def test_spec_rejects_a_noise_level_that_is_not_finite_and_nonnegative(
        noise_std):
    with pytest.raises(ValueError, match="noise_std"):
        LinRegSpec(noise_std=noise_std)


def test_generation_is_deterministic():
    a = gen_linear_data(LinRegSpec(n=100, seed=3))
    b = gen_linear_data(LinRegSpec(n=100, seed=3))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)


def test_true_params_zero_loss_on_noise_free_data():
    data = gen_linear_data(LinRegSpec(noise_std=0.0, n=200, seed=2))
    obj = linreg_objective(data)
    theta = np.array([5.0, 9.0])
    assert obj.loss(theta) <= 1e-12
    np.testing.assert_allclose(obj.grad(theta), [0.0, 0.0], atol=1e-10)


def test_single_point_hand_arithmetic():
    data = Dataset(x=np.array([1.0]), y=np.array([14.0]))
    obj = linreg_objective(data)
    theta = np.array([6.0, 9.0])
    assert obj.loss(theta) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(obj.grad(theta), [2.0, 2.0], rtol=1e-15)


def oracle(w, b, x, y):
    """Direct loss and gradient of the mean squared error over the rows."""
    r = w * x + b - y
    return np.mean(r * r), np.array([2.0 * np.mean(x * r), 2.0 * np.mean(r)])


def test_loss_hand_value():
    obj = linreg_objective(Dataset(x=np.array([1.0, 2.0]),
                                   y=np.array([3.0, 5.0])))
    # residuals at w=1, b=0 are -2 and -3, mean square 6.5
    for batch in (None, obj.load_batches([np.array([0, 1])])[0]):
        assert obj.loss(np.array([1.0, 0.0]), batch) == pytest.approx(
            6.5, rel=1e-15)


def test_grad_hand_value():
    obj = linreg_objective(Dataset(x=np.array([1.0]), y=np.array([14.0])))
    theta = np.array([6.0, 9.0])
    for batch in (None, obj.load_batches([np.array([0])])[0]):
        assert obj.loss(theta, batch) == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_allclose(obj.grad(theta, batch), [2.0, 2.0],
                                   rtol=1e-15)


def test_closed_form_matches_direct_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 17, 1000):
        x = rng.uniform(0, 10, n)
        y = 5.0 * x + 9.0 + rng.normal(0, 1, n)
        obj = linreg_objective(Dataset(x=x, y=y))
        rows = rng.integers(0, n, size=max(1, n // 2))
        handle = obj.load_batches([rows])[0]
        for _ in range(10):
            w, b = rng.normal(0, 5, 2)
            for batch, xs, ys in ((None, x, y), (handle, x[rows], y[rows])):
                want_loss, want_grad = oracle(w, b, xs, ys)
                theta = np.array([w, b])
                assert obj.loss(theta, batch) == pytest.approx(want_loss,
                                                                rel=1e-12)
                for got, want in zip(obj.grad(theta, batch), want_grad):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_loss_and_grad_agree_in_either_call_order():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 10, 100)
    data = Dataset(x=x, y=5.0 * x + 9.0)
    theta = np.array([2.0, 1.0])
    batch = np.arange(0, 100, 3)
    first = linreg_objective(data)
    a = first.load_batches([batch])[0]
    loss, grad = first.loss(theta, a), first.grad(theta, a)
    second = linreg_objective(data)
    b = second.load_batches([batch])[0]
    assert second.grad(theta, b).tolist() == grad.tolist()
    assert second.loss(theta, b) == loss
    want_loss, want_grad = oracle(2.0, 1.0, x[batch], data.y[batch])
    assert loss == pytest.approx(want_loss, rel=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12)


def test_gradient_at_least_squares_solution_is_exact_to_rounding():
    # near the optimum the gradient is a difference of large terms; it must
    # stay within one rounding of the residual scale, as the direct sum does
    for seed in range(10):
        data = gen_linear_data(LinRegSpec(n=256, seed=seed))
        a = np.column_stack([data.x, np.ones_like(data.x)])
        w, b = np.linalg.lstsq(a, data.y, rcond=None)[0]
        r = [Fraction(w) * Fraction(x) + Fraction(b) - Fraction(y)
             for x, y in zip(data.x, data.y)]
        exact = [2 * sum(Fraction(x) * ri for x, ri in zip(data.x, r)) / 256,
                 2 * sum(r) / 256]
        got = linreg_objective(data).grad(np.array([w, b]))
        s = abs(w) * np.max(data.x) + abs(b) + np.max(np.abs(data.y))
        for g, e in zip(got, exact):
            assert abs(float(Fraction(g) - e)) <= np.finfo(float).eps * s


def test_badly_centred_features_keep_precision():
    x = 1e8 + np.arange(8.0)
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    obj = linreg_objective(Dataset(x=x, y=y))
    for theta in ([0.0, 0.0], [0.0, 0.5], [1e-9, 0.4]):
        want_loss, want_grad = oracle(*theta, x, y)
        assert obj.loss(np.array(theta)) == pytest.approx(want_loss,
                                                          rel=1e-12)
        np.testing.assert_allclose(obj.grad(np.array(theta)), want_grad,
                                   rtol=1e-12)


# float32-representable values keep every square and product clear of the
# subnormal range, where no method keeps its relative precision
_x32 = st.floats(-10, 10, width=32)
_y32 = st.floats(-100, 100, width=32)
_param = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def regression_calls(draw):
    n = draw(st.integers(1, 40))
    x = np.array(draw(st.lists(_x32, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(_y32, min_size=n, max_size=n)))
    batch = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=n)))
    return x, y, batch, draw(_param), draw(_param)


@settings(max_examples=300, deadline=None)
@given(regression_calls())
# a subnormal w: 1e-12 * s underflows to 0, a tolerance no rounding meets
@example((np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([0, 1]),
          2.2250738585e-313, 0.0))
def test_closed_form_matches_oracle_on_random_data(case):
    x, y, batch, w, b = case
    obj = linreg_objective(Dataset(x=x, y=y))
    theta = np.array([w, b])
    xs, ys = x[batch], y[batch]
    want_loss, want_grad = oracle(w, b, xs, ys)
    handle = obj.load_batches([batch])[0]
    loss = obj.loss(theta, handle)
    assert loss >= 0.0
    # The closed form may cancel terms of size Vyy + m**2 + w**2 * Vxx. Both
    # it and the oracle also round each residual by about eps times
    # s = |w| max|x| + |b| + max|y|; e allows thousands of times that. Below
    # the smallest normal float, s counts as that float: subnormals round by
    # a fixed step, and 1e-12 * s would underflow to a tolerance of 0.
    m = w * np.mean(xs) + b - np.mean(ys)
    spread = np.var(ys) + m * m + w * w * np.var(xs)
    s = max(abs(w) * np.max(np.abs(xs)) + abs(b) + np.max(np.abs(ys)),
            np.finfo(float).tiny)
    e = 1e-12 * s
    tol = 1e-12 * spread + e * (2.0 * np.sqrt(want_loss) + e)
    assert abs(loss - want_loss) <= tol
    grad_tol = 10.0 * e * np.array([np.max(np.abs(xs)), 1.0])
    assert np.all(np.abs(obj.grad(theta, handle) - want_grad) <= grad_tol)


def test_a_run_keeps_each_batch_apart():
    data = gen_linear_data(LinRegSpec(n=200, seed=11))
    obj = linreg_objective(data)
    theta = np.array([3.0, 4.0])
    a, b = np.arange(0, 100), np.arange(100, 200)
    handles = obj.load_batches([a, b])
    loss_a, loss_b = (obj.loss(theta, h) for h in handles)
    assert loss_a != loss_b
    for rows, got in ((a, loss_a), (b, loss_b)):
        want, _ = oracle(3.0, 4.0, data.x[rows], data.y[rows])
        assert got == pytest.approx(want, rel=1e-12)


def test_full_dataset_moments_survive_mini_batch_calls():
    data = gen_linear_data(LinRegSpec(n=300, seed=13))
    obj = linreg_objective(data)
    theta = np.array([3.0, 4.0])
    full = obj.loss(theta, None)
    a, b = obj.load_batches([np.arange(20), np.arange(20, 30)])
    obj.grad(theta, a)
    obj.loss(theta, b)
    assert obj.loss(theta, None) == full
    want, _ = oracle(3.0, 4.0, data.x, data.y)
    assert full == pytest.approx(want, rel=1e-12)


def test_batch_moments_computed_once_per_batch(monkeypatch):
    obj = linreg_objective(gen_linear_data(LinRegSpec(n=100, seed=15)))
    passes = []
    moments = problems._moments

    def counted(x, y):
        passes.append(len(x))
        return moments(x, y)

    monkeypatch.setattr(problems, "_moments", counted)
    theta = np.array([1.0, 1.0])
    # the 50-row batch goes through the 2-D pass, the shorter last one
    # through ``_moments``
    handles = obj.load_batches([np.arange(50), np.arange(50, 90)])
    for _ in range(3):
        for batch in handles:
            obj.loss(theta, batch)
            obj.grad(theta, batch)
        obj.loss(theta, None)
    assert passes == [40]


def test_empty_batch_rejected():
    obj = linreg_objective(gen_linear_data(LinRegSpec(n=10, seed=14)))
    empty = np.array([], dtype=int)
    for run in ([empty], [np.arange(3), empty], [empty, empty]):
        with pytest.raises(ValueError, match="nonempty"):
            obj.load_batches(run)


def test_a_run_that_is_not_integer_index_arrays_is_rejected():
    # read as rows, the mask [T, F, T, F, F, T] would be rows 1, 0, 1, 0, 0,
    # 1 (a loss of 746.19 at theta (1, 2)) instead of rows 0, 2 and 5
    obj = linreg_objective(gen_linear_data(LinRegSpec(n=6, seed=0)))
    mask = np.array([True, False, True, False, False, True])
    rows = np.arange(6)
    for run in ([], [mask], [rows, mask[:3]], [rows.astype(float)],
                [np.array([0.0, 2.0, 5.0])]):
        with pytest.raises(ValueError, match="integer index arrays"):
            obj.load_batches(run)
    want = obj.load_batches([np.flatnonzero(mask)])[0]
    assert obj.loss(np.array([1.0, 2.0]), want) == pytest.approx(1033.65,
                                                                 abs=0.005)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint8,
                                   np.uint64])
def test_integer_index_arrays_of_any_width_are_rows(dtype):
    data = gen_linear_data(LinRegSpec(n=20, seed=4))
    obj = linreg_objective(data)
    run = [np.array(rows, dtype=dtype) for rows in ([3, 0, 7], [19, 5, 11],
                                                   [2, 2])]
    for batch, got in zip(run, obj.load_batches(run)):
        want = problems._moments(data.x[batch], data.y[batch])
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_a_run_of_unequal_batches_is_rejected():
    # read as one (4, 3) block, the 4-row batch would get a loss of 959.5
    # instead of 1118.3, and the 2-row batch 991.2 instead of 689.5
    obj = linreg_objective(gen_linear_data(LinRegSpec(n=20, seed=1)))
    run = np.split(np.arange(12), np.cumsum([3, 4, 2]))
    with pytest.raises(ValueError, match="one nonempty size"):
        obj.load_batches(run)
    # a shorter last batch is the one length a run may differ in
    last = obj.load_batches([run[0], run[3], run[2]])[-1]
    assert obj.loss(np.array([1.0, 2.0]), last) == pytest.approx(689.5,
                                                                 abs=0.05)


@pytest.mark.parametrize("batch", [
    np.arange(7), np.arange(3), np.zeros(7), tuple(np.arange(7.0)),
    list(range(7))])
def test_loss_and_grad_reject_a_batch_that_is_not_a_handle(batch):
    obj = linreg_objective(gen_linear_data(LinRegSpec(n=10, seed=14)))
    theta = np.array([1.0, 1.0])
    for call in (obj.loss, obj.grad):
        with pytest.raises(TypeError, match="load_batches"):
            call(theta, batch)


def test_linreg_grad_check_random_points():
    data = gen_linear_data(LinRegSpec(n=500, seed=5))
    obj = linreg_objective(data)
    rng = np.random.default_rng(6)
    for _ in range(20):
        theta = rng.normal(0, 5, size=2)
        assert grad_check(obj, theta) <= 1e-6


def test_noise_floor():
    sigma = 1.0
    data = gen_linear_data(LinRegSpec(noise_std=sigma, n=100000, seed=8))
    obj = linreg_objective(data)
    loss = obj.loss(np.array([5.0, 9.0]))
    assert abs(loss - sigma ** 2) < 5 * sigma ** 2 / np.sqrt(100000)


def test_quadratic_values():
    obj = quadratic_objective([1.0])
    assert obj.loss(np.array([2.0])) == 2.0
    assert obj.grad(np.array([2.0]))[0] == 2.0
    obj2 = quadratic_objective([1.0, 100.0])
    assert obj2.loss(np.array([1.0, 1.0])) == 50.5
    np.testing.assert_array_equal(obj2.grad(np.array([1.0, 1.0])),
                                  [1.0, 100.0])
    assert obj2.loss(np.zeros(2)) == 0.0


def test_normalize_symmetric_pair():
    data = Dataset(x=np.array([0.0, 2.0]), y=np.array([9.0, 19.0]))
    norm = normalize(data)
    # mean 1 and sample std sqrt(2) map the pair to -+1/sqrt(2)
    np.testing.assert_allclose(norm.x, [-2 ** -0.5, 2 ** -0.5], rtol=1e-15)
    assert np.mean(norm.x) == 0.0
    assert np.std(norm.x, ddof=1) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_array_equal(norm.y, data.y)


def test_normalize_idempotent():
    data = gen_linear_data(LinRegSpec(n=1000, seed=9))
    once = normalize(data)
    assert abs(np.mean(once.x)) < 1e-12
    assert abs(np.std(once.x, ddof=1) - 1.0) < 1e-12
    twice = normalize(once)
    np.testing.assert_allclose(twice.x, once.x, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(twice.y, data.y)


def test_normalize_constant_features_rejected():
    # a single sample has no sample std: it is rejected before numpy warns
    for data in (Dataset(x=np.ones(5), y=np.arange(5.0)),
                 Dataset(x=np.array([2.0]), y=np.array([1.0]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                normalize(data)


def _same(batches):
    """A stream hook that hands the index batches over as they are."""
    return batches


def test_batch_stream_covers_epoch_without_replacement():
    stream = BatchStream(n=100, batch_size=32, seed=0, on_batches=_same)
    it = iter(stream)
    seen = np.concatenate([next(it) for _ in range(4)])
    assert len(seen) == 100
    assert sorted(seen) == list(range(100))
    assert len(next(it)) == 32  # next epoch starts
    assert stream.epoch == 1


def test_batch_stream_keeps_partial_final_batch():
    it = iter(BatchStream(n=10, batch_size=4, seed=0, on_batches=_same))
    sizes = [len(next(it)) for _ in range(3)]
    assert sizes == [4, 4, 2]


def test_batch_stream_deterministic():
    a = iter(BatchStream(n=50, batch_size=16, seed=4, on_batches=_same))
    b = iter(BatchStream(n=50, batch_size=16, seed=4, on_batches=_same))
    for _ in range(10):
        np.testing.assert_array_equal(next(a), next(b))


@st.composite
def run_cases(draw):
    """The first run of batches a stream hands over, over a seeded dataset.
    The batch size is 1, n, above n, one that leaves a partial batch, or
    any; ``clustered`` x is far from zero for its spread (the flat reference
    line, beta = 0), and ``constant`` and ``two-valued`` x give batches with
    Vxx = 0."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    size = draw(st.sampled_from(["one", "n", "above", "partial", "any"]))
    if size == "one":
        batch_size = 1
    elif size == "n":
        batch_size = n
    elif size == "above":
        batch_size = n + draw(st.integers(1, 100))
    elif size == "partial" and n >= 3:
        batch_size = draw(st.integers(2, n - 1).filter(lambda b: n % b))
    else:
        batch_size = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["uniform", "normalized", "clustered",
                                 "constant", "two-valued"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    data = gen_linear_data(LinRegSpec(n=n, seed=seed))
    rng = np.random.default_rng(seed)
    if kind == "normalized" and n >= 2:
        data = normalize(data)
    elif kind == "clustered":
        data = Dataset(x=1e3 + rng.normal(0.0, 1e-3, n), y=data.y)
    elif kind == "constant":
        data = Dataset(x=np.full(n, 3.7), y=data.y)
    elif kind == "two-valued":
        data = Dataset(x=rng.choice([2.0, 5.0], n), y=data.y)
    # the stream's loop run in this process: its first run of batches
    batches, _ = next(BatchStream(n, batch_size, seed=seed,
                                  on_batches=_same)._runs())
    return data, batches


@settings(max_examples=200, deadline=None)
@given(run_cases())
def test_batch_pass_gives_each_batch_the_bits_of_its_own_pass(case):
    data, batches = case
    handles = linreg_objective(data).load_batches(batches)
    assert len(handles) == len(batches)
    for batch, got in zip(batches, handles):
        want = problems._moments(data.x[batch], data.y[batch])
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n, batch_size, runs_per_epoch, partial", [
    (100, 32, 1, [4]), (96, 32, 1, []), (10, 20, 1, []), (7, 1, 1, []),
    (40000, 1000, 3, []), (40000, 3000, 3, [1000]), (20000, 1, 2, [])])
def test_batch_pass_runs_moments_only_for_the_partial_batch(
        monkeypatch, n, batch_size, runs_per_epoch, partial):
    obj, _, stream = harness.build_problem(harness.RunConfig(
        n_samples=n, batch_size=batch_size, seed=3))
    passes, calls = [], []
    moments, load = problems._moments, stream.on_batches

    def counted(x, y):
        passes.append(len(x))
        return moments(x, y)

    def loaded(batches):
        # runs in the stream's worker: its counts come back with the handles
        calls.append(None)
        before = len(passes)
        handles = load(batches)
        run = (len(calls), sum(map(len, batches)), passes[before:])
        return [(run, handle) for handle in handles]

    monkeypatch.setattr(problems, "_moments", counted)
    stream.on_batches = loaded
    theta = np.array([1.0, 1.0])
    runs = {}
    batches = iter(stream)
    for _ in range(3 * -(-n // batch_size)):  # three epochs
        run, batch = next(batches)
        runs[run[0]] = run
        obj.loss(theta, batch)
        obj.grad(theta, batch)
    batches.close()
    assert stream.epoch == 2
    assert passes == []  # loss and grad on a handle make no pass
    assert list(runs) == list(range(1, 3 * runs_per_epoch + 1))
    rows = [rows for _, rows, _ in runs.values()]
    assert sum(rows) == 3 * n
    assert max(rows) <= max(problems.PASS_ROWS, batch_size)
    assert sum((run_passes for _, _, run_passes in runs.values()), []) \
        == partial * 3


@pytest.mark.parametrize("n, batch_size", [(10, 3), (40000, 3000),
                                           (20000, 1), (5, 8)])
def test_stream_hands_each_batch_over_before_yielding_it(n, batch_size):
    calls = []

    def hand(batches):
        calls.append(None)
        rows = sum(map(len, batches))
        return [(len(calls), rows, batch) for batch in batches]

    plain = iter(BatchStream(n, batch_size, seed=2, on_batches=_same))
    it = iter(BatchStream(n, batch_size, seed=2, on_batches=hand))
    runs, yielded = {}, Counter()
    for _ in range(2 * -(-n // batch_size) + 1):  # into a third epoch
        run, rows, batch = next(it)  # what the hook returned for its run
        assert runs.setdefault(run, rows) == rows
        yielded[run] += 1
        assert batch.tolist() == next(plain).tolist()
    # the hook saw the runs in order, and each run but the last was yielded
    # whole, one batch at a time
    assert list(runs) == list(range(1, len(runs) + 1))
    assert [yielded[run] for run in runs][:-1] == \
        [-(-rows // batch_size) for rows in runs.values()][:-1]
    assert max(runs.values()) <= max(problems.PASS_ROWS, batch_size)
