"""The run loop's evaluation memo, ``harness.EvalMemo``."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfeopt.harness import EvalMemo
from bfeopt.problems import quadratic_objective
from conftest import CountingObjective


class Probe:
    """A batch-dependent objective that tells -0.0 from 0.0: the loss's
    ``atan2`` term is pi or -pi, and the gradient keeps each zero's sign."""

    @staticmethod
    def _weight(batch):
        return 1.0 if batch is None else 2.0 + float(batch[0])

    def loss(self, theta, batch=None):
        return (self._weight(batch) * math.atan2(theta[0], -1.0)
                + float(theta @ theta))

    def grad(self, theta, batch=None):
        return self._weight(batch) * theta


# the last batch equals the second in value but is another object, so the
# memo must take it for another batch
BATCHES = (None, np.array([0]), np.array([1]), np.array([0]))
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324]),
                   st.floats(-1e150, 1e150))  # theta @ theta stays finite
POINTS = st.lists(COORDS, min_size=2, max_size=2).map(np.array)
CALLS = st.lists(st.tuples(st.sampled_from(["begin", "loss", "grad"]),
                           st.integers(0, len(BATCHES) - 1), POINTS),
                 max_size=40)


@settings(max_examples=300, deadline=None)
@given(CALLS)
def test_memo_returns_the_objectives_own_values(calls):
    raw = Probe()
    counted = CountingObjective(raw)
    memo = EvalMemo(counted)
    # a model of the memo: its batch, and the (kind, point) pairs it holds
    scope, held = None, set()
    for kind, b, theta in calls:
        batch, key = BATCHES[b], theta.tobytes()
        if kind == "begin":
            memo.begin(batch, theta)
            if batch is scope:
                held = {(k, p) for k, p in held if p == key}
            else:
                scope, held = batch, set()
            continue
        evals = counted.loss_calls + counted.grad_calls
        got = getattr(memo, kind)(theta, batch)
        want = getattr(raw, kind)(theta, batch)
        hit = batch is scope and (kind, key) in held
        assert counted.loss_calls + counted.grad_calls == evals + (not hit)
        if batch is scope:
            held.add((kind, key))
        if kind == "loss":
            assert float(got).hex() == float(want).hex()
            continue
        assert (got.dtype, got.shape, got.tobytes()) == (
            want.dtype, want.shape, want.tobytes())
        if batch is scope:
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0
    assert (memo.loss_evals, memo.grad_evals) == (counted.loss_calls,
                                                  counted.grad_calls)


def test_the_committed_points_gradient_carries_under_batch_none():
    counted = CountingObjective(quadratic_objective([1.0, 2.0]))
    memo = EvalMemo(counted)
    start, trial = np.array([1.0, 1.0]), np.array([0.5, 0.25])
    memo.begin(None, start)
    memo.grad(start, None)
    memo.grad(trial, None)
    memo.loss(trial, None)
    memo.begin(None, trial)  # the step committed the trial point
    memo.grad(trial, None)
    memo.loss(trial, None)
    assert (counted.grad_calls, counted.loss_calls) == (2, 1)
    memo.grad(start, None)  # no longer held
    assert counted.grad_calls == 3


def test_a_new_batch_clears_the_memo_and_other_batches_pass_through():
    counted = CountingObjective(Probe())
    memo = EvalMemo(counted)
    theta, batch = np.array([1.0, 2.0]), np.array([0])
    memo.begin(batch, theta)
    memo.loss(theta, batch)
    memo.loss(theta, batch)
    memo.loss(theta, None)  # the full-dataset loss of a mini-batch run
    memo.loss(theta, None)
    assert counted.loss_calls == 3
    fresh = np.array([0])  # equal indices, but a new batch
    memo.begin(fresh, theta)
    memo.loss(theta, fresh)
    memo.loss(theta, batch)  # the last step's batch passes through
    assert counted.loss_calls == 5
