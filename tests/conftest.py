import pytest

from bfeopt import harness


class CountingObjective:
    """Wraps an objective and counts loss/grad evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.loss_calls = 0
        self.grad_calls = 0

    def loss(self, theta, batch=None):
        self.loss_calls += 1
        return self.inner.loss(theta, batch)

    def grad(self, theta, batch=None):
        self.grad_calls += 1
        return self.inner.grad(theta, batch)

    def reset(self):
        self.loss_calls = 0
        self.grad_calls = 0


@pytest.fixture
def counting():
    return CountingObjective


@pytest.fixture
def counted_objectives(monkeypatch):
    """Every objective ``harness.build_problem`` makes, wrapped in a
    CountingObjective below the run loop's memo, in the order made."""
    objs = []
    build_problem = harness.build_problem

    def counted(cfg):
        obj, *rest = build_problem(cfg)
        objs.append(CountingObjective(obj))
        return (objs[-1], *rest)

    monkeypatch.setattr(harness, "build_problem", counted)
    return objs
