import contextlib
import dataclasses
import gc
import glob
import os
import signal

import pytest

from bfeopt import harness, problems


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


@pytest.fixture
def run_traced(tmp_path):
    """Runs a config with its trace written to ``name`` under ``tmp_path``,
    and returns the records read back from that file, which round-trip
    every float, and the run's summary."""
    def run(cfg, name="trace.csv"):
        path = str(tmp_path / name)
        summary = harness.run_experiment(dataclasses.replace(
            cfg, output_path=path))
        return harness.read_trace(path)[1], summary
    return run


@pytest.fixture
def stream_forks(monkeypatch):
    """A batch stream forks its worker even where this process may run on
    one CPU only, for the tests that need the worker."""
    other_cpus = problems._other_cpus
    monkeypatch.setattr(problems, "_other_cpus",
                        lambda: other_cpus() or os.sched_getaffinity(0))


def _children() -> list[int]:
    """This process's child pids, running or exited and unreaped, as Linux's
    ``/proc`` lists them; none where it does not."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with contextlib.suppress(OSError), open(path) as f:
            pids += map(int, f.read().split())
    return pids


def _open_fds() -> dict[str, str] | None:
    """This process's open descriptors and what each names, as Linux's
    ``/proc`` lists them; None where it does not."""
    fds = {}
    try:
        for fd in os.listdir("/proc/self/fd"):
            with contextlib.suppress(OSError):  # the listing's own descriptor
                fds[fd] = os.readlink(f"/proc/self/fd/{fd}")
    except OSError:
        return None
    return fds


@pytest.fixture(autouse=True)
def no_fd_left():
    """A test that leaves a descriptor open fails, as a leaked pipe end
    would keep a stream's worker writing; ``ResourceWarning`` sees only file
    objects."""
    before = _open_fds()
    yield
    if before is None:
        return
    gc.collect()
    left = {fd: name for fd, name in _open_fds().items()
            if before.get(fd) != name}
    if left:
        pytest.fail(f"the test left descriptors open: {left}")


@pytest.fixture(autouse=True)
def no_child_left():
    """A test that leaves a child process fails alone: the child is killed
    and reaped, so the tests after it start with none."""
    yield
    left = _children()
    if not left:
        return
    # a stream dropped in a reference cycle ends its own worker here, where
    # a later collection would find the worker reaped
    gc.collect()
    for pid in _children():
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pytest.fail(f"the test left child processes {left}")


@pytest.fixture(autouse=True)
def no_partial_left(request):
    """A test that leaves a partial trace file under its ``tmp_path`` fails:
    a write, however it ends, takes its partial file away."""
    yield
    tmp_path = request.node.funcargs.get("tmp_path")
    if tmp_path is None:
        return
    left = sorted(map(str, tmp_path.rglob("*" + harness.PARTIAL_SUFFIX)))
    if left:
        pytest.fail(f"the test left partial files {left}")
