"""The batch stream's worker process: each way out of a run ends and reaps
it, a hook's exception reaches the caller, and the in-process path a host
without ``fork`` takes writes the same traces."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bfeopt import problems
from bfeopt.cli import main
from bfeopt.core import NonFiniteEvaluation
from bfeopt.harness import TRACE_HEADER, RunConfig, run_experiment
from bfeopt.problems import BatchStream

from test_traces import GOLDEN, LINREG

SRC = Path(__file__).resolve().parent.parent / "src"


def _assert_no_child_left():
    """No child process is left, not even one that exited unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns in this process, in order."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def test_a_run_that_exits_0_leaves_no_child(forks):
    _, summary = run_experiment(RunConfig(optimizer="sgd", max_steps=50,
                                          batch_size=256))
    assert len(forks) == 1 and forks[0] > 0
    assert summary.grad_evals == 50
    _assert_no_child_left()


def test_a_run_that_fails_leaves_no_child(forks):
    with pytest.raises(NonFiniteEvaluation) as info:
        run_experiment(RunConfig(optimizer="bfe-grad", eta0=1.0, seed=42,
                                 max_steps=20))
    assert info.value.step == 9
    assert len(forks) == 1
    _assert_no_child_left()


def _failing_hook(exc):
    calls = []

    def hook(batches):
        calls.append(None)
        if len(calls) == 2:  # in the second epoch
            raise exc
        return batches
    return hook


def test_a_hook_error_reaches_the_caller_with_its_type_and_message(forks):
    batches = iter(BatchStream(10, 4, seed=1,
                               on_batches=_failing_hook(ValueError("x"))))
    assert [len(next(batches)) for _ in range(3)] == [4, 4, 2]
    with pytest.raises(ValueError) as info:
        next(batches)
    assert type(info.value) is ValueError and info.value.args == ("x",)
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_hook_error_that_does_not_pickle_names_its_type():
    class LocalError(Exception):
        pass

    batches = iter(BatchStream(10, 4, seed=1,
                               on_batches=_failing_hook(LocalError("y"))))
    for _ in range(3):
        next(batches)
    with pytest.raises(RuntimeError, match="^LocalError: y$"):
        next(batches)
    _assert_no_child_left()


def test_a_hook_result_that_does_not_pickle_is_an_error():
    batches = iter(BatchStream(10, 4, on_batches=lambda b: [lambda: b]))
    with pytest.raises(Exception, match="pickle"):
        next(batches)
    _assert_no_child_left()


def test_a_stream_is_iterated_once():
    stream = BatchStream(10, 4, on_batches=list)
    batches = iter(stream)
    with pytest.raises(RuntimeError, match="iterated only once"):
        iter(stream)
    next(batches)
    batches.close()
    _assert_no_child_left()


def test_a_stream_closed_before_its_first_batch_forks_nothing(forks):
    iter(BatchStream(10, 4, on_batches=list)).close()
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="CPU affinity is a Linux call")
def test_the_worker_runs_on_the_cpus_its_parent_does_not(monkeypatch):
    allowed = os.sched_getaffinity(0)
    others = problems._other_cpus()
    assert others < allowed and len(others) == len(allowed) - 1
    worker_cpus = {min(allowed)}
    monkeypatch.setattr(problems, "_other_cpus", lambda: worker_cpus)
    batches = iter(BatchStream(
        10, 4, on_batches=lambda b: [os.sched_getaffinity(0)] * len(b)))
    assert next(batches) == worker_cpus
    batches.close()
    assert os.sched_getaffinity(0) == allowed


def _no_fork():
    raise OSError("fork is not available")


@pytest.mark.parametrize("flags", [("bfe", *LINREG), ("sgd", *LINREG)],
                         ids=" ".join)
def test_without_fork_the_stream_runs_in_process(monkeypatch, flags,
                                                 tmp_path, capsys):
    monkeypatch.setattr(os, "fork", _no_fork)
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--optimizer", *flags, "--out", str(out)]) == 0
    rows = out.read_text().split(TRACE_HEADER + "\n", 1)[1]
    assert hashlib.sha256(rows.encode()).hexdigest() == GOLDEN[flags]
    _assert_no_child_left()


def test_without_fork_a_stream_yields_what_the_worker_sends(monkeypatch):
    def first_epochs(stream):
        batches = iter(stream)
        drawn = [next(batches) for _ in range(9)]
        batches.close()
        return drawn, stream.epoch

    def stream():
        return BatchStream(20, 6, seed=5, on_batches=list)

    forked, epoch = first_epochs(stream())
    monkeypatch.setattr(os, "fork", _no_fork)
    in_process, in_process_epoch = first_epochs(stream())
    assert epoch == in_process_epoch == 2
    assert all(np.array_equal(a, b) for a, b in zip(forked, in_process))


# A worker that dies after its first run: the parent reads what it sent,
# then the end of the pipe.
WORKER_DIES = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
from bfeopt import cli, problems

load = problems.LinRegObjective.load_batches
calls = []

def dies(self, batches):
    calls.append(None)
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return load(self, batches)

problems.LinRegObjective.load_batches = dies
sys.exit(cli.main(["optimize", "--optimizer", "sgd", "--max-steps", "100"]))
"""


def test_a_worker_that_ends_early_is_a_clear_error(tmp_path):
    done = subprocess.run([sys.executable, "-c", WORKER_DIES, str(SRC)],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith(
        "config error: the batch stream's worker process ")
    assert done.stderr.endswith(" ended early (exit code -9)\n")
    assert "Traceback" not in done.stderr
