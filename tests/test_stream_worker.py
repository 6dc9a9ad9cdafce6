"""The batch stream's worker process: each way out of a run ends and reaps
it, a hook's exception reaches the caller, and the in-process path a host
without ``fork`` takes writes the same traces."""
import contextlib
import hashlib
import itertools
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfeopt import problems
from bfeopt.cli import main
from bfeopt.core import NonFiniteEvaluation
from bfeopt.harness import TRACE_HEADER, RunConfig, run_experiment
from bfeopt.problems import BatchStream

from test_problems import batches_of
from test_traces import GOLDEN, LINREG

SRC = Path(__file__).resolve().parent.parent / "src"


def _assert_no_child_left():
    """No child process is left, not even one that exited unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch, stream_forks):
    """The pids ``os.fork`` returns in this process, in order; a stream
    forks its worker even on one CPU."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def test_a_run_that_exits_0_leaves_no_child(forks):
    summary = run_experiment(RunConfig(optimizer="sgd", max_steps=50,
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


# --w0 1e308 overflows as gen_linear_data draws y, which warns
@pytest.mark.parametrize("argv, drawn_inf", [
    (["--w0", "1e308", "--max-steps", "2"], True),
    (["--b0", "1e308", "--max-steps", "2"], False),
    (["--optimizer", "sgd", "--w0", "1e300"], False),
    (["--optimizer", "adabfe", "--noise-std", "1e200"], False)],
    ids=["w0", "b0", "sgd", "adabfe"])
def test_a_dataset_whose_moments_overflow_exits_2_before_the_fork(
        argv, drawn_inf, forks, tmp_path, capsys):
    out = tmp_path / "t.csv"
    with (pytest.warns(RuntimeWarning, match="overflow") if drawn_inf
          else contextlib.nullcontext()):
        assert main(["optimize", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the dataset's moments (mean x, "
                          "beta, alpha, mean r0, Vxx, Cov(x, r0), Var(r0)) (")
    assert err.endswith(") are not all finite\n")
    assert not out.exists()
    assert forks == []


def _failing_hook(exc):
    calls = []

    def hook(rows, size):
        calls.append(None)
        if len(calls) == 2:  # in the second epoch
            raise exc
        return batches_of(rows, size)
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


def test_a_hook_error_that_does_not_pickle_names_its_type(forks):
    class LocalError(Exception):
        pass

    batches = iter(BatchStream(10, 4, seed=1,
                               on_batches=_failing_hook(LocalError("y"))))
    for _ in range(3):
        next(batches)
    with pytest.raises(RuntimeError, match="^LocalError: y$"):
        next(batches)
    _assert_no_child_left()


def test_a_hook_result_that_does_not_pickle_is_an_error(forks):
    batches = iter(BatchStream(10, 4, on_batches=lambda *run: [lambda: run]))
    with pytest.raises(Exception, match="pickle"):
        next(batches)
    _assert_no_child_left()


def test_a_large_hook_result_that_does_not_pickle_is_an_error(forks):
    # the worker has written the bytes, past the pipe's size, when the
    # lambda fails to pickle
    batches = iter(BatchStream(
        10, 4, on_batches=lambda *run: [bytes(200_000), lambda: run]))
    with pytest.raises(Exception, match="pickle"):
        next(batches)
    _assert_no_child_left()


# 200 KB, more than a Linux pipe holds
PAYLOAD = bytes(range(256)) * 800


def _large(rows, size):
    return [PAYLOAD + b.tobytes() for b in batches_of(rows, size)]


def test_a_hook_result_larger_than_the_pipe_arrives_intact(forks,
                                                           monkeypatch):
    batches = iter(BatchStream(10, 4, seed=3, on_batches=_large))
    drawn = [next(batches) for _ in range(6)]
    batches.close()
    assert len(forks) == 1
    _assert_no_child_left()
    monkeypatch.setattr(os, "fork", _no_fork)
    in_process = iter(BatchStream(10, 4, seed=3, on_batches=_large))
    assert drawn == [next(in_process) for _ in range(6)]


def test_a_worker_killed_within_a_write_ends_the_stream(forks):
    calls = []

    def hook(rows, size):
        calls.append(None)
        return batches_of(rows, size) if len(calls) == 1 else [bytes(1 << 20)]

    batches = iter(BatchStream(10, 4, on_batches=hook))
    for _ in range(3):  # the first run
        next(batches)
    # by now the worker is blocked in the write of the second run, which
    # the pipe cannot hold, so the pickle ends within the bytes, which the
    # parent reads as UnpicklingError; had the write not begun, the pipe
    # would end between runs, with the same error
    time.sleep(0.5)
    os.kill(forks[0], signal.SIGKILL)
    with pytest.raises(OSError, match=r"ended early \(exit code -9\)$"):
        next(batches)
    _assert_no_child_left()


def test_closing_a_stream_whose_worker_was_reaped_elsewhere(forks):
    # as a waitpid(-1) or a SIGCHLD handler elsewhere in the process would
    batches = iter(BatchStream(10, 4, on_batches=batches_of))
    next(batches)
    os.kill(forks[0], signal.SIGKILL)
    os.waitpid(forks[0], 0)
    batches.close()
    _assert_no_child_left()


def test_a_worker_reaped_elsewhere_that_ended_early_is_an_error(forks):
    batches = iter(BatchStream(10, 4, on_batches=batches_of))
    next(batches)
    os.kill(forks[0], signal.SIGKILL)
    os.waitpid(forks[0], 0)
    # the runs already in the pipe arrive; then it ends without the marker
    with pytest.raises(OSError, match=r"ended early \(exit code unknown\)$"):
        for _ in range(1 << 20):
            next(batches)
    _assert_no_child_left()


@pytest.mark.parametrize("limit, sizes, epochs", [
    (1, [4, 4, 2], 1), (3, [4, 4, 2], 1), (4, [4, 4, 2] * 2, 2),
    (7, [4, 4, 2] * 3, 3)])
def test_a_stream_with_a_limit_ends_after_the_run_that_holds_it(
        forks, monkeypatch, limit, sizes, epochs):
    # 10 rows in batches of 4: an epoch is one run of 3 batches
    def drawn():
        stream = BatchStream(10, 4, seed=6, on_batches=batches_of, limit=limit)
        return list(stream), stream.epoch

    forked, epoch = drawn()
    assert [len(batch) for batch in forked] == sizes and epoch == epochs
    assert len(forks) == 1
    _assert_no_child_left()
    monkeypatch.setattr(os, "fork", _no_fork)
    in_process, epoch = drawn()
    assert len(in_process) == len(forked) and epoch == epochs
    assert all(np.array_equal(a, b) for a, b in zip(forked, in_process))


def test_a_worker_that_sent_the_last_run_exits_by_itself(forks):
    batches = iter(BatchStream(10, 4, on_batches=batches_of, limit=5))
    for _ in range(6):  # the two runs the limit leaves
        next(batches)
    # no kill has been sent: the worker ended with exit code 0
    _, status = os.waitpid(forks[0], 0)
    assert os.waitstatus_to_exitcode(status) == 0
    with pytest.raises(StopIteration):  # the end marker
        next(batches)
    _assert_no_child_left()


def _signals_sent(monkeypatch):
    """The signals a stream sends from now on, by pid or through a pidfd;
    none is delivered."""
    sent = []
    monkeypatch.setattr(os, "kill", lambda *args: sent.append(args))
    monkeypatch.setattr(signal, "pidfd_send_signal",
                        lambda *args: sent.append(args), raising=False)
    return sent


def test_a_stream_read_to_its_end_sends_no_signal(forks, monkeypatch):
    # the worker exits after its end marker; a kill sent by pid once
    # something else had reaped it could reach another process
    sent = _signals_sent(monkeypatch)
    assert len(list(BatchStream(10, 4, on_batches=batches_of, limit=5))) == 6
    assert sent == []
    _assert_no_child_left()


def test_closing_a_stream_after_its_worker_ended_sends_no_kill_by_pid(
        forks, monkeypatch):
    # as a run does after its last step: the marker is left unread, and the
    # worker has exited and been reaped elsewhere, so its pid is free
    batches = iter(BatchStream(10, 4, on_batches=batches_of, limit=5))
    for _ in range(6):
        next(batches)
    os.waitpid(forks[0], 0)
    killed_by_pid = []
    monkeypatch.setattr(os, "kill", lambda *args: killed_by_pid.append(args))
    batches.close()
    assert killed_by_pid == []
    _assert_no_child_left()


def test_closing_a_stream_whose_worker_waits_on_a_full_pipe_sends_no_signal(
        forks, monkeypatch):
    # each run is larger than the pipe: the worker is in a write when the
    # read end closes, and that write fails
    sent = _signals_sent(monkeypatch)
    batches = iter(BatchStream(10, 4, on_batches=_large))
    next(batches)
    batches.close()
    assert sent == []
    _assert_no_child_left()


# Two live streams, each with a worker blocked on a full pipe, closed first
# to last. The second worker was forked while the first stream was live; had
# it kept the first pipe's read end, the first close would wait for good.
_TWO_STREAMS = """
import os, sys
sys.path.insert(0, sys.argv[1])
from bfeopt import problems

problems._other_cpus = lambda: os.sched_getaffinity(0)  # fork on one CPU too

def large(rows, size):
    return [bytes(200_000)] * -(-len(rows) // size)

first, second = (iter(problems.BatchStream(10, 4, on_batches=large))
                 for _ in range(2))
next(first)
next(second)
first.close()
second.close()
"""


def test_two_live_streams_close_in_turn(tmp_path):
    done = subprocess.run([sys.executable, "-c", _TWO_STREAMS, str(SRC)],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc to list a process's descriptors")
def test_a_hook_finds_none_of_its_callers_descriptors_open(forks):
    r, w = os.pipe()
    try:
        batches = iter(BatchStream(10, 4, on_batches=lambda *run: [
            [str(fd) in os.listdir("/proc/self/fd") for fd in (r, w)]]))
        try:
            assert next(batches) == [False, False]
        finally:
            batches.close()
    finally:
        os.close(r)
        os.close(w)
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_stream_limit_must_be_positive():
    with pytest.raises(ValueError, match="limit must be >= 1"):
        BatchStream(10, 4, on_batches=batches_of, limit=0)


def test_a_stream_of_no_rows_is_rejected():
    # its epochs would be empty: it would never yield and never end
    with pytest.raises(ValueError, match="n, batch_size and limit must be"):
        BatchStream(0, 4, on_batches=batches_of)


def test_a_run_draws_the_runs_of_its_steps_only(forks, monkeypatch,
                                                tmp_path):
    # 10,000 rows in batches of 512: a run of 20 batches is an epoch, and
    # 30 steps read 2 of them; the worker notes each run it draws in a file
    log = tmp_path / "runs"
    load = problems.LinRegObjective.load_batches

    def noted(self, rows, size):
        with open(log, "a") as f:
            f.write("run\n")
        return load(self, rows, size)

    monkeypatch.setattr(problems.LinRegObjective, "load_batches", noted)
    run_experiment(RunConfig(optimizer="sgd", max_steps=30))
    assert len(forks) == 1
    assert log.read_text() == "run\n" * 2


def test_a_stream_is_iterated_once():
    stream = BatchStream(10, 4, on_batches=batches_of)
    batches = iter(stream)
    with pytest.raises(RuntimeError, match="iterated only once"):
        iter(stream)
    next(batches)
    batches.close()
    _assert_no_child_left()


def test_a_stream_closed_before_its_first_batch_forks_nothing(forks):
    iter(BatchStream(10, 4, on_batches=batches_of)).close()
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
        10, 4, on_batches=lambda rows, size: [os.sched_getaffinity(0)]))
    try:
        assert next(batches) == worker_cpus
    finally:
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


@pytest.mark.parametrize("flags", [("bfe", *LINREG), ("sgd", *LINREG)],
                         ids=" ".join)
def test_on_one_cpu_the_stream_runs_in_process(forks, monkeypatch, flags,
                                               tmp_path):
    monkeypatch.setattr(problems, "_other_cpus", set)
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--optimizer", *flags, "--out", str(out)]) == 0
    rows = out.read_text().split(TRACE_HEADER + "\n", 1)[1]
    assert hashlib.sha256(rows.encode()).hexdigest() == GOLDEN[flags]
    assert forks == []


def test_where_proc_does_not_tell_the_stream_still_forks(forks, monkeypatch):
    monkeypatch.setattr(problems, "_other_cpus", lambda: None)
    batches = iter(BatchStream(10, 4, on_batches=batches_of))
    next(batches)
    batches.close()
    assert len(forks) == 1
    _assert_no_child_left()


def test_where_proc_cannot_be_read_no_cpus_are_named(monkeypatch):
    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", path)

    monkeypatch.setattr(problems, "open", no_proc, raising=False)
    assert problems._other_cpus() is None


def test_without_fork_a_stream_yields_what_the_worker_sends(forks,
                                                             monkeypatch):
    def first_epochs(stream):
        batches = iter(stream)
        drawn = [next(batches) for _ in range(9)]
        batches.close()
        return drawn, stream.epoch

    def stream():
        return BatchStream(20, 6, seed=5, on_batches=batches_of)

    forked, epoch = first_epochs(stream())
    monkeypatch.setattr(os, "fork", _no_fork)
    in_process, in_process_epoch = first_epochs(stream())
    assert epoch == in_process_epoch == 2
    assert all(np.array_equal(a, b) for a, b in zip(forked, in_process))


# A worker killed in its second run, by a hook that replaces the linreg
# moment pass. SECOND_RUN is what the hook does on that run.
_DIES = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
from bfeopt import cli, problems

class Kill:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)

load = problems.LinRegObjective.load_batches
problems._other_cpus = lambda: os.sched_getaffinity(0)  # fork on one CPU too
calls = []

def dies(self, rows, size):
    calls.append(None)
    if len(calls) == 2:
        SECOND_RUN
    return load(self, rows, size)

problems.LinRegObjective.load_batches = dies
sys.exit(cli.main(["optimize", "--optimizer", "sgd", "--max-steps", "100"]))
"""
# dies after its first run: the parent reads what it sent, then the end of
# the pipe
WORKER_DIES = _DIES.replace("SECOND_RUN",
                            "os.kill(os.getpid(), signal.SIGKILL)")
# dies within the pickle of its second run, after the large bytes, at an
# opcode boundary, which the parent reads as EOFError
WORKER_DIES_MID_ITEM = _DIES.replace("SECOND_RUN",
                                     "return [bytes(200_000), Kill()]")


def _assert_ends_early(script, cwd):
    """``script`` exits 2 with the error of a worker killed by SIGKILL."""
    done = subprocess.run([sys.executable, "-c", script, str(SRC)], cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith(
        "config error: the batch stream's worker process ")
    assert done.stderr.endswith(" ended early (exit code -9)\n")
    assert "Traceback" not in done.stderr


def test_a_worker_that_ends_early_is_a_clear_error(tmp_path):
    _assert_ends_early(WORKER_DIES, tmp_path)


def test_a_worker_killed_within_an_item_is_the_same_error(tmp_path):
    _assert_ends_early(WORKER_DIES_MID_ITEM, tmp_path)


def _floats(handles):
    """The handles' floats, bit for bit."""
    return np.array(handles, dtype=float).tobytes()


@pytest.mark.parametrize("rows", [120, 128], ids=["shorter-last", "even"])
def test_a_linreg_run_pickles_as_one_block_of_floats(rows):
    obj = problems.LinRegObjective(problems.gen_linear_data(
        problems.LinRegSpec(n=200, seed=4)))
    perm = np.random.default_rng(4).permutation(200)[:rows]
    handles = obj.load_batches(perm, 16)
    wire = pickle.dumps(handles, pickle.HIGHEST_PROTOCOL)
    back = pickle.loads(wire)
    assert all(type(h) is problems.BatchMoments for h in back)
    assert _floats(back) == _floats(handles)
    # one tuple of floats, not a reduce of each handle
    assert b"BatchMoments" not in wire
    flat = tuple(x for h in handles for x in h)
    assert len(wire) <= len(pickle.dumps(flat, pickle.HIGHEST_PROTOCOL)) + 200


def test_a_hook_that_returns_plain_lists_works_through_the_worker(
        forks, monkeypatch):
    def first_batches():
        batches = iter(BatchStream(
            10, 4, seed=2,
            on_batches=lambda *run: [x.tolist() for x in batches_of(*run)]))
        drawn = [next(batches) for _ in range(7)]
        batches.close()
        return drawn

    forked = first_batches()
    assert len(forks) == 1
    monkeypatch.setattr(os, "fork", _no_fork)
    assert forked == first_batches()
    assert all(type(batch) is list for batch in forked)
    _assert_no_child_left()


def _stream_reference(data, size, limit, pass_rows, seed):
    """The ``_moments`` of what a limited stream over ``data`` yields, built
    batch by batch: each epoch's ``default_rng(seed)`` permutation cut into
    consecutive ``size``-row batches, handed over ``pass_rows // size`` (at
    least one) at a time, up to the run that holds batch ``limit``; with the
    epochs those runs complete."""
    rng = np.random.default_rng(seed)
    per_run = max(1, pass_rows // size)
    want, epochs = [], 0
    while True:
        perm = rng.permutation(len(data.x))
        batches = [perm[i:i + size] for i in range(0, len(perm), size)]
        for first in range(0, len(batches), per_run):
            want += [problems._moments(data.x[batch], data.y[batch])
                     for batch in batches[first:first + per_run]]
            if len(want) >= limit:
                return want, epochs + (first + per_run >= len(batches))
        epochs += 1


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 300), size=st.integers(1, 70),
       limit=st.integers(1, 40),
       pass_rows=st.sampled_from([problems.PASS_ROWS, 1, 100]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_linreg_stream_yields_the_moments_of_each_epochs_batches(
        forks, n, size, limit, pass_rows, seed):
    # through the worker, then in process; PASS_ROWS set low makes runs of
    # part of an epoch, so a limit can end the stream within one
    data = problems.gen_linear_data(problems.LinRegSpec(n=n, seed=seed))
    want, epochs = _stream_reference(data, size, limit, pass_rows, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problems, "PASS_ROWS", pass_rows)
        for fork in (os.fork, _no_fork):
            patch.setattr(os, "fork", fork)
            forked = len(forks)
            stream = BatchStream(
                n, size, seed=seed, limit=limit,
                on_batches=problems.LinRegObjective(data).load_batches)
            # one past the end: a stream that goes on fails, not hangs
            with contextlib.closing(iter(stream)) as batches:
                got = list(itertools.islice(batches, len(want) + 1))
            assert _floats(got) == _floats(want)
            assert stream.epoch == epochs
            assert len(forks) == forked + (fork is not _no_fork)
            _assert_no_child_left()
