"""Synthetic objectives and datasets: a seeded univariate regression task,
diagonal quadratic bowls, feature normalization, and epoch-shuffled batching.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Batch

X_RANGE = (0.0, 10.0)
# rows of the batches a BatchStream hands over at a time: an epoch of 10,000
# rows is one hand-off, and a moment pass's work arrays stay small at any
# batch size
PASS_ROWS = 16384


@dataclass(frozen=True)
class LinRegSpec:
    w0: float = 5.0
    b0: float = 9.0
    noise_std: float = 1.0
    n: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.noise_std < math.inf:  # NaN fails too
            raise ValueError("noise_std must be nonnegative and finite")
        if not all(abs(v) < math.inf for v in (self.w0, self.b0)):
            raise ValueError("w0 and b0 must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")


def gen_linear_data(spec: LinRegSpec) -> Dataset:
    """Sample y = w0*x + b0 + noise with x uniform on the feature range."""
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(X_RANGE[0], X_RANGE[1], size=spec.n)
    y = spec.w0 * x + spec.b0 + rng.normal(0.0, spec.noise_std, size=spec.n)
    return Dataset(x=x, y=y)


def normalize(data: Dataset) -> Dataset:
    """Standardize features to zero mean, unit sample std; targets unchanged."""
    if len(data.x) < 2:
        raise ValueError("cannot normalize fewer than 2 samples")
    mu = float(np.mean(data.x))
    sigma = float(np.std(data.x, ddof=1))
    if sigma == 0.0:
        raise ValueError("cannot normalize constant features")
    return Dataset(x=(data.x - mu) / sigma, y=data.y)


class BatchMoments(tuple):
    """A mini-batch as ``LinRegObjective`` reads it: the seven moments of its
    rows that ``_moments`` returns. ``load_batches`` makes them."""
    __slots__ = ()


class MomentsRun(list):
    """The handles ``load_batches`` returns: they pickle as one flat tuple of
    floats, several times faster than ``BatchMoments`` one by one."""
    __slots__ = ()

    def __reduce__(self):
        return _moments_run, (tuple(itertools.chain.from_iterable(self)),)


def _moments_run(floats: tuple[float, ...]) -> MomentsRun:
    return MomentsRun(map(BatchMoments, zip(*[iter(floats)] * 7)))


class LinRegObjective:
    """Mean squared error of y ~ w*x + b; theta = (w, b).

    The loss is quadratic in theta, so a few moments of a batch give its loss
    and gradient in O(1) (see ``_moments``). The full-dataset moments are
    computed once. A mini-batch is the ``BatchMoments`` handle that
    ``load_batches`` makes from an index array into the dataset; a batch of
    None means the full dataset, and any other batch raises ``TypeError``.
    """

    def __init__(self, data: Dataset):
        if len(data.x) == 0:
            raise ValueError("empty dataset")
        self._x = np.asarray(data.x, dtype=float)
        self._y = np.asarray(data.y, dtype=float)
        self._full = _moments(self._x, self._y)
        self._work = (np.empty((0, 0)),) * 4  # load_batches' (k, size) arrays

    def load_batches(self, rows: np.ndarray, size: int) -> MomentsRun:
        """The handles of the index array ``rows`` cut into consecutive
        batches of ``size`` rows, of which the last may be shorter (a
        ``rows`` shorter than ``size`` is one batch): each holds bitwise the
        floats of a ``_moments`` call on its batch alone. Raises
        ``ValueError`` unless ``rows`` is a nonempty 1-D integer array (a
        boolean mask would be read as rows 0 and 1) and ``size`` >= 1."""
        rows = np.asarray(rows)
        if (rows.ndim != 1 or not rows.size or rows.dtype.kind not in "iu"
                or size < 1):
            raise ValueError("rows must be nonempty 1-D ints and size >= 1")
        size = min(size, len(rows))  # numpy has no (0, 2**63) shape
        k = len(rows) // size
        # the pass runs in arrays kept from one call to the next: freeing
        # arrays of this size hands their pages back, to be faulted in again
        if self._work[0].shape[1] != size or len(self._work[0]) < k:
            self._work = tuple(np.empty((k, size)) for _ in range(4))
        x, y, dx, r = (w[:k] for w in self._work)
        full = rows[:k * size].reshape(k, size)
        np.take(self._x, full, out=x)
        np.take(self._y, full, out=y)
        handles = _row_moments(x, y, dx, r)
        tail = rows[k * size:]
        if tail.size:
            handles.append(_moments(self._x[tail], self._y[tail]))
        return handles

    def _moments_of(self, batch: Batch) -> BatchMoments:
        if batch is None:
            return self._full
        if not isinstance(batch, BatchMoments):
            raise TypeError("a linreg batch is None or a handle from "
                            f"load_batches, not {type(batch).__name__}")
        return batch

    def loss(self, theta: np.ndarray, batch: Batch = None) -> float:
        xm, beta, alpha, rm, vxx, c, rv = self._moments_of(batch)
        w, b = theta.tolist()
        d = w - beta
        m = d * xm + (b - alpha) + rm
        # clamped: rounding must not make the residual variance negative
        return m * m + max(d * (d * vxx + 2.0 * c) + rv, 0.0)

    def grad(self, theta: np.ndarray, batch: Batch = None) -> np.ndarray:
        xm, beta, alpha, rm, vxx, c, _ = self._moments_of(batch)
        w, b = theta.tolist()
        d = w - beta
        m = d * xm + (b - alpha) + rm
        return np.array([2.0 * (xm * m + d * vxx + c), 2.0 * m])


def _moments(x: np.ndarray, y: np.ndarray) -> BatchMoments:
    """Moments of the residuals r0 = beta*x + alpha - y about a reference line.

    Returns (mean x, beta, alpha, mean r0, Vxx, Cov(x, r0), Var(r0)). With
    d = w - beta and m = d*mean(x) + (b - alpha) + mean(r0), the loss at
    (w, b) is m**2 + d**2*Vxx + 2*d*Cov(x, r0) + Var(r0) in exact arithmetic,
    for any reference line. The batch's least-squares line keeps r0 small,
    so calls near the optimum round no worse than the direct sum over the
    batch. When mean(x) is 4 or more standard deviations from zero, that line
    is steep and r0 itself would lose digits; the flat line through mean(y)
    is used then.
    """
    n = x.size
    xm = float(x.sum()) / n
    dx = x - xm
    vxx = float(dx @ dx) / n
    beta = float(dx @ y) / n / vxx if xm * xm < 16.0 * vxx else 0.0
    alpha = float(y.sum()) / n - beta * xm
    r0 = beta * x + alpha - y
    rm = float(r0.sum()) / n
    dr = r0 - rm
    return BatchMoments((xm, beta, alpha, rm, vxx, float(dx @ dr) / n,
                         float(dr @ dr) / n))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``: a
    stack of (1, n) @ (n, 1) products, each the BLAS dot of a 1-D ``@``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_moments(x: np.ndarray, y: np.ndarray, dx: np.ndarray,
                 r: np.ndarray) -> MomentsRun:
    """``_moments`` of each row of the (k, n) arrays ``x`` and ``y``, using
    ``dx`` and ``r``, of the same shape, as work arrays.

    The expressions are ``_moments``'s, in the same order. A sum along the
    rows of a C-contiguous array is the same pairwise sum as a 1-D sum, and
    ``_row_dots`` the same dot, so each row gets bitwise the floats of a
    ``_moments`` call on it. The steep-line test masks the divide, so a row
    with Vxx = 0 divides by nothing.
    """
    n = x.shape[1]
    xm = np.add.reduce(x, axis=1) / n
    dx = np.subtract(x, xm[:, None], out=dx)
    vxx = _row_dots(dx, dx) / n
    beta = np.zeros(len(x))
    np.divide(_row_dots(dx, y) / n, vxx, out=beta,
              where=xm * xm < 16.0 * vxx)
    alpha = np.add.reduce(y, axis=1) / n - beta * xm
    r0 = np.multiply(beta[:, None], x, out=r)
    r0 += alpha[:, None]
    r0 -= y
    rm = np.add.reduce(r0, axis=1) / n
    dr = np.subtract(r0, rm[:, None], out=r)
    columns = (xm, beta, alpha, rm, vxx, _row_dots(dx, dr) / n,
               _row_dots(dr, dr) / n)
    return MomentsRun(map(BatchMoments, zip(*(c.tolist() for c in columns))))


class QuadraticObjective:
    """Diagonal bowl f(theta) = 0.5 * sum h_i * theta_i**2, batch-independent."""

    def __init__(self, curvatures):
        h = np.asarray(curvatures, dtype=float)
        if np.any(h <= 0):
            raise ValueError("curvatures must be positive")
        if not h.size or not np.all(np.isfinite(h)):
            raise ValueError("curvatures must be one or more finite numbers")
        self.h = h

    def loss(self, theta: np.ndarray, batch: Batch = None) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(0.5 * np.add.reduce(self.h * theta * theta))

    def grad(self, theta: np.ndarray, batch: Batch = None) -> np.ndarray:
        return self.h * np.asarray(theta, dtype=float)


# the names a run builds its objectives by, which perfbench/tracer.py wraps;
# RunConfig's checks build the classes themselves
linreg_objective, quadratic_objective = LinRegObjective, QuadraticObjective


class BatchStream:
    """Seeded epoch-shuffled mini-batch index stream, without replacement.

    The final partial batch of an epoch is kept. ``epoch`` reflects the epoch
    of the most recently yielded batch. The stream cuts each epoch's
    permutation into runs of about ``PASS_ROWS`` rows and at least one
    batch, and yields what ``on_batches(rows, batch_size)`` returns for each
    run's block ``rows``, one item per batch, such as
    ``LinRegObjective.load_batches``' handles. With a ``limit`` it ends
    after the run that holds batch number ``limit``, counted from 1, and
    draws nothing beyond it; without one it goes on.

    A stream is iterated once, and its runs are drawn ahead of the caller by
    ``_drawn_ahead``, in a worker process: the hook runs there, so what it
    returns must pickle, its side effects stay in the worker, and an
    exception it raises reaches the caller with its type and message.
    Closing the iterator, as ``run_experiment`` does, ends the worker; a
    worker that has sent the stream's last run ends by itself.
    """

    def __init__(self, n: int, batch_size: int, seed: int = 0, *,
                 on_batches: Callable[[np.ndarray, int], list],
                 limit: int | None = None):
        if n < 1 or batch_size < 1 or limit is not None and limit < 1:
            raise ValueError("n, batch_size and limit must be >= 1")
        self.n = n
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.on_batches = on_batches
        self.limit = limit
        self.epoch = 0
        self._iterated = False

    def __iter__(self):
        # the worker draws from a copy of rng: a second pass would repeat
        # the first one's epochs
        if self._iterated:
            raise RuntimeError("a BatchStream can be iterated only once")
        self._iterated = True
        return self._batches()

    def _batches(self):
        runs = _drawn_ahead(self._runs())
        try:
            for handles, ends_epoch in runs:
                yield from handles
                self.epoch += ends_epoch
        finally:
            runs.close()

    def _runs(self):
        """What the hook returns for each run, and whether the run ends its
        epoch."""
        size = self.batch_size
        run = size * max(1, PASS_ROWS // size)
        left = math.inf if self.limit is None else self.limit
        while True:
            perm = self.rng.permutation(self.n)
            for first in range(0, self.n, run):
                end = min(first + run, self.n)
                yield self.on_batches(perm[first:end], size), end == self.n
                left -= -(-(end - first) // size)
                if left <= 0:
                    return


def _drawn_ahead(items):
    """What the generator ``items`` yields, drawn ahead of the caller, as
    far as the pipe holds, by a worker process forked at the first ``next``.

    Each item comes back as one pickle, and the exception that ends
    ``items`` is raised here; after the last item the worker sends
    ``StopIteration`` as its end marker and exits, and is reaped here with
    no signal. Closing this generator before the marker kills and reaps the
    worker, unless something else in this process has reaped it; the kill
    goes through a pidfd where Linux has one, since the pid of a worker
    reaped elsewhere may by then be another process's. A pipe that ends
    without the marker, at or within an item, raises ``OSError``.
    Where ``os.fork`` is missing or raises ``OSError``, or this process may
    run on one CPU only, where a worker would only take turns with it,
    ``items`` runs in this process.
    """
    r, w = os.pipe()
    cpus = _other_cpus()
    try:
        pid = os.fork() if hasattr(os, "fork") and cpus != set() else None
    except OSError:
        pid = None
    if pid == 0:  # the worker, which never returns
        try:
            os.close(r)
            if cpus:  # before it draws: a hook may ask where it runs
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, cpus)
            with open(w, "wb") as pipe:
                try:
                    for item in items:
                        pickle.dump(item, pipe, pickle.HIGHEST_PROTOCOL)
                        pipe.flush()
                    # a generator turns a StopIteration inside it into a
                    # RuntimeError, so no item's error is taken for the end
                    end = StopIteration()
                except Exception as exc:
                    end = exc
                    try:  # one of a local class, say, does not come back
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        end = RuntimeError(f"{type(exc).__name__}: {exc}")
                pickle.dump(end, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(w)
    if pid is None:
        os.close(r)
        yield from items
        return
    try:
        pidfd = os.pidfd_open(pid)
    except (AttributeError, OSError):  # no pidfds on this system
        pidfd = None
    ended = False
    try:
        with open(r, "rb") as pipe:
            while True:
                try:
                    item = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # a short read
                    break
                if isinstance(item, StopIteration):
                    ended = True
                    return
                if isinstance(item, Exception):
                    raise item
                yield item
    finally:
        if not ended:
            # a worker that has exited takes the kill too; one that something
            # else in this process reaped, by a waitpid(-1) say, is gone
            with contextlib.suppress(ProcessLookupError):
                if pidfd is None:
                    os.kill(pid, signal.SIGKILL)
                else:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        if pidfd is not None:
            os.close(pidfd)
        try:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except ChildProcessError:
            code = "unknown"
    raise OSError(f"the batch stream's worker process {pid} ended early "
                  f"(exit code {code})")


def _other_cpus() -> set[int] | None:
    """The CPUs this thread may run on but the one it runs on now, or None
    where Linux's ``/proc`` does not tell. The worker is moved there: where
    it is forked, it can share its parent's CPU for good, on a host that
    does not balance load or that wakes the waiting parent on the worker's
    CPU."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            cpu = int(f.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except OSError:
        return None


class ConstantBatchStream:
    """Yields None forever, for batch-independent objectives."""

    def __init__(self):
        self.epoch = 0

    def __iter__(self):
        while True:
            yield None
