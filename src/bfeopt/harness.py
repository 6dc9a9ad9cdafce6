"""Experiment runner: builds a problem/optimizer pair from a run config,
executes a seeded deterministic run, writes CSV traces, and computes
summary statistics (threshold-crossing step, inner-loop histogram).
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import typing
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import __version__
from .baselines import AdamOptimizer, BaselineConfig, NesterovOptimizer, \
    SgdOptimizer
from .bfe_grad import AdaBfeOptimizer, BfeGradConfig, BfeGradOptimizer, DEG
from .bfe_loss import BfeLossConfig, BfeLossOptimizer
from .core import NonFiniteEvaluation, TraceRecord, rms_grad_norm
from .problems import BatchStream, ConstantBatchStream, LinRegSpec, \
    QuadraticObjective, gen_linear_data, linreg_objective, normalize, \
    quadratic_objective

OPTIMIZERS = ("bfe", "bfe-zoomin", "bfe-grad", "adabfe", "sgd", "nesterov",
              "adam")
PROBLEMS = ("linreg", "quadratic")
# allowed values of the RunConfig fields that name a choice, a policy
# field's from the enum of its part's default
CHOICES = {"optimizer": OPTIMIZERS, "problem": PROBLEMS} | {
    f.name: tuple(m.value for m in type(f.default))
    for part in (BfeLossConfig, BfeGradConfig)
    for f in dataclasses.fields(part) if isinstance(f.default, Enum)}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    optimizer: str = "bfe"
    problem: str = "linreg"
    batch_size: int = 512
    seed: int = LinRegSpec.seed
    max_steps: int = 1000
    # a field named as a part's field defaults to it, and _part passes it on
    # shared BFE knobs
    eta0: float = BfeLossConfig.eta0
    eps_ratio: float = BfeLossConfig.eps_ratio
    eps_val_policy: str = BfeLossConfig.eps_val_policy.value
    commit_policy: str = BfeLossConfig.commit_policy.value
    reset_policy: str = BfeLossConfig.reset_policy.value
    base: int = BfeLossConfig.base
    lim_zero: float = 0.001
    # gradient-angle knobs
    angle_threshold_deg: float = BfeGradConfig.angle_threshold / DEG
    threshold_mode: str = BfeGradConfig.threshold_mode.value
    zoom_out_exit: str = BfeGradConfig.zoom_out_exit.value
    pre_halve: bool = BfeGradConfig.pre_halve
    # baseline knobs
    beta: float = BaselineConfig.beta
    alpha: float = BaselineConfig.alpha
    # problem knobs
    w0: float = LinRegSpec.w0
    b0: float = LinRegSpec.b0
    noise_std: float = LinRegSpec.noise_std
    n_samples: int = LinRegSpec.n
    normalize: bool = False
    curvatures: tuple[float, ...] = (1.0,)
    theta0: tuple[float, ...] | None = None
    # reporting
    loss_threshold: float | None = None
    output_path: str | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _fits(value, FIELD_TYPES[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.lim_zero <= 0:
            raise ConfigError("lim_zero must be positive")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        # in radians, as the run reads it: 5e-324 degrees round to 0
        if not 0 < self.angle_threshold_deg * DEG < math.pi / 2:
            raise ConfigError("angle_threshold_deg must be in (0, 90)")
        # the parts that own every other range check it, for every run
        try:
            _part(BfeLossConfig, self)
            _part(BaselineConfig, self)
            _part(LinRegSpec, self, n=self.n_samples)
            QuadraticObjective(self.curvatures)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


FIELD_TYPES = typing.get_type_hints(RunConfig)


def _part(cls, cfg: RunConfig, **given):
    """A ``cls`` config whose fields take the values of ``cfg``'s fields of
    the same name; ``given`` sets those that no RunConfig field names."""
    return cls(**{f.name: getattr(cfg, f.name)
                  for f in dataclasses.fields(cls) if f.name in FIELD_TYPES},
               **given)


def field_type(hint):
    """The type a RunConfig annotation names, without its ``| None``."""
    args = typing.get_args(hint)
    if type(None) in args:
        return next(a for a in args if a is not type(None))
    return hint


def _is_finite_number(value) -> bool:
    """Whether ``value`` is an int or a float, not a bool, and a finite
    float: NaN, the infinities and an int beyond the floats are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _fits(value, hint) -> bool:
    """Whether ``value`` may be stored in a RunConfig field annotated
    ``hint``: an int fits a float field, a bool only a bool field, None only
    an optional field, and a tuple field holds one or more numbers. Every
    number of a float or tuple field is finite."""
    if value is None:
        return type(None) in typing.get_args(hint)
    kind = field_type(hint)
    if typing.get_origin(kind) is tuple:
        return (isinstance(value, tuple) and len(value) > 0
                and all(map(_is_finite_number, value)))
    if kind is float:
        return _is_finite_number(value)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


@dataclass(frozen=True)
class RunSummary:
    steps_to_threshold: int | None
    mean_inner_loops: float
    inner_loop_histogram: dict[int, int]
    final_loss: float
    # objective evaluations of the run, after the memo, and the steps whose
    # rate search ended at a cap; a trace file does not hold them, so a
    # summary of one leaves them None
    grad_evals: int | None = None
    loss_evals: int | None = None
    capped_steps: int | None = None


# the RunConfig fields build_problem reads to make the objective and the
# start point; the batch size only sets how the stream samples it
PROBLEM_FIELDS = ("problem", "seed", "w0", "b0", "noise_std", "n_samples",
                  "normalize", "curvatures", "theta0")


def start_point(cfg: RunConfig) -> tuple[float, ...]:
    """``cfg.theta0``, or the problem's default start when it is None; a
    ``theta0`` that does not hold the problem's dimension is a ConfigError."""
    dim = 2 if cfg.problem == "linreg" else len(cfg.curvatures)
    if cfg.theta0 is None:
        return (0.0 if cfg.problem == "linreg" else 1.0,) * dim
    if len(cfg.theta0) != dim:
        raise ConfigError(f"theta0 must hold {dim} values for {cfg.problem}")
    return cfg.theta0


def build_problem(cfg: RunConfig):
    """Returns (objective, theta0, batch_stream).

    theta0 is float64 whatever numbers the config holds, like every later
    point, so the run loop's memo keys all points by bytes of one dtype.
    """
    theta0 = np.array(start_point(cfg), dtype=float)
    if cfg.problem == "linreg":
        data = gen_linear_data(_part(LinRegSpec, cfg, n=cfg.n_samples))
        if cfg.normalize:
            data = normalize(data)
        obj = linreg_objective(data)
        stream = BatchStream(cfg.n_samples, cfg.batch_size, seed=cfg.seed,
                             on_batches=obj.load_batches,
                             limit=cfg.max_steps)
        return obj, theta0, stream
    obj = quadratic_objective(cfg.curvatures)
    return obj, theta0, ConstantBatchStream()


def build_optimizer(cfg: RunConfig, dim: int):
    if cfg.optimizer in ("bfe", "bfe-zoomin"):
        return BfeLossOptimizer(_part(
            BfeLossConfig, cfg, zoom_in_only=cfg.optimizer == "bfe-zoomin"))
    if cfg.optimizer in ("bfe-grad", "adabfe"):
        gcfg = _part(BfeGradConfig, cfg,
                     angle_threshold=cfg.angle_threshold_deg * DEG)
        if cfg.optimizer == "adabfe":
            return AdaBfeOptimizer(gcfg, dim)
        return BfeGradOptimizer(gcfg)
    baseline = _part(BaselineConfig, cfg)
    if cfg.optimizer == "sgd":
        return SgdOptimizer(baseline)
    if cfg.optimizer == "nesterov":
        return NesterovOptimizer(baseline, dim)
    return AdamOptimizer(baseline, dim)


class EvalMemo:
    """The objective as the run loop hands it out: each point is evaluated
    once per batch.

    ``loss`` and ``grad`` calls on the current step's batch are kept, keyed
    on ``theta.tobytes()``, and a repeated call returns the value computed
    before, so every result is bitwise the objective's own. Calls on any
    other batch, such as a mini-batch run's full-dataset loss, pass straight
    through. ``begin`` starts a step: a new batch object clears the memo,
    and the same one (the ``None`` of a batch-independent problem) keeps
    the entries at the new step's point and the losses the step that just
    ended took, where the next step's probes may land. A cached gradient
    is read-only: a caller that writes into it fails instead of changing
    what later calls get. ``loss_evals`` and ``grad_evals`` count the calls
    that reached the objective.
    """

    def __init__(self, obj):
        self.obj = obj
        self.batch = None
        self.losses: dict[bytes, float] = {}
        self.grads: dict[bytes, np.ndarray] = {}
        self._older = 0  # losses taken before the current step
        self.loss_evals = 0
        self.grad_evals = 0

    def begin(self, batch, theta: np.ndarray) -> None:
        if batch is not self.batch:
            self.batch, self.losses, self.grads = batch, {}, {}
        else:
            key, last = theta.tobytes(), self.losses
            self.losses = dict(list(last.items())[self._older:])
            if key in last:
                self.losses[key] = last[key]
            self.grads = {key: self.grads[key]} if key in self.grads else {}
        self._older = len(self.losses)

    def loss(self, theta: np.ndarray, batch=None) -> float:
        if batch is not self.batch:
            self.loss_evals += 1
            return self.obj.loss(theta, batch)
        key = theta.tobytes()
        value = self.losses.get(key)
        if value is None:
            self.loss_evals += 1
            value = self.losses[key] = self.obj.loss(theta, batch)
        return value

    def grad(self, theta: np.ndarray, batch=None) -> np.ndarray:
        if batch is not self.batch:
            self.grad_evals += 1
            return self.obj.grad(theta, batch)
        key = theta.tobytes()
        g = self.grads.get(key)
        if g is None:
            self.grad_evals += 1
            g = self.grads[key] = self.obj.grad(theta, batch)
            g.setflags(write=False)
        return g


def run_experiment(cfg: RunConfig) -> RunSummary:
    """The run loop: every objective call goes through one ``EvalMemo``, so
    the gradient at theta that the stop check takes on the step's batch is
    the one the optimizer step asks for, at no second evaluation. Each trace
    row is formatted and written as its step ends, while the batch worker
    draws ahead, so the run holds no step but its last: the trace is in
    ``cfg.output_path`` alone, and the summary is taken as the steps go."""
    path = cfg.output_path
    _check_output_path(path)
    raw, theta, stream = build_problem(cfg)
    obj = EvalMemo(raw)
    opt = build_optimizer(cfg, dim=theta.size)
    tally = _Tally(cfg.loss_threshold)
    capped = 0

    def steps():
        nonlocal theta, capped
        batches = iter(stream)
        try:
            for t in range(1, cfg.max_steps + 1):
                batch = next(batches)
                obj.begin(batch, theta)
                g = obj.grad(theta, batch)
                gnorm = rms_grad_norm(g)
                if gnorm < cfg.lim_zero:
                    break
                try:
                    out = opt.step(obj, theta, batch, epoch=stream.epoch)
                    theta = out.theta_next
                    # when batch is None, the second call is the memo's
                    full_loss = obj.loss(theta, None)
                    batch_loss = obj.loss(theta, batch)
                    if not (math.isfinite(full_loss)
                            and math.isfinite(batch_loss)):
                        last = tally.last
                        raise _diverged(full_loss, batch_loss, out.eta_next,
                                        last.full_loss if last else None)
                except NonFiniteEvaluation as exc:
                    exc.step = t
                    raise
                capped += out.capped
                rec = TraceRecord(t, batch_loss, full_loss, out.eta_next,
                                  out.inner_loops, gnorm)
                tally.add(rec)
                yield rec
        finally:
            # ends the stream's worker process, on every way out of the loop
            batches.close()

    records = steps()
    try:
        if path is None:
            deque(records, maxlen=0)
        else:
            write_trace(path, map(_TRACE_ROW, records), cfg)
    finally:
        records.close()  # a write that failed leaves the loop suspended
    if tally.last is None:  # the start met the stop check: a run of no steps
        loss = obj.loss(theta, None)
        met = cfg.loss_threshold is not None and loss <= cfg.loss_threshold
        summary = RunSummary(0 if met else None, 0.0, {}, loss)
    else:
        summary = tally.summary()
    return dataclasses.replace(summary, grad_evals=obj.grad_evals,
                               loss_evals=obj.loss_evals,
                               capped_steps=capped)


def _check_output_path(path: str | None, name: str = "output_path") -> None:
    """Raises ConfigError, naming ``path`` by ``name``, unless it is None
    (unset) or names a file in an existing directory; it leaves the file
    alone."""
    if path == "":
        raise ConfigError(f"{name} '' names no file")
    if path and os.path.isdir(path):
        raise ConfigError(f"{name} {path!r} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise ConfigError(f"{name} {path!r} is in no existing directory")


def _diverged(full_loss: float, batch_loss: float, eta: float,
              last: float | None) -> NonFiniteEvaluation:
    """The failure of a step whose committed point has a non-finite loss,
    with its rate and ``last``, the last finite full loss of the run."""
    exc = NonFiniteEvaluation(
        f"non-finite loss at the committed point (full {full_loss!r}, "
        f"batch {batch_loss!r}) at rate {eta!r}; last finite full loss "
        f"{last!r}", eta=eta)
    exc.last_finite_loss = last
    return exc


class _Tally:
    """What a summary reads of a run's records, taken one record at a time:
    the last, the first step at or below the loss threshold, and the number
    of steps of each inner-loop count."""

    def __init__(self, loss_threshold: float | None):
        if not _fits(loss_threshold, FIELD_TYPES["loss_threshold"]):
            raise ConfigError(f"loss_threshold must be float | None, not "
                              f"{loss_threshold!r}")
        self.loss_threshold = loss_threshold
        self.last: TraceRecord | None = None
        self.first: int | None = None
        self.counts: Counter = Counter()

    def add(self, rec: TraceRecord) -> None:
        self.last = rec
        self.counts[rec.inner_loops] += 1
        if (self.first is None and self.loss_threshold is not None
                and rec.full_loss <= self.loss_threshold):
            self.first = rec.step

    def summary(self) -> RunSummary:
        if self.last is None:
            raise ValueError("empty trace")
        loops = sum(k * n for k, n in self.counts.items())
        return RunSummary(steps_to_threshold=self.first,
                          mean_inner_loops=loops / self.counts.total(),
                          inner_loop_histogram=dict(self.counts),
                          final_loss=self.last.full_loss)


def summarize(records: typing.Iterable[TraceRecord],
              loss_threshold: float | None) -> RunSummary:
    """The summary of ``records``, taken in one pass as a run takes its own;
    no record raises ValueError."""
    tally = _Tally(loss_threshold)
    for rec in records:
        tally.add(rec)
    return tally.summary()


def compare_runs(cfgs: list[RunConfig], loss_threshold: float,
                 out: str | None = None) -> tuple[list[dict], str]:
    """Run each config at ``loss_threshold``, which none may set itself, and
    tabulate threshold crossings and speedup ratios; the table is also
    written to ``out``, if given."""
    if len(cfgs) < 2:
        raise ConfigError("compare needs at least 2 configs")
    # a default start point equals the same point given explicitly
    resolved = [dataclasses.replace(cfg, theta0=start_point(cfg))
                for cfg in cfgs]
    for name in PROBLEM_FIELDS:
        values = [getattr(cfg, name) for cfg in resolved]
        if any(v != values[0] for v in values):
            raise ConfigError(f"compared runs must share the problem, but "
                              f"their {name} values are {values!r}")
    # every trace path, and the table's, is checked before the first run
    for i, cfg in enumerate(cfgs):
        if cfg.loss_threshold is not None:
            raise ConfigError(f"configs[{i}] sets loss_threshold "
                              f"{cfg.loss_threshold!r}, but compared runs "
                              f"share the one threshold compare is given")
        _check_output_path(cfg.output_path)
    _check_output_path(out, "out")
    paths = [path for path in (*(c.output_path for c in cfgs), out) if path]
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise ConfigError(f"compared runs must write different output_path "
                          f"files, and the table another, not {paths!r}")
    rows = []
    for cfg in cfgs:
        cfg = dataclasses.replace(cfg, loss_threshold=loss_threshold)
        summary = run_experiment(cfg)
        rows.append({"optimizer": cfg.optimizer,
                     "steps_to_threshold": summary.steps_to_threshold,
                     "final_loss": summary.final_loss})
    lines = ["optimizer,steps_to_threshold,final_loss"]
    for row in rows:
        steps = row["steps_to_threshold"]
        lines.append(f"{row['optimizer']},{steps if steps is not None else 'none'},"
                     f"{row['final_loss']:.17g}")
    lines.append("pair,speedup_ratio")
    for a, b in itertools.combinations(rows, 2):
        sa, sb = a["steps_to_threshold"], b["steps_to_threshold"]
        # a run that met the threshold at its start, in 0 steps, gives none
        ratio = "none" if sa is None or not sb else f"{sa / sb:.17g}"
        lines.append(f"{a['optimizer']}/{b['optimizer']},{ratio}")
    table = "\n".join(lines) + "\n"
    if out is not None:
        _write_whole(out, [table])
    return rows, table


TRACE_HEADER = "step,batch_loss,full_loss,eta,inner_loops,grad_norm"
# one trace row from a TraceRecord, a tuple of the fields in order
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%d,%.17g\n".__mod__
_TRACE_TYPES = (int, float, float, float, int, float)  # one per column
# the end of the name of a file being written, until it replaces its target
PARTIAL_SUFFIX = ".partial"


def _config_json(cfg: RunConfig) -> str:
    # shallow: asdict would deep-copy the curvature and theta0 tuples
    d = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    # the file location is not part of the run; identical runs written to
    # different paths must produce byte-identical traces
    del d["output_path"]
    return json.dumps(d, sort_keys=True)


def write_trace(path: str, rows: typing.Iterable[str], cfg: RunConfig) -> None:
    """The header lines, then ``rows``, each ``_TRACE_ROW`` of a record,
    written as they come: ``path`` then holds the whole trace, or, when
    anything raises on the way, such as the loop that makes ``rows``, is
    left as it was."""
    _write_whole(path, itertools.chain(
        (f"# bfeopt_version={__version__}\n", f"# seed={cfg.seed}\n",
         f"# config={_config_json(cfg)}\n", TRACE_HEADER + "\n"), rows))


def _write_whole(path: str, chunks: typing.Iterable[str]) -> None:
    """Writes ``chunks`` to the file ``path`` names, which then holds all of
    them or is left as it was. They go, as they come, into a partial file
    beside the file ``path`` resolves to, which is created first and
    replaces that file after the last chunk, and which an exception on the
    way deletes. A device or a pipe, such as ``/dev/null``, is written in
    place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", newline="\n") as f:
            f.writelines(chunks)
        return
    partial = os.path.join(os.path.dirname(target),
                           f".bfeopt-{os.urandom(4).hex()}{PARTIAL_SUFFIX}")
    try:
        f = open(partial, "x", newline="\n")
    except OSError as exc:  # named as the caller named it
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with f:
            f.writelines(chunks)
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


def read_trace(path: str) -> tuple[dict, list[TraceRecord]]:
    """Read a trace file; a malformed row, or one with a loss that is not
    finite, raises ValueError naming its line."""
    meta: dict = {}
    trace: list[TraceRecord] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
                continue
            if line == TRACE_HEADER or not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != len(_TRACE_TYPES):
                    raise ValueError(f"{len(parts)} fields, expected "
                                     f"{len(_TRACE_TYPES)}")
                record = TraceRecord(*(convert(part) for convert, part
                                       in zip(_TRACE_TYPES, parts)))
                # a run fails the step whose loss is not finite
                if not (math.isfinite(record.batch_loss)
                        and math.isfinite(record.full_loss)):
                    raise ValueError("batch_loss or full_loss not finite")
                trace.append(record)
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: bad trace row "
                                 f"{line!r} ({exc})") from None
    return meta, trace
