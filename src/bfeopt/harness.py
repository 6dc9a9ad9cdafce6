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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import __version__
from .baselines import AdamOptimizer, BaselineConfig, NesterovOptimizer, \
    SgdOptimizer
from .bfe_grad import AdaBfeOptimizer, BfeGradConfig, BfeGradOptimizer, \
    ThresholdMode, ZoomOutExit, DEG
from .bfe_loss import BfeLossConfig, BfeLossOptimizer, CommitPolicy, \
    ResetPolicy
from .core import NonFiniteEvaluation, ThresholdPolicy, TraceRecord, \
    rms_grad_norm
from .problems import BatchStream, ConstantBatchStream, LinRegSpec, \
    QuadraticObjective, gen_linear_data, linreg_objective, normalize, \
    quadratic_objective

OPTIMIZERS = ("bfe", "bfe-zoomin", "bfe-grad", "adabfe", "sgd", "nesterov",
              "adam")
PROBLEMS = ("linreg", "quadratic")
# allowed values of the RunConfig fields that name a choice
CHOICES = {
    "optimizer": OPTIMIZERS,
    "problem": PROBLEMS,
    "eps_val_policy": tuple(p.value for p in ThresholdPolicy),
    "commit_policy": tuple(p.value for p in CommitPolicy),
    "reset_policy": tuple(p.value for p in ResetPolicy),
    "threshold_mode": tuple(m.value for m in ThresholdMode),
    "zoom_out_exit": tuple(e.value for e in ZoomOutExit),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    optimizer: str = "bfe"
    problem: str = "linreg"
    batch_size: int = 512
    seed: int = 0
    max_steps: int = 1000
    # shared BFE knobs
    eta0: float = 0.001
    eps_ratio: float = 0.001
    eps_val_policy: str = ThresholdPolicy.MEAN_SCALED.value
    commit_policy: str = CommitPolicy.HALF_STEP.value
    reset_policy: str = ResetPolicy.DOUBLE_PREV_ETA.value
    base: int = 2
    lim_zero: float = 0.001
    # gradient-angle knobs
    angle_threshold_deg: float = 1.0
    threshold_mode: str = ThresholdMode.ABSOLUTE.value
    zoom_out_exit: str = ZoomOutExit.HALVE_COMMIT_TRIAL.value
    pre_halve: bool = False
    # baseline knobs
    beta: float = 0.9
    alpha: float = 0.001
    # problem knobs
    w0: float = 5.0
    b0: float = 9.0
    noise_std: float = 1.0
    n_samples: int = 10000
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
            BfeLossConfig(self.eta0, self.base, self.eps_ratio)
            BfeGradConfig(angle_threshold=self.angle_threshold_deg * DEG)
            BaselineConfig(self.alpha, self.beta)
            LinRegSpec(noise_std=self.noise_std, n=self.n_samples,
                       seed=self.seed)
            QuadraticObjective(self.curvatures)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


FIELD_TYPES = typing.get_type_hints(RunConfig)


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
        data = gen_linear_data(LinRegSpec(w0=cfg.w0, b0=cfg.b0,
                                          noise_std=cfg.noise_std,
                                          n=cfg.n_samples, seed=cfg.seed))
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
    lattice = dict(eta0=cfg.eta0, base=cfg.base)
    if cfg.optimizer in ("bfe", "bfe-zoomin"):
        return BfeLossOptimizer(BfeLossConfig(
            **lattice, eps_ratio=cfg.eps_ratio,
            eps_val_policy=ThresholdPolicy(cfg.eps_val_policy),
            commit_policy=CommitPolicy(cfg.commit_policy),
            zoom_in_only=(cfg.optimizer == "bfe-zoomin"),
            reset_policy=ResetPolicy(cfg.reset_policy)))
    if cfg.optimizer in ("bfe-grad", "adabfe"):
        gcfg = BfeGradConfig(
            **lattice, angle_threshold=cfg.angle_threshold_deg * DEG,
            threshold_mode=ThresholdMode(cfg.threshold_mode),
            zoom_out_exit=ZoomOutExit(cfg.zoom_out_exit),
            pre_halve=cfg.pre_halve)
        if cfg.optimizer == "adabfe":
            return AdaBfeOptimizer(gcfg, dim)
        return BfeGradOptimizer(gcfg)
    baseline = BaselineConfig(cfg.alpha, cfg.beta)
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


def run_experiment(cfg: RunConfig) -> tuple[list[TraceRecord], RunSummary]:
    """The run loop: every objective call goes through one ``EvalMemo``, so
    the gradient at theta that the stop check takes on the step's batch is
    the one the optimizer step asks for, at no second evaluation. Each trace
    row is formatted as its step ends, while the batch worker draws ahead."""
    path = cfg.output_path
    _check_output_path(path)
    raw, theta, stream = build_problem(cfg)
    obj = EvalMemo(raw)
    opt = build_optimizer(cfg, dim=theta.size)
    trace: list[TraceRecord] = []
    rows: list[str] | None = [] if path else None
    capped = 0
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
                    raise _diverged(full_loss, batch_loss, out.eta_next,
                                    trace)
            except NonFiniteEvaluation as exc:
                exc.step = t
                raise
            capped += out.capped
            trace.append(TraceRecord(t, batch_loss, full_loss, out.eta_next,
                                     out.inner_loops, gnorm))
            if rows is not None:
                rows.append(_TRACE_ROW(trace[-1]))
    finally:
        # ends the stream's worker process, on every way out of the loop
        batches.close()
    if trace:
        summary = summarize(trace, cfg.loss_threshold)
    else:  # the start met the stop check: a run of no steps
        loss = obj.loss(theta, None)
        met = cfg.loss_threshold is not None and loss <= cfg.loss_threshold
        summary = RunSummary(0 if met else None, 0.0, {}, loss)
    summary = dataclasses.replace(summary, grad_evals=obj.grad_evals,
                                  loss_evals=obj.loss_evals,
                                  capped_steps=capped)
    if rows is not None:
        write_trace(path, rows, cfg)
    return trace, summary


def _check_output_path(path: str | None) -> None:
    """Raises ConfigError unless ``path`` is unset or names a file in an
    existing directory; it leaves the file alone."""
    if path and os.path.isdir(path):
        raise ConfigError(f"output_path {path!r} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise ConfigError(f"output_path {path!r} is in no existing directory")


def _diverged(full_loss: float, batch_loss: float, eta: float,
              trace: list[TraceRecord]) -> NonFiniteEvaluation:
    """The failure of a step whose committed point has a non-finite loss,
    with its rate and the last finite full loss of the run."""
    last = trace[-1].full_loss if trace else None
    exc = NonFiniteEvaluation(
        f"non-finite loss at the committed point (full {full_loss!r}, "
        f"batch {batch_loss!r}) at rate {eta!r}; last finite full loss "
        f"{last!r}", eta=eta)
    exc.last_finite_loss = last
    return exc


def summarize(trace: list[TraceRecord],
              loss_threshold: float | None) -> RunSummary:
    if not _fits(loss_threshold, FIELD_TYPES["loss_threshold"]):
        raise ConfigError(f"loss_threshold must be float | None, not "
                          f"{loss_threshold!r}")
    if not trace:
        raise ValueError("empty trace")
    steps = None
    if loss_threshold is not None:  # the first step at or below it
        steps = next((rec.step for rec in trace
                      if rec.full_loss <= loss_threshold), None)
    counts = [rec.inner_loops for rec in trace]
    return RunSummary(steps_to_threshold=steps,
                      mean_inner_loops=float(np.mean(counts)),
                      inner_loop_histogram=dict(Counter(counts)),
                      final_loss=trace[-1].full_loss)


def compare_runs(cfgs: list[RunConfig],
                 loss_threshold: float) -> tuple[list[dict], str]:
    """Run each config and tabulate threshold crossings and speedup ratios."""
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
    # every trace path is checked before the first run writes one
    paths = [cfg.output_path for cfg in cfgs if cfg.output_path]
    for path in paths:
        _check_output_path(path)
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise ConfigError(f"compared runs must write different output_path "
                          f"files, not {paths!r}")
    rows = []
    for cfg in cfgs:
        cfg = dataclasses.replace(cfg, loss_threshold=loss_threshold)
        _, summary = run_experiment(cfg)
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
    return rows, "\n".join(lines) + "\n"


TRACE_HEADER = "step,batch_loss,full_loss,eta,inner_loops,grad_norm"
# one trace row from a TraceRecord, a tuple of the fields in order
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%d,%.17g\n".__mod__
_TRACE_TYPES = (int, float, float, float, int, float)  # one per column


def _config_json(cfg: RunConfig) -> str:
    # shallow: asdict would deep-copy the curvature and theta0 tuples
    d = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    # the file location is not part of the run; identical runs written to
    # different paths must produce byte-identical traces
    del d["output_path"]
    return json.dumps(d, sort_keys=True)


def write_trace(path: str, rows: typing.Iterable[str], cfg: RunConfig) -> None:
    """The header lines, then ``rows``, each ``_TRACE_ROW`` of a record."""
    with open(path, "w", newline="\n") as f:
        f.write(f"# bfeopt_version={__version__}\n")
        f.write(f"# seed={cfg.seed}\n")
        f.write(f"# config={_config_json(cfg)}\n")
        f.write(TRACE_HEADER + "\n")
        f.writelines(rows)


def read_trace(path: str) -> tuple[dict, list[TraceRecord]]:
    """Read a trace file; a malformed row raises ValueError naming its line."""
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
                trace.append(TraceRecord(*(convert(part) for convert, part
                                           in zip(_TRACE_TYPES, parts))))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: bad trace row "
                                 f"{line!r} ({exc})") from None
    return meta, trace
