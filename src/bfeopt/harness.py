"""Experiment runner: builds a problem/optimizer pair from a run config,
executes a seeded deterministic run, writes CSV traces, and computes
summary statistics (threshold-crossing step, inner-loop histogram).
"""
from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .baselines import AdamOptimizer, NesterovOptimizer, SgdOptimizer
from .bfe_grad import AdaBfeOptimizer, BfeGradConfig, BfeGradOptimizer, \
    ThresholdMode, ZoomOutExit, DEG
from .bfe_loss import BfeLossConfig, BfeLossOptimizer, CommitPolicy, \
    ResetPolicy
from .core import CriterionState, NonFiniteEvaluation, NonTermination, \
    ThresholdPolicy, TraceRecord, rms_grad_norm
from .problems import BatchStream, ConstantBatchStream, LinRegSpec, \
    gen_linear_data, linreg_objective, normalize, quadratic_objective

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
    max_inner: int = 60
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
        if self.lim_zero <= 0:
            raise ConfigError("lim_zero must be positive")


FIELD_TYPES = typing.get_type_hints(RunConfig)


def field_type(hint):
    """The type a RunConfig annotation names, without its ``| None``."""
    args = typing.get_args(hint)
    if type(None) in args:
        return next(a for a in args if a is not type(None))
    return hint


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fits(value, hint) -> bool:
    """Whether ``value`` may be stored in a RunConfig field annotated
    ``hint``: an int fits a float field, a bool only a bool field, None only
    an optional field, and a tuple field holds one or more numbers."""
    if value is None:
        return type(None) in typing.get_args(hint)
    kind = field_type(hint)
    if typing.get_origin(kind) is tuple:
        return (isinstance(value, tuple) and len(value) > 0
                and all(map(_is_number, value)))
    if kind is float:
        return _is_number(value)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


@dataclass(frozen=True)
class RunSummary:
    steps_to_threshold: int | None
    mean_inner_loops: float
    inner_loop_histogram: dict[int, int]
    final_loss: float
    # objective evaluations of the run, after the memo; a trace file does
    # not hold them, so a summary of one leaves them None
    grad_evals: int | None = None
    loss_evals: int | None = None


def build_problem(cfg: RunConfig):
    """Returns (objective, theta0, batch_stream, full_data).

    theta0 is float64 whatever numbers the config holds, like every later
    point, so the run loop's memo keys all points by bytes of one dtype.
    """
    if cfg.problem == "linreg":
        data = gen_linear_data(LinRegSpec(w0=cfg.w0, b0=cfg.b0,
                                          noise_std=cfg.noise_std,
                                          n=cfg.n_samples, seed=cfg.seed))
        if cfg.normalize:
            data = normalize(data)
        obj = linreg_objective(data)
        theta0 = np.array(cfg.theta0 if cfg.theta0 is not None else (0.0, 0.0),
                          dtype=float)
        stream = BatchStream(cfg.n_samples, cfg.batch_size, seed=cfg.seed)
        return obj, theta0, stream, data
    obj = quadratic_objective(cfg.curvatures)
    dim = len(cfg.curvatures)
    theta0 = np.array(cfg.theta0 if cfg.theta0 is not None
                      else (1.0,) * dim, dtype=float)
    if len(theta0) != dim:
        raise ConfigError("theta0 dimension must match curvatures")
    return obj, theta0, ConstantBatchStream(), None


def build_optimizer(cfg: RunConfig, dim: int):
    crit = CriterionState(eps_ratio=cfg.eps_ratio,
                          policy=ThresholdPolicy(cfg.eps_val_policy))
    if cfg.optimizer in ("bfe", "bfe-zoomin"):
        return BfeLossOptimizer(BfeLossConfig(
            eta0=cfg.eta0, crit=crit, base=cfg.base,
            commit_policy=CommitPolicy(cfg.commit_policy),
            max_inner=cfg.max_inner,
            zoom_in_only=(cfg.optimizer == "bfe-zoomin"),
            reset_policy=ResetPolicy(cfg.reset_policy)))
    if cfg.optimizer in ("bfe-grad", "adabfe"):
        gcfg = BfeGradConfig(
            eta0=cfg.eta0, angle_threshold=cfg.angle_threshold_deg * DEG,
            threshold_mode=ThresholdMode(cfg.threshold_mode), base=cfg.base,
            zoom_out_exit=ZoomOutExit(cfg.zoom_out_exit),
            pre_halve=cfg.pre_halve, max_inner=cfg.max_inner)
        if cfg.optimizer == "adabfe":
            return AdaBfeOptimizer(gcfg, dim)
        return BfeGradOptimizer(gcfg)
    if cfg.optimizer == "sgd":
        return SgdOptimizer(alpha=cfg.alpha)
    if cfg.optimizer == "nesterov":
        return NesterovOptimizer(dim, alpha=cfg.alpha, beta=cfg.beta)
    return AdamOptimizer(dim, alpha=cfg.alpha)


class EvalMemo:
    """The objective as the run loop hands it out: each point is evaluated
    once per batch.

    ``loss`` and ``grad`` calls on the current step's batch are kept, keyed
    on ``theta.tobytes()``, and a repeated call returns the value computed
    before, so every result is bitwise the objective's own. Calls on any
    other batch, such as a mini-batch run's full-dataset loss, pass straight
    through. ``begin`` starts a step: a new batch object clears the memo,
    and the same one (the ``None`` of a batch-independent problem) keeps
    only the entries at the step's point, where the last step's probes may
    have taken the stop check's gradient already. A cached gradient is read-only: a caller that writes into
    it fails instead of changing what later calls get. ``loss_evals`` and
    ``grad_evals`` count the calls that reached the objective.
    """

    def __init__(self, obj):
        self.obj = obj
        self.batch = None
        self.losses: dict[bytes, float] = {}
        self.grads: dict[bytes, np.ndarray] = {}
        self.loss_evals = 0
        self.grad_evals = 0

    def begin(self, batch, theta: np.ndarray) -> None:
        if batch is self.batch:
            key = theta.tobytes()
            self.losses = {key: self.losses[key]} if key in self.losses else {}
            self.grads = {key: self.grads[key]} if key in self.grads else {}
        else:
            self.batch = batch
            self.losses, self.grads = {}, {}

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
    """The run loop: per step, one gradient at theta on the step's batch
    serves both the stop check and the optimizer step, and every objective
    call goes through one ``EvalMemo``."""
    raw, theta, stream, _ = build_problem(cfg)
    obj = EvalMemo(raw)
    opt = build_optimizer(cfg, dim=theta.size)
    trace: list[TraceRecord] = []
    batches = iter(stream)
    for t in range(1, cfg.max_steps + 1):
        batch = next(batches)
        obj.begin(batch, theta)
        g = obj.grad(theta, batch)
        gnorm = rms_grad_norm(g)
        if gnorm < cfg.lim_zero:
            break
        try:
            out = opt.step(obj, theta, batch, g0=g, epoch=stream.epoch)
            theta = out.theta_next
            # when batch is None, the second call is the memo's
            full_loss = obj.loss(theta, None)
            batch_loss = obj.loss(theta, batch)
            if not (math.isfinite(full_loss) and math.isfinite(batch_loss)):
                raise _diverged(full_loss, batch_loss, out.eta_next, trace)
        except (NonFiniteEvaluation, NonTermination) as exc:
            exc.step = t
            raise
        trace.append(TraceRecord(step=t, batch_loss=batch_loss,
                                 full_loss=full_loss, eta=out.eta_next,
                                 inner_loops=out.inner_loops, grad_norm=gnorm))
    summary = dataclasses.replace(summarize(trace, cfg.loss_threshold),
                                  grad_evals=obj.grad_evals,
                                  loss_evals=obj.loss_evals)
    if cfg.output_path:
        write_trace(cfg.output_path, trace, cfg)
    return trace, summary


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
    if not trace:
        raise ValueError("empty trace")
    steps = None
    if loss_threshold is not None:
        for rec in trace:
            if rec.full_loss <= loss_threshold:
                steps = rec.step
                break
    counts = [rec.inner_loops for rec in trace]
    hist: dict[int, int] = {}
    for c in counts:
        hist[c] = hist.get(c, 0) + 1
    return RunSummary(steps_to_threshold=steps,
                      mean_inner_loops=float(np.mean(counts)),
                      inner_loop_histogram=hist,
                      final_loss=trace[-1].full_loss)


def compare_runs(cfgs: list[RunConfig],
                 loss_threshold: float) -> tuple[list[dict], str]:
    """Run each config and tabulate threshold crossings and speedup ratios."""
    if len(cfgs) < 2:
        raise ConfigError("compare needs at least 2 configs")
    key = (cfgs[0].problem, cfgs[0].seed, cfgs[0].w0, cfgs[0].b0,
           cfgs[0].noise_std, cfgs[0].n_samples, cfgs[0].normalize)
    for cfg in cfgs[1:]:
        if (cfg.problem, cfg.seed, cfg.w0, cfg.b0, cfg.noise_std,
                cfg.n_samples, cfg.normalize) != key:
            raise ConfigError("compared runs must share problem and seed")
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
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            sa, sb = a["steps_to_threshold"], b["steps_to_threshold"]
            ratio = "none" if (sa is None or sb is None) else f"{sa / sb:.17g}"
            lines.append(f"{a['optimizer']}/{b['optimizer']},{ratio}")
    return rows, "\n".join(lines) + "\n"


TRACE_HEADER = "step,batch_loss,full_loss,eta,inner_loops,grad_norm"
_TRACE_TYPES = (int, float, float, float, int, float)  # one per column


def _config_json(cfg: RunConfig) -> str:
    d = dataclasses.asdict(cfg)
    # the file location is not part of the run; identical runs written to
    # different paths must produce byte-identical traces
    d.pop("output_path", None)
    return json.dumps(d, sort_keys=True)


def write_trace(path: str, trace: list[TraceRecord], cfg: RunConfig) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(f"# bfeopt_version={__version__}\n")
        f.write(f"# seed={cfg.seed}\n")
        f.write(f"# config={_config_json(cfg)}\n")
        f.write(TRACE_HEADER + "\n")
        for r in trace:
            f.write(f"{r.step},{r.batch_loss:.17g},{r.full_loss:.17g},"
                    f"{r.eta:.17g},{r.inner_loops},{r.grad_norm:.17g}\n")


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
