"""Experiment runner: builds a problem/optimizer pair from a run config,
executes a seeded deterministic run, writes CSV traces, and computes
summary statistics (threshold-crossing step, inner-loop histogram).
"""
from __future__ import annotations

import dataclasses
import json
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
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lim_zero <= 0:
            raise ConfigError("lim_zero must be positive")


@dataclass(frozen=True)
class RunSummary:
    steps_to_threshold: int | None
    mean_inner_loops: float
    inner_loop_histogram: dict[int, int]
    final_loss: float


def build_problem(cfg: RunConfig):
    """Returns (objective, theta0, batch_stream, full_data)."""
    if cfg.problem == "linreg":
        data = gen_linear_data(LinRegSpec(w0=cfg.w0, b0=cfg.b0,
                                          noise_std=cfg.noise_std,
                                          n=cfg.n_samples, seed=cfg.seed))
        if cfg.normalize:
            data = normalize(data)
        obj = linreg_objective(data)
        theta0 = np.array(cfg.theta0 if cfg.theta0 is not None else (0.0, 0.0))
        stream = BatchStream(cfg.n_samples, cfg.batch_size, seed=cfg.seed)
        return obj, theta0, stream, data
    obj = quadratic_objective(cfg.curvatures)
    dim = len(cfg.curvatures)
    theta0 = np.array(cfg.theta0 if cfg.theta0 is not None
                      else (1.0,) * dim)
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


def run_experiment(cfg: RunConfig) -> tuple[list[TraceRecord], RunSummary]:
    """The run loop: per step, one gradient at theta on the step's batch
    serves both the stop check and the optimizer step."""
    obj, theta, stream, _ = build_problem(cfg)
    opt = build_optimizer(cfg, dim=theta.size)
    trace: list[TraceRecord] = []
    batches = iter(stream)
    for t in range(1, cfg.max_steps + 1):
        batch = next(batches)
        g = obj.grad(theta, batch)
        gnorm = rms_grad_norm(g)
        if gnorm < cfg.lim_zero:
            break
        try:
            out = opt.step(obj, theta, batch, g0=g, epoch=stream.epoch)
        except (NonFiniteEvaluation, NonTermination) as exc:
            exc.step = t
            raise
        theta = out.theta_next
        trace.append(TraceRecord(step=t, batch_loss=obj.loss(theta, batch),
                                 full_loss=obj.loss(theta, None),
                                 eta=out.eta_next,
                                 inner_loops=out.inner_loops, grad_norm=gnorm))
    summary = summarize(trace, cfg.loss_threshold)
    if cfg.output_path:
        write_trace(cfg.output_path, trace, cfg)
    return trace, summary


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
