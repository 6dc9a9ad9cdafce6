import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bfeopt import __version__, harness
from bfeopt.baselines import BaselineConfig
from bfeopt.bfe_grad import BfeGradConfig
from bfeopt.bfe_loss import BfeLossConfig
from bfeopt.core import NonFiniteEvaluation, TraceRecord
from bfeopt.harness import (
    OPTIMIZERS,
    ConfigError,
    RunConfig,
    build_optimizer,
    compare_runs,
    read_trace,
    run_experiment,
    summarize,
    write_trace,
)
from bfeopt.problems import LinRegSpec, gen_linear_data, linreg_objective, \
    normalize


def test_sgd_on_quadratic_is_geometric():
    cfg = RunConfig(optimizer="sgd", problem="quadratic", alpha=0.1,
                    curvatures=(1.0,), theta0=(1.0,), max_steps=30,
                    lim_zero=1e-12)
    trace, _ = run_experiment(cfg)
    for rec in trace:
        assert rec.full_loss == pytest.approx(0.5 * 0.9 ** (2 * rec.step),
                                              rel=1e-12)


def test_run_experiment_deterministic():
    cfg = RunConfig(optimizer="bfe", max_steps=50, seed=42)
    t1, s1 = run_experiment(cfg)
    t2, s2 = run_experiment(cfg)
    assert t1 == t2
    assert s1 == s2


def test_full_loss_matches_independent_reevaluation():
    cfg = RunConfig(optimizer="bfe", max_steps=20, seed=1, batch_size=128,
                    n_samples=1000)
    trace, _ = run_experiment(cfg)
    # replay the run to recover committed parameters, then spot-check
    from bfeopt.harness import build_optimizer, build_problem
    obj, theta, stream = build_problem(cfg)
    opt = build_optimizer(cfg, 2)
    batches = iter(stream)
    full = linreg_objective(gen_linear_data(LinRegSpec(
        w0=cfg.w0, b0=cfg.b0, noise_std=cfg.noise_std, n=cfg.n_samples,
        seed=cfg.seed)))
    for rec in trace:
        batch = next(batches)
        out = opt.step(obj, theta, batch)
        theta = out.theta_next
        expected = full.loss(theta, None)
        assert rec.full_loss == expected


def test_summarize_examples():
    recs = [TraceRecord(step=i + 1, batch_loss=loss, full_loss=loss,
                        eta=0.001, inner_loops=inner, grad_norm=1.0)
            for i, (loss, inner) in enumerate(zip([5.0, 3.0, 1.0], [1, 2, 3]))]
    s = summarize(recs, loss_threshold=2.0)
    assert s.mean_inner_loops == 2.0
    assert s.inner_loop_histogram == {1: 1, 2: 1, 3: 1}
    assert s.steps_to_threshold == 3
    assert summarize(recs, loss_threshold=0.5).steps_to_threshold is None
    assert sum(s.inner_loop_histogram.values()) == len(recs)


def test_trace_round_trip(tmp_path):
    cfg = RunConfig(optimizer="bfe", max_steps=30, seed=7,
                    output_path=str(tmp_path / "trace.csv"))
    trace, _ = run_experiment(cfg)
    meta, loaded = read_trace(cfg.output_path)
    assert loaded == trace
    assert meta["seed"] == "7"
    assert "config" in meta


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    RunConfig(optimizer="adabfe", problem="quadratic",
              curvatures=tuple(np.geomspace(0.1, 10.0, 128)),
              theta0=tuple(np.linspace(0.5, 1.5, 128)), lim_zero=1e-9)])
def test_trace_config_line_is_the_run_config_without_its_path(tmp_path, cfg):
    path = tmp_path / "trace.csv"
    write_trace(str(path), [], dataclasses.replace(cfg,
                                                   output_path=str(path)))
    want = dataclasses.asdict(cfg)
    del want["output_path"]
    lines = path.read_text().splitlines()
    assert lines[2] == "# config=" + json.dumps(want, sort_keys=True)


def _per_row_text(trace):
    """The trace rows as the writer formatted them one row at a time."""
    return "".join(f"{r.step},{r.batch_loss:.17g},{r.full_loss:.17g},"
                   f"{r.eta:.17g},{r.inner_loops},{r.grad_norm:.17g}\n"
                   for r in trace)


_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_COUNT = st.integers(0, 10 ** 6)


@settings(deadline=None)
@given(st.lists(st.builds(TraceRecord, _COUNT, _FLOAT, _FLOAT, _FLOAT,
                          _COUNT, _FLOAT), max_size=40))
@example([TraceRecord(10 ** 6, -0.0, 5e-324, 1e308, 10 ** 6, -1e308),
          TraceRecord(1, 0.0, -5e-324, -1e308, 0, 1.7976931348623157e308)])
def test_trace_rows_are_the_per_row_format_and_read_back(tmp_path_factory,
                                                         trace):
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    write_trace(str(path), map(harness._TRACE_ROW, trace), RunConfig())
    text = path.read_text()
    assert text.split(harness.TRACE_HEADER + "\n", 1)[1] == \
        _per_row_text(trace)
    _, loaded = read_trace(str(path))
    # repr tells -0.0 from 0.0, which == does not
    assert list(map(repr, loaded)) == list(map(repr, trace))


def test_compare_runs_table():
    base = RunConfig(problem="quadratic", curvatures=(1.0,), theta0=(1.0,),
                     alpha=0.1, max_steps=200, lim_zero=1e-9, seed=0)
    cfgs = [dataclasses.replace(base, optimizer="sgd"),
            dataclasses.replace(base, optimizer="bfe")]
    rows, table = compare_runs(cfgs, loss_threshold=1e-4)
    assert rows[0]["optimizer"] == "sgd"
    assert "pair,speedup_ratio" in table
    assert "sgd/bfe," in table


def test_compare_identical_configs_ratio_one():
    base = RunConfig(problem="quadratic", optimizer="sgd", alpha=0.1,
                     curvatures=(1.0,), theta0=(1.0,), max_steps=100,
                     lim_zero=1e-9)
    rows, table = compare_runs([base, base], loss_threshold=1e-3)
    ratio_line = [l for l in table.splitlines() if l.startswith("sgd/sgd")][0]
    assert float(ratio_line.split(",")[1]) == 1.0


def test_compare_unreached_threshold_reports_none():
    base = RunConfig(problem="quadratic", curvatures=(1.0,), theta0=(1.0,),
                     alpha=1e-6, max_steps=5, lim_zero=1e-12)
    cfgs = [dataclasses.replace(base, optimizer="sgd"),
            dataclasses.replace(base, optimizer="adam")]
    rows, table = compare_runs(cfgs, loss_threshold=1e-9)
    assert "none" in table


def test_compare_reports_none_against_a_run_of_no_steps():
    # both runs start below the loss threshold; the second also stops on
    # its first gradient, so it takes no step
    base = RunConfig(problem="quadratic", curvatures=(1.0, 1.0),
                     theta0=(0.001, 0.0))
    cfgs = [base, dataclasses.replace(base, optimizer="sgd", lim_zero=1.0)]
    rows, table = compare_runs(cfgs, loss_threshold=1e-3)
    assert [row["steps_to_threshold"] for row in rows] == [0, 0]
    assert table.splitlines()[-1] == "bfe/sgd,none"


def test_compare_mismatched_problems_rejected():
    quadratic = RunConfig(problem="quadratic", curvatures=(1.0, 2.0))
    for a, b in ((RunConfig(optimizer="sgd", problem="linreg"),
                  RunConfig(optimizer="bfe", problem="quadratic")),
                 (dataclasses.replace(quadratic, optimizer="bfe"),
                  dataclasses.replace(quadratic, optimizer="sgd",
                                      curvatures=(1.0, 2.0, 3.0)))):
        with pytest.raises(ConfigError, match="must share the problem"):
            compare_runs([a, b], loss_threshold=1.0)


def test_compare_needs_two_configs():
    with pytest.raises(ConfigError, match="^compare needs at least 2 configs$"):
        compare_runs([RunConfig(max_steps=5)], loss_threshold=1.0)


def test_compare_takes_a_default_start_as_the_same_point_given():
    base = RunConfig(problem="quadratic", curvatures=(1.0, 2.0), alpha=0.1,
                     max_steps=5)
    rows, _ = compare_runs([base, dataclasses.replace(base, theta0=(1, 1))],
                           loss_threshold=1e-3)
    assert len(rows) == 2


def test_invalid_names_rejected():
    with pytest.raises(ConfigError):
        RunConfig(optimizer="nope")
    with pytest.raises(ConfigError):
        RunConfig(problem="nope")
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0)
    with pytest.raises(ConfigError):
        RunConfig(lim_zero=0.0)
    with pytest.raises(ConfigError, match="max_steps must be >= 1"):
        RunConfig(max_steps=0)
    with pytest.raises(ConfigError):
        RunConfig(commit_policy="nope")


@pytest.mark.parametrize("deg", [5e-324, 1e-322, math.nextafter(90.0, 91.0)])
def test_an_angle_that_is_out_of_range_in_radians_names_the_degrees(deg):
    # 5e-324 and 1e-322 degrees are positive, but 0 in radians; the next
    # float above 90 degrees is above pi/2 radians too
    with pytest.raises(ConfigError,
                       match=r"^angle_threshold_deg must be in \(0, 90\)$"):
        RunConfig(angle_threshold_deg=deg)


def test_the_largest_angle_below_90_degrees_is_in_range():
    deg = math.nextafter(90.0, 0.0)
    assert deg == 89.99999999999999
    RunConfig(angle_threshold_deg=deg)


def test_field_values_checked_against_annotations():
    # an int fits a float field and numbers of either kind a tuple field
    cfg = RunConfig(eta0=1, curvatures=(1, 2.0), theta0=None)
    assert cfg.eta0 == 1
    for bad in ({"base": 2.0}, {"max_steps": True}, {"eta0": False},
                {"optimizer": None}, {"curvatures": [1.0]},
                {"curvatures": (True,)}, {"curvatures": ()},
                {"theta0": ("1",)}, {"theta0": ()}, {"output_path": 3},
                {"eta0": float("nan")}, {"theta0": (1.0, float("-inf"))},
                {"alpha": 10 ** 400}):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be"):
            RunConfig(**bad)


@pytest.mark.parametrize("threshold, steps", [(None, None), (1e-9, None),
                                              (5e-9, 0), (1e-8, 0)])
def test_converged_start_is_a_run_of_no_steps(threshold, steps):
    # the start's gradient RMS, about 7.1e-5, is below lim_zero
    cfg = RunConfig(optimizer="bfe", problem="quadratic",
                    curvatures=(1.0, 1.0), theta0=(1e-4, 0.0),
                    loss_threshold=threshold)
    trace, summary = run_experiment(cfg)
    start_loss = harness.quadratic_objective(cfg.curvatures).loss(
        np.array(cfg.theta0), None)
    assert start_loss == 5e-9  # so a threshold of 5e-9 is met exactly
    assert trace == []
    assert summary == harness.RunSummary(
        steps_to_threshold=steps, mean_inner_loops=0.0,
        inner_loop_histogram={}, final_loss=start_loss, grad_evals=1,
        loss_evals=1, capped_steps=0)


def test_a_one_sample_run_runs():
    # the smallest dataset: every batch is its one row
    trace, _ = run_experiment(RunConfig(optimizer="sgd", n_samples=1,
                                        max_steps=3))
    assert [rec.step for rec in trace] == [1, 2, 3]
    assert trace[-1].batch_loss == trace[-1].full_loss


# Every init field of the BFE configs, the RunConfig field build_optimizer
# sets it from, and a non-default value of that RunConfig field.
CONFIG_SOURCES = {
    BfeLossConfig: ("bfe", {
        "eta0": ("eta0", 0.002), "base": ("base", 3),
        "eps_ratio": ("eps_ratio", 0.01),
        "eps_val_policy": ("eps_val_policy", "min_scaled"),
        "commit_policy": ("commit_policy", "full_step"),
        "zoom_in_only": ("optimizer", "bfe-zoomin"),
        "reset_policy": ("reset_policy", "prev_eta")}),
    BfeGradConfig: ("bfe-grad", {
        "eta0": ("eta0", 0.002), "base": ("base", 3),
        "angle_threshold": ("angle_threshold_deg", 2.5),
        "threshold_mode": ("threshold_mode", "relative"),
        "zoom_out_exit": ("zoom_out_exit", "quarter_fresh_step"),
        "pre_halve": ("pre_halve", True)}),
}


@pytest.mark.parametrize("config", list(CONFIG_SOURCES))
def test_every_bfe_config_field_is_set_from_a_run_config_field(config):
    optimizer, sources = CONFIG_SOURCES[config]
    names = [f.name for f in dataclasses.fields(config) if f.init]
    assert sorted(sources) == sorted(names)
    default = build_optimizer(RunConfig(optimizer=optimizer), dim=2).cfg
    assert default == config()  # the CLI's defaults are the library's
    for name, (run_field, value) in sources.items():
        cfg = build_optimizer(RunConfig(**{"optimizer": optimizer,
                                           run_field: value}), dim=2).cfg
        assert [n for n in names
                if getattr(cfg, n) != getattr(default, n)] == [name]


@pytest.mark.parametrize("optimizer", ["sgd", "nesterov", "adam"])
def test_a_baseline_run_config_defaults_to_the_baseline_config(optimizer):
    assert build_optimizer(RunConfig(optimizer=optimizer),
                           dim=2).cfg == BaselineConfig()


def test_a_run_config_defaults_to_the_linreg_spec():
    cfg = RunConfig()
    assert LinRegSpec(w0=cfg.w0, b0=cfg.b0, noise_std=cfg.noise_std,
                      n=cfg.n_samples, seed=cfg.seed) == LinRegSpec()


def test_normalized_run_uses_normalized_features():
    cfg = RunConfig(optimizer="bfe", max_steps=10, seed=3, normalize=True)
    trace, _ = run_experiment(cfg)
    data = normalize(gen_linear_data(LinRegSpec(seed=3)))
    assert abs(float(np.mean(data.x))) < 1e-10
    assert len(trace) == 10


# the overflow warnings of a diverging run are not yet failures
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverged_run_carries_its_step_rate_and_last_finite_loss():
    cfg = RunConfig(optimizer="bfe-grad", problem="quadratic",
                    curvatures=(1e6,), eta0=1.0, max_steps=10)
    with pytest.raises(NonFiniteEvaluation) as exc:
        run_experiment(cfg)
    assert (exc.value.step, exc.value.eta) == (8, 2.0 ** 60)
    trace, _ = run_experiment(dataclasses.replace(cfg, max_steps=7))
    assert exc.value.last_finite_loss == trace[-1].full_loss


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_every_optimizer_step_has_the_one_signature(optimizer):
    opt = harness.build_optimizer(RunConfig(optimizer=optimizer), dim=2)
    params = inspect.signature(opt.step).parameters
    assert list(params) == ["obj", "theta", "batch", "epoch"]
    assert params["epoch"].default == 0


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_run_loop_computes_the_step_gradient_once(optimizer,
                                                  counted_objectives,
                                                  monkeypatch):
    outcomes = []
    build_optimizer = harness.build_optimizer

    def recorded(cfg, dim):
        opt = build_optimizer(cfg, dim)
        step = opt.step

        def recorded_step(*args, **kwargs):
            outcomes.append(step(*args, **kwargs))
            return outcomes[-1]

        opt.step = recorded_step
        return opt

    monkeypatch.setattr(harness, "build_optimizer", recorded)
    linreg = RunConfig(optimizer=optimizer, seed=42, max_steps=20,
                       normalize=True)
    quadratic = RunConfig(optimizer=optimizer, problem="quadratic",
                          curvatures=(0.1, 1.0, 10.0), theta0=(1.0, 1.0, 1.0),
                          max_steps=20, lim_zero=1e-9)
    # a mini-batch step evaluates the batch loss and the full loss on a new
    # batch; a step on the full dataset (batch None) evaluates the loss once,
    # and the memo carries the gradient at the committed point into the
    # next step's stop check
    for cfg, row_losses in ((linreg, 2), (quadratic, 1)):
        outcomes.clear()
        trace, summary = run_experiment(cfg)
        obj = counted_objectives.pop()
        rows = len(trace)
        assert rows == cfg.max_steps  # so there is one stop check per row
        inner = sum(out.inner_loops for out in outcomes)
        carried = cfg.problem == "quadratic"
        # the stop check's gradient is the step's base gradient. Nesterov
        # takes one more at its look-ahead point, which is the step's point
        # while the velocity is still zero (step 1). Each BFE pass takes one
        # gradient at a point it commits if it is the last pass, so the
        # carry leaves only step 1's stop check.
        expected_grads = {
            "sgd": rows, "adam": rows, "nesterov": 2 * rows - 1,
        }.get(optimizer, inner + (1 if carried else rows))
        assert obj.grad_calls == expected_grads
        # the row losses, plus the loss pairs. A zoom-out step's committed
        # half step is, in base 2, the full step of its pass before, so a
        # zoom-out step of two or more passes has its row loss on the batch
        # already (the batch loss, or the full loss when batch is None).
        repeats = sum(out.branch == "zoom_out" and out.inner_loops >= 2
                      for out in outcomes)
        probe_losses = 0
        if optimizer in ("bfe", "bfe-zoomin"):
            probe_losses = 2 * inner - repeats
            assert repeats > 0 or optimizer == "bfe-zoomin"
        # under batch None the memo keeps the last step's points too. Here
        # every BFE step after the first starts at the half-rate point the
        # step before committed, at the rate of that step's substeps (bfe's
        # zoom-in), or twice it (bfe-zoomin's reset, one pass a step): so its
        # full step, or its committed half step, is the last two-step point
        held = 0
        if carried and optimizer in ("bfe", "bfe-zoomin"):
            held = sum(out.branch == "zoom_in" for out in outcomes[1:])
            assert held > 0
        assert obj.loss_calls == row_losses * rows + probe_losses - held
        # the summary reports what reached the objective
        assert (summary.grad_evals, summary.loss_evals) == (obj.grad_calls,
                                                            obj.loss_calls)


def _trace_file_text(cfg, trace):
    """A trace file as written from scratch: the three header lines, the
    column header and one ``_TRACE_ROW`` per record."""
    config = dataclasses.asdict(cfg)
    del config["output_path"]
    return (f"# bfeopt_version={__version__}\n# seed={cfg.seed}\n"
            f"# config={json.dumps(config, sort_keys=True)}\n"
            f"{harness.TRACE_HEADER}\n"
            + "".join(map(harness._TRACE_ROW, trace)))


# (a run of no steps, one that the stop check ends, one to max_steps) on
# each problem
_LINREG_SMALL = dict(seed=42, n_samples=1000, batch_size=100)
_QUADRATIC_3 = dict(problem="quadratic", curvatures=(0.1, 1.0, 10.0),
                    theta0=(1.0, 1.0, 1.0))
TRACE_RUNS = [
    (RunConfig(optimizer="sgd", lim_zero=1e9, **_LINREG_SMALL), 0),
    (RunConfig(optimizer="sgd", alpha=0.01, lim_zero=1.0, max_steps=3000,
               **_LINREG_SMALL), 198),
    (RunConfig(optimizer="bfe", max_steps=50, **_LINREG_SMALL), 50),
    (RunConfig(optimizer="adabfe", lim_zero=1e9, **_QUADRATIC_3), 0),
    (RunConfig(optimizer="sgd", problem="quadratic", alpha=0.5,
               lim_zero=1e-3), 10),
    (RunConfig(optimizer="bfe", max_steps=50, lim_zero=1e-9, **_QUADRATIC_3),
     50),
]


@pytest.mark.parametrize("cfg, steps", TRACE_RUNS)
def test_a_trace_file_holds_the_rows_of_the_records_returned(tmp_path, cfg,
                                                             steps):
    path = tmp_path / "trace.csv"
    cfg = dataclasses.replace(cfg, output_path=str(path))
    trace, _ = run_experiment(cfg)
    assert len(trace) == steps
    assert path.read_bytes() == _trace_file_text(cfg, trace).encode()
