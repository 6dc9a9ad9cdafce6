import dataclasses

import numpy as np
import pytest

from bfeopt import harness
from bfeopt.core import TraceRecord
from bfeopt.harness import (
    OPTIMIZERS,
    ConfigError,
    RunConfig,
    compare_runs,
    read_trace,
    run_experiment,
    summarize,
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
    obj, theta, stream, data = build_problem(cfg)
    opt = build_optimizer(cfg, 2)
    batches = iter(stream)
    full = linreg_objective(data)
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


def test_compare_mismatched_problems_rejected():
    a = RunConfig(optimizer="sgd", problem="linreg")
    b = RunConfig(optimizer="bfe", problem="quadratic")
    with pytest.raises(ConfigError):
        compare_runs([a, b], loss_threshold=1.0)


def test_invalid_names_rejected():
    with pytest.raises(ConfigError):
        RunConfig(optimizer="nope")
    with pytest.raises(ConfigError):
        RunConfig(problem="nope")
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0)
    with pytest.raises(ConfigError):
        RunConfig(lim_zero=0.0)
    with pytest.raises(ConfigError):
        RunConfig(commit_policy="nope")


def test_field_values_checked_against_annotations():
    # an int fits a float field and numbers of either kind a tuple field
    cfg = RunConfig(eta0=1, curvatures=(1, 2.0), theta0=None)
    assert cfg.eta0 == 1
    for bad in ({"base": 2.0}, {"max_steps": True}, {"eta0": False},
                {"optimizer": None}, {"curvatures": [1.0]},
                {"curvatures": (True,)}, {"curvatures": ()},
                {"theta0": ("1",)}, {"output_path": 3}):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be"):
            RunConfig(**bad)


def test_normalized_run_uses_normalized_features():
    cfg = RunConfig(optimizer="bfe", max_steps=10, seed=3, normalize=True)
    trace, _ = run_experiment(cfg)
    data = normalize(gen_linear_data(LinRegSpec(seed=3)))
    assert abs(float(np.mean(data.x))) < 1e-10
    assert len(trace) == 10


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_run_loop_computes_the_step_gradient_once(optimizer, counting,
                                                  monkeypatch):
    objs = []
    build_problem = harness.build_problem

    def counted(cfg):
        obj, *rest = build_problem(cfg)
        objs.append(counting(obj))
        return (objs[-1], *rest)

    monkeypatch.setattr(harness, "build_problem", counted)
    linreg = RunConfig(optimizer=optimizer, seed=42, max_steps=20,
                       normalize=True)
    quadratic = RunConfig(optimizer=optimizer, problem="quadratic",
                          curvatures=(0.1, 1.0, 10.0), theta0=(1.0, 1.0, 1.0),
                          max_steps=20, lim_zero=1e-9)
    # a mini-batch step evaluates the batch loss and the full loss; a step
    # on the full dataset (batch None) evaluates the loss once
    for cfg, row_losses in ((linreg, 2), (quadratic, 1)):
        trace, _ = run_experiment(cfg)
        rows = len(trace)
        assert rows == cfg.max_steps  # so there is one stop check per row
        inner = sum(rec.inner_loops for rec in trace)
        obj = objs.pop()
        # the stop check's gradient is the step's base gradient
        extra_grads = {"sgd": 0, "adam": 0, "nesterov": rows}.get(optimizer,
                                                                 inner)
        assert obj.grad_calls == rows + extra_grads
        # the row losses, plus the loss pairs
        probe_losses = (2 * inner if optimizer in ("bfe", "bfe-zoomin")
                        else 0)
        assert obj.loss_calls == row_losses * rows + probe_losses
