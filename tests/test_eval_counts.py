"""Evaluation counts of the benchmark's three workloads at seed 42.

Each config is the one ``perfbench/workloads.py`` passes to ``optimize``,
run to its reference step count. The objective is counted below the run
loop's memo, as the benchmark counts it, so a change that makes the run
evaluate a point it evaluated before on the same batch fails here.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bfeopt import cli
from bfeopt.harness import RunConfig, RunSummary

LINREG = dict(problem="linreg", n_samples=10000, batch_size=512, seed=42,
              loss_threshold=1.05)
CURVATURES = np.geomspace(0.1, 10.0, 128)
THETA0 = np.random.default_rng(42).uniform(0.5, 1.5, 128)

WORKLOADS = {
    "linreg-bfe": (RunConfig(optimizer="bfe", max_steps=426, **LINREG),
                   1234, 2265),
    "linreg-sgd": (RunConfig(optimizer="sgd", alpha=0.001, max_steps=5972,
                             **LINREG),
                   5972, 11944),
    "quadratic-adabfe": (RunConfig(
        optimizer="adabfe", problem="quadratic",
        curvatures=tuple(map(float, CURVATURES)),
        theta0=tuple(map(float, THETA0)), lim_zero=1e-9, seed=42,
        max_steps=67,
        loss_threshold=1e-3 * (0.5 * float(np.sum(CURVATURES * THETA0
                                                  * THETA0)))),
        574, 67),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_evaluations_to_threshold(name, counted_objectives, run_traced):
    cfg, grads, losses = WORKLOADS[name]
    trace, summary = run_traced(cfg)
    # the last step is the first at the threshold
    assert summary.steps_to_threshold == len(trace) == cfg.max_steps
    obj, = counted_objectives
    assert (obj.grad_calls, obj.loss_calls) == (grads, losses)
    assert (summary.grad_evals, summary.loss_evals) == (grads, losses)


PERFBENCH_WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
                       / "workloads.py")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_config_is_the_one_the_benchmark_runs(name, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up there as it is made
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workload = workloads.make(name, workloads.DEFAULT_SEED)
    parsed = []

    def run(cfg):
        parsed.append(cfg)
        return RunSummary(None, 0.0, {}, 0.0)

    monkeypatch.setattr(cli, "run_experiment", run)
    assert cli.main(["optimize", *workload.flags]) == 0
    cfg, = parsed
    assert dataclasses.replace(cfg, max_steps=workload.reference_steps) \
        == WORKLOADS[name][0]
