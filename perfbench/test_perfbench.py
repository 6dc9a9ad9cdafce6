"""Tests of the benchmark itself: tracer counts, span accounting, checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import tracer as layer_tracer
import workloads

CLI = run.import_cli()
SHORT_STEPS = 20
LAYERS = {"probe", "search", "baselines", "harness"}


class CountingObjective:
    """Wraps an objective and counts calls by kind and by full/batch."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def loss(self, theta, batch=None):
        self.calls["loss", "full" if batch is None else "batch"] += 1
        return self.inner.loss(theta, batch)

    def grad(self, theta, batch=None):
        self.calls["grad", "full" if batch is None else "batch"] += 1
        return self.inner.grad(theta, batch)


def traced_op(name, tmp_path, steps=SHORT_STEPS):
    """Run a short traced op; returns (tracer, exit code, seconds, trace)."""
    wl = workloads.make(name, workloads.DEFAULT_SEED)
    out = str(tmp_path / f"{name}.csv")
    tr = layer_tracer.Tracer()
    with tr.installed():
        rc, seconds, _ = run.run_op(CLI.main, run.op_argv(wl, steps, out), out,
                                    tr)
    return tr, rc, seconds, run.read_bytes(out)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracer_counts_match_counting_objective(name, tmp_path, monkeypatch):
    from bfeopt import harness

    tr, rc, _, traced_bytes = traced_op(name, tmp_path)
    assert rc == 0 and tr.missing == []

    counters = []
    build_problem = harness.build_problem

    def counted(cfg):
        obj, *rest = build_problem(cfg)
        counters.append(CountingObjective(obj))
        return (counters[-1], *rest)

    monkeypatch.setattr(harness, "build_problem", counted)
    wl = workloads.make(name, workloads.DEFAULT_SEED)
    out = str(tmp_path / "counted.csv")
    rc, _, _ = run.run_op(CLI.main, run.op_argv(wl, SHORT_STEPS, out), out)
    assert rc == 0
    for kind in ("grad", "loss"):
        for scope in ("batch", "full"):
            assert tr.objective_count(kind, scope) == counters[0].calls[
                kind, scope], (kind, scope)
    # tracing leaves the trace file byte-identical
    assert run.read_bytes(out) == traced_bytes


@pytest.mark.parametrize("name", workloads.NAMES)
def test_objective_calls_have_one_parent_layer(name, tmp_path):
    tr, _, _, _ = traced_op(name, tmp_path)
    assert sum(tr.objective_calls.values()) == tr.calls["objective"]
    assert {parent for _, _, parent in tr.objective_calls} <= LAYERS


@pytest.mark.parametrize("name", workloads.NAMES)
def test_self_times_sum_to_root_span(name, tmp_path):
    tr, _, seconds, _ = traced_op(name, tmp_path)
    assert sum(tr.self_s.values()) == pytest.approx(seconds, rel=1e-9)
    assert all(v >= 0 for v in tr.self_s.values())


def test_each_layer_is_heavy_on_one_workload_and_light_on_another(tmp_path):
    metrics = {name: traced_op(name, tmp_path)[0].layer_metrics()
               for name in workloads.NAMES}
    assert metrics["quadratic-adabfe"]["kernels.calls"] == 0
    assert metrics["linreg-bfe"]["kernels.calls"] > 0
    assert metrics["linreg-sgd"]["search.steps"] == 0
    assert metrics["linreg-sgd"]["baselines.steps"] == SHORT_STEPS
    assert (metrics["linreg-bfe"]["objective.calls_per_batch"]
            > metrics["linreg-sgd"]["objective.calls_per_batch"])


def test_missing_name_makes_its_metrics_absent(tmp_path, monkeypatch):
    from bfeopt import kernels

    monkeypatch.delattr(kernels, "linreg_loss")
    tr, rc, _, _ = traced_op("quadratic-adabfe", tmp_path)
    assert rc == 0
    assert tr.missing == ["bfeopt.kernels.linreg_loss"]
    assert "kernels.calls" in tr.absent()
    assert "search.steps" not in tr.absent()
    assert tr.layer_metrics()["search.steps"] == SHORT_STEPS


def test_tracer_restores_patched_names():
    from bfeopt import bfe_loss, harness

    before = (harness.write_trace, bfe_loss.bfe_step)
    with layer_tracer.Tracer().installed():
        assert harness.write_trace is not before[0]
    assert (harness.write_trace, bfe_loss.bfe_step) == before


def test_check_trace_rejects_a_short_or_unconverged_trace(tmp_path):
    _, _, _, data = traced_op("linreg-bfe", tmp_path)
    wl = workloads.make("linreg-bfe", workloads.DEFAULT_SEED)
    assert run.check_trace(data, SHORT_STEPS, 1e9) == []
    assert run.check_trace(data, SHORT_STEPS + 1, 1e9)
    assert run.check_trace(data, SHORT_STEPS, wl.threshold)  # not reached
    assert run.check_trace(None, SHORT_STEPS, 1e9)


def test_default_seed_threshold_is_the_acceptance_config():
    assert workloads.linreg_threshold(workloads.DEFAULT_SEED) == 1.05
    assert workloads.linreg_threshold(7) != 1.05


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(200))) == (90.0, 179)
    percentile, value = run.tail(list(range(25)))
    assert value == 14 and percentile == 60.0


def test_benchmark_json_lists_the_printed_metrics():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit
                 for name, (unit, _) in layer_tracer.PER_LAYER.items()}
    per_layer["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linreg-bfe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
