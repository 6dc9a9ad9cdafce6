"""The benchmark's layer tracer (``perfbench/tracer.py``) times each layer by
patching names in bfeopt modules, and reports a name it cannot find as
missing, which only drops that layer's metrics. This keeps the names it
patches in place: a refactor that moves or renames one fails here instead.
"""
import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from bfeopt import harness
from bfeopt.cli import main
from bfeopt.harness import TRACE_HEADER

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# patched by the tracer, but gone since the batch kernels were replaced by
# closed-form moments
KNOWN_STALE = {("bfeopt.kernels", "linreg_loss"),
               ("bfeopt.kernels", "linreg_loss_grad")}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return _tracer().TARGETS


def _resolves(module_name, name):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    return callable(getattr(module, name, None))


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    assert targets
    missing = {(module, name) for module, name, _ in targets
               if not _resolves(module, name)}
    assert missing <= KNOWN_STALE


LINREG = ("--problem", "linreg", "--seed", "42")
QUADRATIC = ("--problem", "quadratic", "--curvatures", "0.1,1,10",
             "--theta0", "1,1,1", "--lim-zero", "1e-9")


@pytest.mark.parametrize("optimizer, problem", [
    ("bfe", LINREG), ("bfe-zoomin", LINREG),
    ("bfe-grad", QUADRATIC), ("adabfe", QUADRATIC)])
def test_each_search_pass_makes_one_probe(optimizer, problem, tmp_path):
    tracer = _tracer().Tracer()
    trace = tmp_path / "trace.csv"
    with tracer.installed():
        rc, _ = tracer.run_op(main, [
            "optimize", "--optimizer", optimizer, *problem,
            "--max-steps", "50", "--out", str(trace)])
    assert rc == 0
    metrics = tracer.layer_metrics()
    # every step runs through a traced step function, one trace row each
    rows = trace.read_text().split(TRACE_HEADER + "\n", 1)[1].splitlines()
    assert metrics["search.steps"] == len(rows) > 0
    assert metrics["search.inner_loops"] > 0
    assert metrics["probe.calls"] == metrics["search.inner_loops"]
    if optimizer in ("bfe-grad", "adabfe"):
        # each gradient-angle probe takes its angle through the traced name
        assert metrics["core.angular_deviation.calls"] == \
            metrics["probe.calls"]


def _capped_steps_agree(optimizer, tmp_path, capsys):
    # from eta0 = 1e-30 every zoom-out search ends at the cap
    tracer = _tracer().Tracer()
    with tracer.installed():
        rc, _ = tracer.run_op(main, [
            "optimize", "--optimizer", optimizer, *QUADRATIC,
            "--eta0", "1e-30", "--max-steps", "50",
            "--out", str(tmp_path / "trace.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    capped = [int(line.split("=", 1)[1]) for line in lines
              if line.startswith("capped_steps=")]
    assert capped and capped[0] > 0
    assert tracer.layer_metrics()["search.capped"] == capped[0]


def test_tracer_and_summary_agree_on_capped_steps(tmp_path, capsys):
    _capped_steps_agree("bfe-grad", tmp_path, capsys)


def test_tracer_and_summary_agree_on_capped_adabfe_steps(tmp_path, capsys):
    # each capped step's search tests its caps from its first pass on
    _capped_steps_agree("adabfe", tmp_path, capsys)


@pytest.mark.parametrize("out", [True, False], ids=["out", "no-out"])
def test_a_run_writes_its_trace_through_one_write_trace_call(
        out, tmp_path, monkeypatch):
    # the tracer's harness.write_trace_s times this call, and its
    # harness.trace_bytes reads the size of the file its first argument names
    calls = []
    write_trace = harness.write_trace

    def spy(*args):
        calls.append(args[0])
        write_trace(*args)

    monkeypatch.setattr(harness, "write_trace", spy)
    path = str(tmp_path / "trace.csv")
    argv = ["optimize", "--optimizer", "sgd", *LINREG, "--max-steps", "50"]
    tracer = _tracer().Tracer()
    with tracer.installed():
        rc, _ = tracer.run_op(main, argv + ["--out", path] * out)
    assert rc == 0
    assert calls == [path] * out
    size = os.path.getsize(path) if out else 0
    assert tracer.layer_metrics()["harness.trace_bytes"] == size
