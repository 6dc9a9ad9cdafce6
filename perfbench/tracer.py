"""Layer tracer for the benchmark's traced run.

Each layer of bfeopt is traced by replacing public names in the module where
the program looks them up, so the program's own code is not touched. A name
that no longer exists is recorded as missing, and the metrics that depend on
it are reported as absent; the run goes on.

Spans nest on a stack. A span's self time is its duration minus the time of
the spans it opened, so the self times of all spans of one op sum to the root
span, which is the op's ``cli.main`` call. Counts are taken at the same
boundaries. Totals are accumulated as spans close and read once per op.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter

# (module, name, span key). The layer is the part of the key before the
# first dot. Each name is patched in the module that looks it up at call time.
TARGETS = (
    ("bfeopt.cli", "run_experiment", "harness"),
    ("bfeopt.harness", "write_trace", "harness.write_trace"),
    ("bfeopt.harness", "rms_grad_norm", "core.rms_grad_norm"),
    ("bfeopt.harness", "gen_linear_data", "problems.gen"),
    ("bfeopt.harness", "BatchStream", "problems.batch_draw"),
    ("bfeopt.harness", "ConstantBatchStream", "problems.batch_draw"),
    ("bfeopt.harness", "linreg_objective", "objective"),
    ("bfeopt.harness", "quadratic_objective", "objective"),
    ("bfeopt.kernels", "linreg_loss", "kernels"),
    ("bfeopt.kernels", "linreg_loss_grad", "kernels"),
    ("bfeopt.bfe_loss", "loss_pair_zoom_in", "probe"),
    ("bfeopt.bfe_loss", "loss_pair_zoom_out", "probe"),
    ("bfeopt.bfe_grad", "grad_probe", "probe"),
    ("bfeopt.bfe_loss", "bfe_step", "search"),
    ("bfeopt.bfe_grad", "bfe_grad_step", "search"),
    ("bfeopt.bfe_grad", "adabfe_step", "search"),
    ("bfeopt.bfe_grad", "angular_deviation", "core.angular_deviation"),
    ("bfeopt.bfe_loss", "eval_criterion_threshold", "core.threshold"),
    ("bfeopt.baselines", "sgd_step", "baselines"),
    ("bfeopt.baselines", "nesterov_step", "baselines"),
    ("bfeopt.baselines", "adam_step", "baselines"),
)

# Per-layer metrics of one op: name -> (unit, span keys it is computed from).
# A metric is absent when a name patched for one of its keys is missing.
PER_LAYER = {
    "kernels.calls": ("count", {"kernels"}),
    "kernels.rows": ("count", {"kernels"}),
    "kernels.self_s": ("s", {"kernels"}),
    "kernels.ns_per_row": ("ns/row", {"kernels"}),
    "kernels.bytes_computed": ("B", {"kernels"}),
    "objective.grad_calls.batch": ("count", {"objective"}),
    "objective.loss_calls.batch": ("count", {"objective"}),
    "objective.grad_calls.full": ("count", {"objective"}),
    "objective.loss_calls.full": ("count", {"objective"}),
    "objective.self_s": ("s", {"objective"}),
    "objective.calls_per_batch": ("ratio", {"objective", "problems.batch_draw"}),
    "problems.gen_s": ("s", {"problems.gen"}),
    "problems.batch_draw_s": ("s", {"problems.batch_draw"}),
    "probe.calls": ("count", {"probe"}),
    "probe.self_s": ("s", {"probe"}),
    "search.steps": ("count", {"search"}),
    "search.inner_loops": ("count", {"search"}),
    "search.self_s": ("s", {"search"}),
    "search.useful_ratio": ("ratio", {"search"}),
    "search.capped": ("count", {"search"}),
    "search.zoom_in_share": ("ratio", {"search"}),
    "core.angular_deviation.calls": ("count", {"core.angular_deviation"}),
    "core.angular_deviation.self_s": ("s", {"core.angular_deviation"}),
    "core.threshold.self_s": ("s", {"core.threshold"}),
    "core.rms_grad_norm.self_s": ("s", {"core.rms_grad_norm"}),
    "baselines.steps": ("count", {"baselines"}),
    "baselines.self_s": ("s", {"baselines"}),
    "harness.self_s": ("s", {"harness", "harness.write_trace"}),
    "harness.stop_check_s": ("s", {"objective", "core.rms_grad_norm"}),
    "harness.full_loss_s": ("s", {"objective"}),
    "harness.batch_loss_s": ("s", {"objective"}),
    "harness.write_trace_s": ("s", {"harness.write_trace"}),
    "harness.trace_bytes": ("B", {"harness.write_trace"}),
    "cli.self_s": ("s", {"harness"}),
}

ROW_BYTES = 16  # one float64 x and one float64 y per row read by a kernel


class Tracer:
    """Collects spans and counts for one op at a time."""

    def __init__(self):
        self._clock = time.perf_counter
        self._stack: list[list] = []  # open spans: [key, child time, start]
        self.missing: list[str] = []  # "module.name" targets not found
        self.missing_keys: set[str] = set()
        self.reset()

    def reset(self) -> None:
        """Clear the totals before an op."""
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        # (grad|loss, batch|full, parent layer) -> calls
        self.objective_calls: Counter = Counter()
        # (grad|loss, batch|full) -> seconds, for calls made by the harness
        self.harness_objective_s: Counter = Counter()
        self.kernel_rows = 0
        self.batches = 0
        self.search = Counter()
        self.trace_bytes = 0

    # spans

    def _open(self, key: str) -> list:
        span = [key, 0.0, self._clock()]
        self._stack.append(span)
        return span

    def _close(self, span: list) -> float:
        dur = self._clock() - span[2]
        self._stack.pop()
        key = span[0]
        self.self_s[key] += dur - span[1]
        self.total_s[key] += dur
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def run_op(self, main, argv) -> tuple[int, float]:
        """Call ``main(argv)`` as the root span; returns (exit code, seconds)."""
        span = self._open("cli")
        try:
            rc = main(argv)
        finally:
            dur = self._close(span)
        return rc, dur

    def _call(self, key, fn, args, kwargs):
        span = self._open(key)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def objective_call(self, kind: str, fn, theta, batch):
        parent = self._stack[-1][0].split(".")[0] if self._stack else "none"
        scope = "full" if batch is None else "batch"
        self.objective_calls[(kind, scope, parent)] += 1
        span = self._open("objective")
        try:
            return fn(theta, batch)
        finally:
            dur = self._close(span)
            if parent == "harness":
                self.harness_objective_s[(kind, scope)] += dur

    # patching

    def _wrap(self, key: str, fn):
        tracer = self
        if key == "objective":
            def make_objective(*args, **kwargs):
                return _TracedObjective(tracer, fn(*args, **kwargs))
            return make_objective
        if key == "problems.batch_draw":
            def make_stream(*args, **kwargs):
                return _TracedStream(tracer, fn(*args, **kwargs))
            return make_stream

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._call(key, fn, args, kwargs)
            if key == "kernels":
                tracer.kernel_rows += len(args[2])
            elif key == "search":
                tracer.search["steps"] += 1
                tracer.search["inner_loops"] += result.inner_loops
                tracer.search["capped"] += bool(result.capped)
                tracer.search["zoom_in"] += result.branch == "zoom_in"
            elif key == "harness.write_trace":
                tracer.trace_bytes += os.path.getsize(args[0])
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        self.missing = []
        self.missing_keys = set()
        for module_name, name, key in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{name}")
                self.missing_keys.add(key)
                continue
            setattr(module, name, self._wrap(key, fn))
            saved.append((module, name, fn))
        try:
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    # results

    def absent(self) -> set[str]:
        """Per-layer metric names that depend on a missing target."""
        return {name for name, (_, keys) in PER_LAYER.items()
                if keys & self.missing_keys}

    def objective_count(self, kind: str, scope: str) -> int:
        return sum(n for (k, s, _), n in self.objective_calls.items()
                   if k == kind and s == scope)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the op since the last reset.

        Absent metrics read 0; ``absent()`` names them.
        """
        s = self.self_s
        rows = self.kernel_rows
        mini_batch_calls = (self.objective_count("grad", "batch")
                            + self.objective_count("loss", "batch"))
        steps = self.search["steps"]
        inner = self.search["inner_loops"]
        h = self.harness_objective_s
        return {
            "kernels.calls": self.calls["kernels"],
            "kernels.rows": rows,
            "kernels.self_s": s["kernels"],
            "kernels.ns_per_row": s["kernels"] / rows * 1e9 if rows else 0.0,
            "kernels.bytes_computed": ROW_BYTES * rows,
            "objective.grad_calls.batch": self.objective_count("grad", "batch"),
            "objective.loss_calls.batch": self.objective_count("loss", "batch"),
            "objective.grad_calls.full": self.objective_count("grad", "full"),
            "objective.loss_calls.full": self.objective_count("loss", "full"),
            "objective.self_s": s["objective"],
            "objective.calls_per_batch": (mini_batch_calls / self.batches
                                          if self.batches else 0.0),
            "problems.gen_s": s["problems.gen"],
            "problems.batch_draw_s": s["problems.batch_draw"],
            "probe.calls": self.calls["probe"],
            "probe.self_s": s["probe"],
            "search.steps": steps,
            "search.inner_loops": inner,
            "search.self_s": s["search"],
            "search.useful_ratio": steps / inner if inner else 0.0,
            "search.capped": self.search["capped"],
            "search.zoom_in_share": (self.search["zoom_in"] / steps
                                     if steps else 0.0),
            "core.angular_deviation.calls":
                self.calls["core.angular_deviation"],
            "core.angular_deviation.self_s": s["core.angular_deviation"],
            "core.threshold.self_s": s["core.threshold"],
            "core.rms_grad_norm.self_s": s["core.rms_grad_norm"],
            "baselines.steps": self.calls["baselines"],
            "baselines.self_s": s["baselines"],
            "harness.self_s": s["harness"] + s["harness.write_trace"],
            "harness.stop_check_s": (h[("grad", "batch")] + h[("grad", "full")]
                                     + self.total_s["core.rms_grad_norm"]),
            "harness.full_loss_s": h[("loss", "full")],
            "harness.batch_loss_s": h[("loss", "batch")],
            "harness.write_trace_s": s["harness.write_trace"],
            "harness.trace_bytes": self.trace_bytes,
            "cli.self_s": s["cli"],
        }


class _TracedObjective:
    """Objective proxy: each loss and grad call is an ``objective`` span."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def loss(self, theta, batch=None):
        return self._tracer.objective_call("loss", self._inner.loss, theta,
                                           batch)

    def grad(self, theta, batch=None):
        return self._tracer.objective_call("grad", self._inner.grad, theta,
                                           batch)


class _TracedStream:
    """Batch-stream proxy: each draw is a ``problems.batch_draw`` span."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __iter__(self):
        tracer = self._tracer
        batches = iter(self._inner)
        while True:
            batch = tracer._call("problems.batch_draw", next, (batches,), {})
            if batch is not None:
                tracer.batches += 1
            yield batch
