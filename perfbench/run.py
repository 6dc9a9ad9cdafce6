"""Time-to-threshold benchmark for bfeopt.

Run from the repository root:

    python3 perfbench/run.py --workload linreg-bfe --seed 42 --seconds 30 \
        --trace 0

One op is one in-process ``bfeopt.cli.main(["optimize", ...])`` call that
stops at the first step whose ``full_loss`` reaches the workload's
threshold. An untimed calibration op at the given seed finds that step. Ops
run in a closed loop, one at a time in this process, for ``--seconds``
seconds (and at least MIN_OPS of them). Every op's exit code and trace file
are checked.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced ops with ops traced layer by layer and prints the per-layer
metrics (medians over the traced ops) and the tracing overhead. Human
readable lines come first; the last line is one JSON object.

The benchmark's own tests: ``python3 -m pytest perfbench``.

The benchmark imports bfeopt from ``src/`` of the checkout it sits in, and
exits with status 2 when that is missing.
"""
from __future__ import annotations

import os

# one thread: numpy must not start a BLAS pool behind the closed loop
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as layer_tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 11          # the tail percentile needs 10 samples beyond it
SETUP_REPEATS = 5     # fresh interpreters timed for setup_s, after a warm-up
TRACE_HEADER = "step,batch_loss,full_loss,eta,inner_loops,grad_norm"

# The median op time is printed next to tts_s.tail but not gated: on a
# shared host its run-to-run spread is wider than any bound a gate could
# use (see NOTES.md).
END_TO_END = {
    "tts_s.tail": "s",
    "grads_to_threshold": "count",
    "losses_to_threshold": "count",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

# Runs in a fresh interpreter: argv is [src dir, *workload flags]. The CLI
# parses the flags into a config; the run itself is cut off before it starts.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import bfeopt.cli as cli
from bfeopt import harness
imported = time.perf_counter()

class Captured(Exception):
    pass

def capture(cfg):
    raise Captured(cfg)

cli.run_experiment = capture
try:
    cli.main(["optimize", *sys.argv[2:]])
except Captured as exc:
    cfg = exc.args[0]
built = time.perf_counter()
theta = harness.build_problem(cfg)[1]
harness.build_optimizer(cfg, dim=theta.size)
print(repr(imported - start + time.perf_counter() - built))
"""


class BenchError(Exception):
    """The benchmark cannot define or run its ops."""


def import_cli():
    """Import ``bfeopt.cli`` from this checkout's ``src/``, or return None."""
    package = SRC / "bfeopt"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bfeopt.cli

    if Path(bfeopt.cli.__file__).resolve().parent != package.resolve():
        return None
    return bfeopt.cli


def run_op(main, argv, out, tracer=None):
    """One op. Returns (exit code or None if it raised, seconds, stdout)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    sink = io.StringIO()
    rc = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            if tracer is None:
                rc = main(argv)
                seconds = time.perf_counter() - start
            else:
                rc, seconds = tracer.run_op(main, argv)
        except Exception:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
    return rc, seconds, sink.getvalue()


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def check_trace(data, steps, threshold):
    """Problems with a trace file of an op that ran ``steps`` steps."""
    if data is None:
        return ["no trace file written"]
    lines = data.decode().split("\n")
    if len(lines) < 6 or lines[-1] != "":
        return [f"trace has {len(lines)} lines or no final newline"]
    problems = []
    meta, header, rows = lines[:3], lines[3], lines[4:-1]
    for line, prefix in zip(meta, ("# bfeopt_version=", "# seed=",
                                   "# config=")):
        if not line.startswith(prefix):
            problems.append(f"metadata line {line[:40]!r} is not {prefix!r}")
    if header != TRACE_HEADER:
        problems.append(f"header {header!r}")
    if len(rows) != steps:
        problems.append(f"{len(rows)} rows, expected {steps}")
    column = TRACE_HEADER.split(",").index("full_loss")
    final = float(rows[-1].split(",")[column])
    if not final <= threshold:
        problems.append(f"final full_loss {final!r} above {threshold!r}")
    return problems


def op_argv(wl, steps, out):
    """CLI arguments of an op of ``wl`` that runs ``steps`` steps."""
    return ["optimize", *wl.flags, "--max-steps", str(steps), "--out", out]


def calibrate(main, wl, out):
    """Steps to threshold at this seed, from an untimed op with a step cap."""
    rc, _, stdout = run_op(main, op_argv(wl, wl.calibration_steps, out), out)
    if rc != 0:
        raise BenchError(f"calibration op exited with {rc}")
    for line in stdout.splitlines():
        if line.startswith("steps_to_threshold="):
            value = line.partition("=")[2]
            if value == "none":
                raise BenchError(f"threshold {wl.threshold!r} not reached in "
                                 f"{wl.calibration_steps} steps")
            return int(value)
    raise BenchError("calibration op printed no steps_to_threshold")


def measure_setup(flags):
    """Median setup time over fresh interpreters, after one warm-up."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *flags]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise BenchError(f"setup interpreter failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def tail(samples):
    """(percentile, value): p90, or the highest percentile that still has
    10 samples beyond it when there are fewer than 100."""
    xs = sorted(samples)
    i = min(math.ceil(0.9 * len(xs)) - 1, len(xs) - 11)
    return 100.0 * (i + 1) / len(xs), xs[i]


def backend_note():
    try:
        from bfeopt import kernels
    except ImportError:
        return "absent: this version has no bfeopt.kernels"
    if kernels.BACKEND == "python":
        return "python: numpy fallback, no compiled extension is present"
    return kernels.BACKEND


class Bench:
    """The ops of one workload at one seed, and their checks."""

    def __init__(self, main, wl, seed, tmpdir):
        self.main = main
        self.wl = wl
        self.seed = seed
        self.out = os.path.join(tmpdir, "trace.csv")
        self.steps = calibrate(main, wl, self.out)
        self.argv = op_argv(wl, self.steps, self.out)
        # the counted op: traced, untimed; its trace file is the reference
        self.tracer = layer_tracer.Tracer()
        with self.tracer.installed():
            rc, _, _ = run_op(main, self.argv, self.out, self.tracer)
        self.counts = self.tracer.layer_metrics()
        self.reference = read_bytes(self.out)
        self.problems = [] if rc == 0 else [f"counted op exited with {rc}"]
        self.problems += check_trace(self.reference, self.steps, wl.threshold)
        if seed == workloads.DEFAULT_SEED and self.steps != wl.reference_steps:
            self.problems.append(
                f"steps_to_threshold {self.steps} differs from the reference "
                f"{wl.reference_steps} at the default seed")
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.attempted = 0
        self.failed = 0

    def op(self, traced=False):
        """Run and check one timed op; returns its seconds."""
        if traced:
            self.tracer.reset()
            with self.tracer.installed():
                rc, seconds, _ = run_op(self.main, self.argv, self.out,
                                        self.tracer)
        else:
            rc, seconds, _ = run_op(self.main, self.argv, self.out)
        self.attempted += 1
        ok = (rc == 0 and not self.problems
              and read_bytes(self.out) == self.reference)
        self.failed += not ok
        return seconds

    def env(self):
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "backend": backend_note(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "steps_to_threshold": self.steps,
            "threshold": self.wl.threshold,
            "missing_trace_targets": self.tracer.missing,
        }


def run_untraced(bench, seconds, setup_s):
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < MIN_OPS:
        samples.append(bench.op())
    percentile, tail_value = tail(samples)
    counts = bench.counts
    metrics = {
        "tts_s.tail": tail_value,
        "grads_to_threshold": (counts["objective.grad_calls.batch"]
                               + counts["objective.grad_calls.full"]),
        "losses_to_threshold": (counts["objective.loss_calls.batch"]
                                + counts["objective.loss_calls.full"]),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (bench.attempted - bench.failed) / bench.attempted,
    }
    notes = {"tts_s.tail": (f"p{percentile:.4g} of {len(samples)} ops; "
                            f"median {statistics.median(samples)!r} s, mean "
                            f"{statistics.fmean(samples)!r} s, best "
                            f"{min(samples)!r} s"),
             "success_rate": f"fail_rate {bench.failed}/{bench.attempted}"}
    return metrics, END_TO_END, notes


def run_traced(bench, seconds):
    plain, traced, per_op = [], [], []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or min(len(plain), len(traced)) < MIN_OPS):
        plain.append(bench.op())
        traced.append(bench.op(traced=True))
        per_op.append(bench.tracer.layer_metrics())
    units = {name: unit
             for name, (unit, _) in layer_tracer.PER_LAYER.items()}
    # median_low: a value one op measured, so counts stay whole numbers
    metrics = {name: statistics.median_low(op[name] for op in per_op)
               for name in units}
    units["trace.overhead_s"] = "s"
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    notes = {name: "absent" for name in bench.tracer.absent()}
    notes["trace.overhead_s"] = (f"{len(traced)} traced, {len(plain)} "
                                 f"untraced ops")
    return metrics, units, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    if cli is None:
        print(f"perfbench: no bfeopt package under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)
    try:
        setup_s = None if args.trace else measure_setup(wl.flags)
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=ROOT) as tmpdir:
            bench = Bench(cli.main, wl, args.seed, tmpdir)
            if args.trace:
                metrics, units, notes = run_traced(bench, args.seconds)
            else:
                metrics, units, notes = run_untraced(bench, args.seconds,
                                                     setup_s)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"env {json.dumps(bench.env(), sort_keys=True)}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {units[name]}{note}")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
