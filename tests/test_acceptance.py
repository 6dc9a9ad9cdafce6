"""End-to-end acceptance suite.

Each test checks one numbered criterion and prints a single PASS/FAIL line.
Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
for passing criteria as well).
"""
import math
import time

import numpy as np
import pytest

from bfeopt.baselines import BaselineConfig, nesterov_step, sgd_step
from bfeopt.bfe_grad import AdaBfeOptimizer, BfeGradConfig, BfeGradOptimizer, \
    grad_probe
from bfeopt.bfe_loss import BfeLossConfig, BfeLossOptimizer, CommitPolicy, \
    bfe_step, loss_pair_zoom_in, loss_pair_zoom_out
from bfeopt.cli import main
from bfeopt.core import angular_deviation
from bfeopt.harness import RunConfig, run_experiment
from bfeopt.problems import LinRegSpec, gen_linear_data, linreg_objective, \
    quadratic_objective

from gradcheck import grad_check
from test_bfe_loss import oracle_run

THRESHOLD = 1.05  # 1.05 x the noise floor sigma^2 = 1 of the seeded dataset


def _report(num, name, ok, detail):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _linreg_cfg(**kw):
    base = dict(problem="linreg", batch_size=512, seed=42, n_samples=10000,
                noise_std=1.0, loss_threshold=THRESHOLD)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def bfe_run():
    start = time.perf_counter()
    _, summary = run_experiment(_linreg_cfg(optimizer="bfe", max_steps=2000))
    return summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def sgd_run():
    start = time.perf_counter()
    _, summary = run_experiment(_linreg_cfg(optimizer="sgd", alpha=0.001,
                                            max_steps=8000))
    return summary, time.perf_counter() - start


def test_criterion_1_speedup_vs_sgd(bfe_run, sgd_run):
    bfe, t_bfe = bfe_run
    sgd, t_sgd = sgd_run
    ok = (bfe.steps_to_threshold is not None
          and sgd.steps_to_threshold is not None
          and sgd.steps_to_threshold / bfe.steps_to_threshold >= 4.0
          and t_bfe + t_sgd < 10.0)
    _report(1, "speedup vs sgd", ok,
            f"sgd={sgd.steps_to_threshold} bfe={bfe.steps_to_threshold} "
            f"ratio>=4, runtime={t_bfe + t_sgd:.2f}s<10s")


def test_criterion_2_inner_loop_statistics(bfe_run):
    summary, _ = bfe_run
    hist = summary.inner_loop_histogram
    total = sum(hist.values())
    low_mass = (hist.get(1, 0) + hist.get(2, 0)) / total
    ok = 1.0 <= summary.mean_inner_loops <= 4.0 and low_mass > 0.5
    _report(2, "inner-loop statistics", ok,
            f"mean={summary.mean_inner_loops:.3f} in [1,4], "
            f"mass(1,2)={low_mass:.0%}>50%")


def test_criterion_3_nesterov_ordering(bfe_run):
    start = time.perf_counter()
    steps = []
    for beta in (0.0, 0.5, 0.9):
        _, s = run_experiment(_linreg_cfg(optimizer="nesterov", alpha=0.001,
                                          beta=beta, max_steps=8000))
        steps.append(s.steps_to_threshold)
    elapsed = time.perf_counter() - start
    bfe_steps = bfe_run[0].steps_to_threshold
    ok = (all(s is not None for s in steps)
          and steps[0] >= steps[1] >= steps[2]
          and bfe_steps < steps[2]
          and elapsed < 20.0)
    _report(3, "nesterov ordering", ok,
            f"beta 0.0/0.5/0.9 -> {steps} non-increasing, "
            f"bfe={bfe_steps}<{steps[2]}, runtime={elapsed:.2f}s<20s")


def test_criterion_4_normalization_effect(bfe_run):
    _, s = run_experiment(_linreg_cfg(optimizer="bfe", max_steps=2000,
                                      normalize=True))
    raw = bfe_run[0].steps_to_threshold
    ok = s.steps_to_threshold is not None and s.steps_to_threshold <= raw
    _report(4, "normalization effect", ok,
            f"normalized={s.steps_to_threshold}<=unnormalized={raw}")


def test_criterion_5_quadratic_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for h in (0.1, 1.0, 10.0):
        for eta0 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            for theta0 in (1.0, -1.0, 10.0, -10.0):
                for commit in ("half_step", "full_step"):
                    obj = quadratic_objective([h])
                    cfg = BfeLossConfig(eta0=eta0,
                                        commit_policy=CommitPolicy(commit))
                    opt = BfeLossOptimizer(cfg)
                    theta = np.array([theta0])
                    branches = set()
                    for exp_theta, exp_eta, exp_inner in \
                            oracle_run(h, theta0, eta0, steps=10,
                                       commit=commit):
                        out = opt.step(obj, theta, None)
                        theta = out.theta_next
                        branches.add(out.branch)
                        assert out.inner_loops == exp_inner
                        scale = max(abs(exp_eta), 1e-300)
                        worst = max(worst,
                                    abs(out.eta_next - exp_eta) / scale)
                        tscale = max(abs(exp_theta), 1e-300)
                        worst = max(worst,
                                    abs(theta[0] - exp_theta) / tscale)
                        cases += 1
                    assert len(branches) == 2  # both branches exercised
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(5, "quadratic oracle equivalence", ok,
            f"{cases} steps over 120 runs, worst rel err {worst:.2e}<=1e-12, "
            f"runtime={elapsed:.2f}s<1s")


def test_criterion_6_angular_identity():
    rng = np.random.default_rng(123)
    g = rng.standard_cauchy(300000)
    gs = rng.standard_cauchy(300000)
    keep = 1.0 + g * gs > 0.0
    g, gs = g[keep][:100000], gs[keep][:100000]
    assert g.size == 100000
    got = angular_deviation(g, gs)
    expected = np.abs(np.arctan(g) - np.arctan(gs))
    worst = float(np.max(np.abs(got - expected)))
    full = angular_deviation(rng.standard_cauchy(100000),
                             rng.standard_cauchy(100000))
    in_range = bool(np.all(full >= 0.0) and np.all(full <= math.pi / 2))
    singular = angular_deviation(2.0, -0.5) == math.pi / 2
    ok = worst <= 1e-12 and in_range and singular
    _report(6, "angular-metric identity", ok,
            f"{g.size} pairs, worst err {worst:.2e}<=1e-12, "
            f"range ok={in_range}, singular exact={singular}")


def test_criterion_7_rate_lattice():
    worst = 0.0
    for base in (2, 3, 10):
        obj = quadratic_objective([1.0])
        cfg = BfeLossConfig(eta0=0.001, base=base)
        opt = BfeLossOptimizer(cfg)
        theta = np.array([1.0])
        for _ in range(1000):
            out = opt.step(obj, theta, None)
            theta = out.theta_next
            k = math.log(out.eta_next / cfg.eta0) / math.log(base)
            worst = max(worst, abs(k - round(k)))
        aobj = quadratic_objective([1.0, 100.0])
        acfg = BfeGradConfig(eta0=0.001, base=base)
        aopt = AdaBfeOptimizer(acfg, dim=2)
        atheta = np.array([1.0, 1.0])
        for _ in range(1000):
            aout = aopt.step(aobj, atheta, None)
            atheta = aout.theta_next
            for eta in aout.rates_next:
                k = math.log(eta / acfg.eta0) / math.log(base)
                worst = max(worst, abs(k - round(k)))
    ok = worst < 1e-9
    _report(7, "rate lattice", ok,
            f"bases 2/3/10, 1000-step bfe and adabfe runs, "
            f"worst offset {worst:.2e}<1e-9")


def test_criterion_8_baseline_reductions():
    cfg_n = _linreg_cfg(optimizer="nesterov", alpha=0.001, beta=0.0,
                        max_steps=500)
    cfg_s = _linreg_cfg(optimizer="sgd", alpha=0.001, max_steps=500)
    trace_n, _ = run_experiment(cfg_n)
    trace_s, _ = run_experiment(cfg_s)
    bitwise = trace_n == trace_s

    obj = quadratic_objective([3.0])
    gopt = BfeGradOptimizer(BfeGradConfig(eta0=0.001))
    aopt = AdaBfeOptimizer(BfeGradConfig(eta0=0.001), dim=1)
    gtheta, atheta = np.array([1.0]), np.array([1.0])
    stepwise = True
    for _ in range(50):
        gout = gopt.step(obj, gtheta, None)
        aout = aopt.step(obj, atheta, None)
        gtheta, atheta = gout.theta_next, aout.theta_next
        stepwise &= (gtheta[0] == atheta[0]
                     and gout.eta_next == aout.rates_next[0]
                     and gout.inner_loops == aout.inner_loops)
    ok = bitwise and stepwise
    _report(8, "baseline reductions", ok,
            f"nesterov(beta=0)==sgd bitwise={bitwise}, "
            f"adabfe(1d)==bfe-grad stepwise={stepwise}")


def test_criterion_9_gradient_correctness():
    data = gen_linear_data(LinRegSpec(seed=7, n=2000))
    lin = linreg_objective(data)
    quad = quadratic_objective([0.5, 3.0, 20.0])
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, grad_check(lin, rng.normal(0, 5, 2)))
        worst = max(worst, grad_check(quad, rng.normal(0, 5, 3)))
    ok = worst <= 1e-6
    _report(9, "gradient correctness", ok,
            f"100 random points each, worst rel err {worst:.2e}<=1e-6")


def test_criterion_10_cli_determinism(tmp_path):
    argv = ["optimize", "--optimizer", "bfe", "--problem", "linreg",
            "--seed", "42", "--max-steps", "60", "--batch-size", "512"]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(pa)]) == 0
    assert main(argv + ["--out", str(pb)]) == 0
    ok = pa.read_bytes() == pb.read_bytes()
    _report(10, "cli determinism", ok,
            f"repeated optimize traces byte-identical={ok}")


def test_criterion_11_evaluation_budget(counting):
    obj = counting(quadratic_objective([1.0]))
    out = bfe_step(obj, np.array([1.0]), 0, BfeLossConfig(eta0=0.1), None)
    loss_ok = (obj.grad_calls == 1 + out.inner_loops
               and obj.loss_calls == 2 * out.inner_loops)
    obj.reset()
    loss_pair_zoom_in(obj, np.array([1.0]), 0.1, None)
    pair_in_ok = (obj.grad_calls, obj.loss_calls) == (2, 2)
    obj.reset()
    loss_pair_zoom_in(obj, np.array([1.0]), 0.1, None, g=np.array([1.0]))
    pair_given_ok = (obj.grad_calls, obj.loss_calls) == (1, 2)
    obj.reset()
    loss_pair_zoom_out(obj, np.array([1.0]), 0.1, None)
    pair_out_ok = (obj.grad_calls, obj.loss_calls) == (2, 2)
    obj.reset()
    grad_probe(obj, np.array([1.0]), 0.01, None)
    probe_ok = (obj.grad_calls, obj.loss_calls) == (2, 0)
    obj.reset()
    sgd_step(obj, np.array([1.0]), BaselineConfig(alpha=0.1), None)
    sgd_ok = obj.grad_calls == 1
    obj.reset()
    nesterov_step(obj, np.array([1.0]), np.zeros(1),
                  BaselineConfig(alpha=0.1), None)
    nest_ok = obj.grad_calls == 1
    ok = all((loss_ok, pair_in_ok, pair_given_ok, pair_out_ok, probe_ok,
              sgd_ok, nest_ok))
    _report(11, "evaluation budget", ok,
            "1 base grad + (1 grad, 2 losses) per loss-bfe inner loop, "
            "2 grads per probe, 1 grad per baseline step")
