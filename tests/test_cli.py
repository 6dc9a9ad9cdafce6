import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import stat
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfeopt import cli, harness
from bfeopt.cli import main
from bfeopt.harness import FIELD_TYPES, OPTIMIZERS, PROBLEMS, RunConfig, \
    field_type

SRC = Path(__file__).resolve().parent.parent / "src"


def _optimize(tmp_path, name, extra=()):
    out = tmp_path / name
    argv = ["optimize", "--optimizer", "bfe", "--problem", "linreg",
            "--seed", "42", "--max-steps", "40", "--n-samples", "2000",
            "--out", str(out)] + list(extra)
    assert main(argv) == 0
    return out.read_bytes()


def test_optimize_writes_deterministic_trace(tmp_path, capsys):
    a = _optimize(tmp_path, "a.csv")
    b = _optimize(tmp_path, "b.csv")
    assert a == b
    assert b"step,batch_loss,full_loss,eta,inner_loops,grad_norm" in a
    out = capsys.readouterr().out
    assert "mean_inner_loops=" in out


def test_optimize_seed_changes_trace(tmp_path):
    a = _optimize(tmp_path, "a.csv")
    c = _optimize(tmp_path, "c.csv", ["--seed", "43"])
    assert a != c


def test_summary_subcommand(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["optimize", "--problem", "quadratic", "--optimizer", "sgd",
                 "--alpha", "0.1", "--curvatures", "1.0", "--theta0", "1.0",
                 "--max-steps", "100", "--lim-zero", "1e-9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["summary", "--trace", str(out),
                 "--loss-threshold", "1e-3"]) == 0
    text = capsys.readouterr().out
    assert "steps_to_threshold=" in text
    assert "none" not in text.splitlines()[0]


def test_optimize_prints_its_evaluations_and_summary_does_not(tmp_path,
                                                              capsys):
    out = tmp_path / "t.csv"
    assert main(["optimize", "--optimizer", "adabfe", "--problem",
                 "quadratic", "--curvatures", "0.1,1,10", "--theta0", "1,1,1",
                 "--lim-zero", "1e-9", "--max-steps", "20",
                 "--out", str(out)]) == 0
    # one stop-check gradient (the later ones are carried), one per inner
    # pass, and one loss per step
    assert capsys.readouterr().out.splitlines()[:3] == [
        "steps_to_threshold=none", "grad_evals=80", "loss_evals=20"]
    assert main(["summary", "--trace", str(out),
                 "--loss-threshold", "1e-3"]) == 0
    assert "_evals=" not in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_summary_non_finite_threshold_is_a_config_error(value, tmp_path,
                                                        capsys):
    out = tmp_path / "t.csv"
    assert main(["optimize", "--problem", "quadratic", "--optimizer", "sgd",
                 "--alpha", "0.1", "--max-steps", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    # ``=`` keeps argparse from reading "-inf" as a flag
    assert main(["summary", "--trace", str(out),
                 f"--loss-threshold={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: loss_threshold must be "
                            f"float | None, not {float(value)!r}\n")
    assert captured.out == ""


def test_summary_missing_file_is_config_error(capsys):
    assert main(["summary", "--trace", "/nonexistent/trace.csv",
                 "--loss-threshold", "1.0"]) == 2


def test_compare_subcommand(tmp_path, capsys):
    cfgs = [{"optimizer": "sgd", "problem": "quadratic", "alpha": 0.1,
             "curvatures": [1.0], "theta0": [1.0], "max_steps": 300,
             "lim_zero": 1e-12},
            {"optimizer": "bfe", "problem": "quadratic",
             "curvatures": [1.0], "theta0": [1.0], "max_steps": 300,
             "lim_zero": 1e-12}]
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps(cfgs))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1e-6", "--out", str(out)]) == 0
    table = out.read_text()
    assert table == capsys.readouterr().out
    assert "sgd/bfe," in table


def test_compare_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2


def test_compare_unknown_field_exits_2(tmp_path, capsys):
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps([{"optimizer": "sgd", "frobnicate": 1}]))
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2


@pytest.mark.parametrize("entry, twice", [
    ({"max_steps": 5, "max-steps": 50},
     "max_steps is given twice, as 'max_steps' and 'max-steps'"),
    ({"epsilon": 0.5, "eps_ratio": 0.002},
     "eps_ratio is given twice, as 'epsilon' and 'eps_ratio'")])
def test_compare_field_given_twice_exits_2(tmp_path, capsys, entry, twice):
    # the last spelling would win silently: 50 steps, or eps_ratio 0.002
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps([{"optimizer": "bfe", "problem": "quadratic",
                                 **entry}]))
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2
    assert capsys.readouterr().err == f"config error: {twice}\n"


def test_compare_non_object_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps([{"optimizer": "sgd"}, [1, 2]]))
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, kind", [
    ("null", "null"), ("5", "a number"), ('"abc"', "a string"),
    ('{"optimizer": "sgd"}', "an object")])
def test_compare_configs_that_are_not_a_list_exit_2(tmp_path, capsys, text,
                                                    kind):
    path = tmp_path / "cfgs.json"
    path.write_text(text)
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2
    assert capsys.readouterr().err == (
        f"config error: --configs must hold a JSON list, not {kind}\n")


def test_bad_theta0_dimension_exits_2(capsys):
    assert main(["optimize", "--problem", "quadratic",
                 "--curvatures", "1.0,2.0", "--theta0", "1.0"]) == 2


def test_value_starting_with_minus_needs_the_equals_form(tmp_path,
                                                         monkeypatch, capsys):
    seen = []
    run = cli.run_experiment

    def record(cfg):
        seen.append(cfg)
        return run(cfg)

    monkeypatch.setattr(cli, "run_experiment", record)
    argv = ["optimize", "--problem", "quadratic", "--curvatures", "1,2",
            "--max-steps", "5", "--out", str(tmp_path / "t.csv")]
    assert main([*argv, "--theta0=-1,2"]) == 0
    assert seen[0].theta0 == (-1.0, 2.0)
    capsys.readouterr()
    # with a space, argparse reads "-1,2" as a flag
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--theta0", "-1,2"])
    assert exc.value.code == 2
    assert "argument --theta0: expected one argument" in \
        capsys.readouterr().err


def test_optimizer_failure_exits_3(tmp_path, capsys):
    # the first trial step overflows the stiff dimension's loss
    rc, caught = _main_and_warnings([
        "optimize", "--problem", "quadratic", "--curvatures", "1e300,1",
        "--theta0", "1,1", "--max-steps", "50"])
    assert rc == 3
    assert caught and all(w[0] is RuntimeWarning and "overflow" in w[1]
                          for w in caught)
    assert capsys.readouterr().err == (
        "optimizer failure at step 1: non-finite trial loss at eta=0.001\n")


def test_adabfe_with_a_slow_coupled_step_reaches_the_threshold(capsys):
    # with normalized features the bias dimension's search at step 3 takes
    # 69 passes down to the lowest rate, where it stays until step 11; the
    # run goes on and reaches the threshold
    assert main(["optimize", "--optimizer", "adabfe", "--problem", "linreg",
                 "--normalize", "--n-samples", "2000", "--seed", "0",
                 "--max-steps", "300", "--loss-threshold", "1.05"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "steps_to_threshold=56"
    assert "capped_steps=5" in out


def test_run_held_at_the_cap_exits_0_and_counts_its_capped_steps(capsys):
    # step 2's zoom-out climbs 61 passes from 5e-291 to the highest rate,
    # about 1.2e-272; every later step starts there and stays capped
    assert main(["optimize", "--problem", "quadratic", "--curvatures", "1,2",
                 "--eta0", "1e-290", "--max-steps", "300"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "steps_to_threshold=none", "grad_evals=1", "loss_evals=1",
        "capped_steps=299", "mean_inner_loops=1.2",
        "inner_loop_histogram=1:299,61:1", "final_loss=1.5"]


@pytest.mark.parametrize("epsilon", ["0", "-1"])
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_epsilon_must_be_positive_for_every_optimizer(optimizer, epsilon,
                                                      capsys):
    assert main(["optimize", "--optimizer", optimizer, "--problem",
                 "quadratic", "--max-steps", "3", "--epsilon", epsilon]) == 2
    assert capsys.readouterr().err == \
        "config error: eps_ratio must be positive\n"


def test_converged_start_exits_0_and_its_trace_holds_no_loss(tmp_path,
                                                             capsys):
    out = tmp_path / "t.csv"
    assert main(["optimize", "--problem", "quadratic", "--curvatures", "1,2",
                 "--theta0", "0,0", "--loss-threshold", "1",
                 "--out", str(out)]) == 0
    # the stop-check gradient and the full loss at the start
    assert capsys.readouterr().out.splitlines() == [
        "steps_to_threshold=0", "grad_evals=1", "loss_evals=1",
        "capped_steps=0", "mean_inner_loops=0", "inner_loop_histogram=",
        "final_loss=0"]
    assert out.read_text().endswith(
        "\nstep,batch_loss,full_loss,eta,inner_loops,grad_norm\n")
    assert main(["summary", "--trace", str(out),
                 "--loss-threshold", "1"]) == 2
    assert capsys.readouterr().err == "config error: empty trace\n"


@pytest.mark.parametrize("optimizer", ["bfe", "bfe-zoomin", "bfe-grad",
                                       "adabfe"])
def test_max_inner_below_one_is_a_config_error(optimizer, tmp_path, capsys):
    # the lattice's caps end every search, so no pass budget is set: a
    # max_inner of any value, as a flag or a compare key, is an error
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--optimizer", optimizer, "--max-inner", "0",
              "--max-steps", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-inner 0" in capsys.readouterr().err
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps([{"optimizer": optimizer, "max_inner": 60},
                                {"optimizer": "sgd"}]))
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2
    assert "unexpected keyword argument 'max_inner'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, caps", [
    (("--base", "1000000"), "0.0 and inf"),
    (("--eta0", "5e-324"), f"0.0 and {5e-324 * 2.0 ** 60!r}"),
])
@pytest.mark.parametrize("optimizer", ["bfe", "bfe-zoomin", "bfe-grad",
                                       "adabfe"])
def test_rate_lattice_beyond_the_floats_is_a_config_error(optimizer, argv,
                                                          caps, tmp_path,
                                                          capsys):
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--optimizer", optimizer, "--problem",
                 "quadratic", "--curvatures", "1,2", *argv,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: eta0=")
    assert f" at {caps}; they must be positive and finite\n" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0", "-1"])
@pytest.mark.parametrize("optimizer", ["sgd", "nesterov", "adam"])
def test_baseline_alpha_must_be_positive(optimizer, alpha, capsys):
    assert main(["optimize", "--optimizer", optimizer, "--alpha", alpha,
                 "--max-steps", "5"]) == 2
    assert capsys.readouterr().err == "config error: alpha must be positive\n"


# flags that the chosen optimizer does not read, each out of its range
UNREAD_FLAGS = [
    (("sgd", "--eta0", "-1"), "eta0 must be positive"),
    (("bfe", "--alpha", "-5", "--beta", "7"), "beta must be in [0, 1)"),
    (("bfe-grad", "--beta", "-0.5"), "beta must be in [0, 1)"),
    (("adabfe", "--beta", "1"), "beta must be in [0, 1)"),
    (("bfe", "--alpha", "-5"), "alpha must be positive"),
    (("adam", "--base", "1", "--pre-halve"), "base must be >= 2"),
    (("nesterov", "--base", "-3"), "base must be >= 2"),
    (("sgd", "--angle-threshold-deg", "100"),
     "angle_threshold_deg must be in (0, 90)"),
    (("bfe", "--angle-threshold-deg", "100"),
     "angle_threshold_deg must be in (0, 90)"),
    # a positive angle that is 0 in radians
    (("bfe-grad", "--angle-threshold-deg", "5e-324"),
     "angle_threshold_deg must be in (0, 90)"),
    (("bfe", "--problem", "quadratic", "--n-samples", "0"),
     "n_samples must be >= 1"),
    (("bfe", "--problem", "quadratic", "--noise-std", "-1"),
     "noise_std must be nonnegative and finite"),
    (("bfe", "--curvatures", "-1"), "curvatures must be positive"),
    # the lattice's caps: 1e300 * 2**60 is beyond the floats
    (("sgd", "--eta0", "1e300"),
     f"eta0=1e+300 and base=2 put the rate caps eta0*base**-60 and "
     f"eta0*base**60 at {1e300 * 2.0 ** -60!r} and inf; they must be "
     f"positive and finite"),
]


@pytest.mark.parametrize("argv, message", UNREAD_FLAGS,
                         ids=[" ".join(argv) for argv, _ in UNREAD_FLAGS])
def test_a_flag_the_optimizer_does_not_read_is_checked(argv, message,
                                                       tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--optimizer", *argv, "--max-steps", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


finite = functools.partial(st.floats, allow_infinity=False)
# an out-of-range value of each ranged RunConfig field, by its flag
OUT_OF_RANGE = {
    "--batch-size": st.integers(max_value=0),
    "--max-steps": st.integers(max_value=0),
    "--lim-zero": finite(max_value=0.0),
    # a rate cap, eta0 * 2**60, beyond the floats
    "--eta0": finite(max_value=0.0) | finite(min_value=1e291),
    "--base": st.integers(max_value=1),
    "--epsilon": finite(max_value=0.0),
    "--angle-threshold-deg": finite(max_value=0.0) | finite(min_value=90.0),
    "--beta": finite(max_value=-1e-300) | finite(min_value=1.0),
    "--alpha": finite(max_value=0.0),
    "--n-samples": st.integers(max_value=0),
    "--noise-std": finite(max_value=-1e-300),
    "--seed": st.integers(max_value=-1),
    "--curvatures": finite(max_value=0.0),
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(optimizer=st.sampled_from(OPTIMIZERS),
       problem=st.sampled_from(PROBLEMS),
       bad=st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
           lambda flag: st.tuples(st.just(flag), OUT_OF_RANGE[flag])))
def test_any_out_of_range_flag_is_a_config_error(optimizer, problem, bad,
                                                 tmp_path):
    flag, value = bad
    out = tmp_path / "trace.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["optimize", "--optimizer", optimizer, "--problem",
                   problem, "--max-steps", "1", f"{flag}={value!r}",
                   "--out", str(out)])
    assert rc == 2
    assert err.getvalue().startswith("config error: ")
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
    assert not out.exists()


@pytest.mark.parametrize("problem", ["linreg", "quadratic"])
def test_a_negative_seed_is_a_config_error(problem, capsys):
    assert main(["optimize", "--problem", problem, "--seed=-1",
                 "--max-steps", "3"]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0\n"


# 711 PiB of float64 samples: beyond any 64-bit address space, so numpy
# refuses the allocation before it touches memory
HUGE_N = "100000000000000000"


def test_a_dataset_too_large_to_allocate_is_a_config_error(tmp_path,
                                                           capsys):
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--optimizer", "sgd", "--n-samples", HUGE_N,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate 711. PiB")
    assert err.count("\n") == 1
    assert not out.exists()
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps([{"optimizer": o, "n_samples": int(HUGE_N)}
                                for o in ("sgd", "bfe")]))
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate 711. PiB")
    assert err.count("\n") == 1


def _main_and_warnings(argv):
    """Exit code of ``main(argv)`` and every warning it raised, in order, as
    (category, message) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, [(w.category, str(w.message)) for w in caught]


_DOT = (RuntimeWarning, "overflow encountered in dot")
_MULTIPLY = (RuntimeWarning, "overflow encountered in multiply")
# every warning a diverging run below raises before it fails, in order
_DIVERGED_WARNINGS = {"bfe-grad": [_DOT, _MULTIPLY, _MULTIPLY],
                      "adabfe": [_DOT] + [_MULTIPLY] * 4,
                      "adam": [_DOT, _MULTIPLY]}


def test_non_finite_gradient_failure_names_dims_and_rates(capsys):
    # the first trial step of the stiff dimension overflows its gradient
    # while the loss at the starting point is still finite
    rc, caught = _main_and_warnings([
        "optimize", "--optimizer", "adabfe", "--problem", "quadratic",
        "--curvatures", "1e300,1", "--theta0", "1,1", "--eta0", "1"])
    assert rc == 3
    assert caught == [_DOT, _MULTIPLY]
    assert capsys.readouterr().err == (
        "optimizer failure at step 1: non-finite gradient at joint trial "
        "point in dims [0] at rates [1.0]\n")


@pytest.mark.parametrize("argv, failure", [
    (("bfe-grad", "--curvatures", "1e6", "--max-steps", "10"),
     "optimizer failure at step 8: non-finite loss at the committed point "
     f"(full inf, batch inf) at rate {2.0 ** 60!r}; last finite full loss "
     "6.894551539753719e+305\n"),
    # the stiff dimension's rate climbs to its cap; the run stops at the
    # first committed point whose loss overflows, before a probe's gradient
    # does (step 14)
    (("adabfe", "--curvatures", "1e6,1,1e-6", "--theta0", "1,1,1"),
     "optimizer failure at step 8: non-finite loss at the committed point "
     "(full inf, batch inf) at rate 3.843071682029814e+17; last finite full "
     "loss 6.894551539753719e+305\n"),
    # the stiff dimension's squared gradient overflows Adam's second moment,
    # which would leave that coordinate where it started and exit 0
    (("adam", "--curvatures", "1e308,1", "--max-steps", "20"),
     "optimizer failure at step 1: non-finite Adam second moment in dims "
     "[0]\n"),
])
def test_diverged_run_is_an_optimizer_failure(argv, failure, tmp_path,
                                              capsys):
    out = tmp_path / "trace.csv"
    # the overflow warnings before the failure are still printed
    rc, caught = _main_and_warnings([
        "optimize", "--optimizer", *argv, "--problem", "quadratic",
        "--eta0", "1", "--out", str(out)])
    assert rc == 3
    assert caught == _DIVERGED_WARNINGS[argv[0]]
    assert capsys.readouterr().err == failure
    assert not out.exists()


@pytest.mark.parametrize("entry", [{"max_steps": "3"}, {"eta0": "x"},
                                   {"eta0": "0.5"}, {"normalize": "true"},
                                   {"max_steps": True}, {"eta0": None},
                                   {"curvatures": [1.0, "a"]}])
def test_compare_wrong_value_type_exits_2(tmp_path, capsys, entry):
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps([{"optimizer": "bfe", **entry},
                                {"optimizer": "sgd"}]))
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {next(iter(entry))} must be ")
    assert "Traceback" not in err


def _trace_with_row(tmp_path, row):
    path = tmp_path / "t.csv"
    path.write_text("# seed=0\n"
                    "step,batch_loss,full_loss,eta,inner_loops,grad_norm\n"
                    "1,2.0,2.0,0.001,1,1.0\n" + row + "\n")
    return path


@pytest.mark.parametrize("row", ["2,1.5,1.5,0.001",
                                 "2,1.5,oops,0.001,1,1.0",
                                 "2,1.5,nan,0.001,1,1.0",
                                 "2,inf,1.5,0.001,1,1.0",
                                 "2,1.5,-inf,0.001,1,1.0"])
def test_summary_bad_row_is_config_error(tmp_path, capsys, row):
    path = _trace_with_row(tmp_path, row)
    assert main(["summary", "--trace", str(path),
                 "--loss-threshold", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{path} line 4" in err
    assert "Traceback" not in err


# The optimize flags written out by hand, as the reference the generated
# parser must match: flag -> (RunConfig field, default, choices).
PARENT_FLAGS = {
    "--optimizer": ("optimizer", "bfe", ("bfe", "bfe-zoomin", "bfe-grad",
                                         "adabfe", "sgd", "nesterov", "adam")),
    "--problem": ("problem", "linreg", ("linreg", "quadratic")),
    "--eta0": ("eta0", 0.001, None),
    "--epsilon": ("eps_ratio", 0.001, None),
    "--epsilon-v-policy": ("eps_val_policy", "mean_scaled",
                           ("mean_scaled", "min_scaled", "constant",
                            "epoch_decay")),
    "--commit-policy": ("commit_policy", "half_step",
                        ("half_step", "full_step")),
    "--reset-policy": ("reset_policy", "double_prev_eta",
                       ("prev_eta", "double_prev_eta")),
    "--base": ("base", 2, None),
    "--angle-threshold-deg": ("angle_threshold_deg", 1.0, None),
    "--threshold-mode": ("threshold_mode", "absolute",
                         ("absolute", "relative")),
    "--zoom-out-exit": ("zoom_out_exit", "halve_commit_trial",
                        ("halve_commit_trial", "quarter_fresh_step")),
    "--pre-halve": ("pre_halve", False, None),
    "--batch-size": ("batch_size", 512, None),
    "--seed": ("seed", 0, None),
    "--max-steps": ("max_steps", 1000, None),
    "--lim-zero": ("lim_zero", 0.001, None),
    "--beta": ("beta", 0.9, None),
    "--alpha": ("alpha", 0.001, None),
    "--w0": ("w0", 5.0, None),
    "--b0": ("b0", 9.0, None),
    "--noise-std": ("noise_std", 1.0, None),
    "--n-samples": ("n_samples", 10000, None),
    "--normalize": ("normalize", False, None),
    "--curvatures": ("curvatures", (1.0,), None),
    "--theta0": ("theta0", None, None),
    "--loss-threshold": ("loss_threshold", None, None),
    "--out": ("output_path", None, None),
}

# one non-default value per field, as a JSON value
VALUES = {
    "optimizer": "bfe-grad", "problem": "quadratic", "eta0": 0.002,
    "eps_ratio": 0.01, "eps_val_policy": "epoch_decay",
    "commit_policy": "full_step", "reset_policy": "prev_eta", "base": 3,
    "angle_threshold_deg": 2.5, "threshold_mode": "relative",
    "zoom_out_exit": "quarter_fresh_step", "pre_halve": True,
    "batch_size": 64, "seed": 7, "max_steps": 12,
    "lim_zero": 1e-6, "beta": 0.5, "alpha": 0.03, "w0": 2.0, "b0": -1.0,
    "noise_std": 0.5, "n_samples": 300, "normalize": True,
    "curvatures": [0.5, 2.0], "theta0": [1.0, -1.0], "loss_threshold": 0.25,
    "output_path": "trace.csv",
}


def test_optimize_flags_match_run_config_fields_one_to_one():
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    actions = [a for a in parser._actions if a.dest != "help"]
    assert sorted(a.dest for a in actions) == sorted(
        f.name for f in dataclasses.fields(RunConfig))
    got = {a.option_strings[0]: (a.dest, a.default,
                                 tuple(a.choices) if a.choices else None)
           for a in actions}
    assert all(len(a.option_strings) == 1 for a in actions)
    assert got == PARENT_FLAGS


def test_flag_and_json_spellings_give_equal_configs(tmp_path, monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise SystemExit

    def capture_all(cfgs, loss_threshold, out):
        seen.extend(cfgs)
        return [], ""

    monkeypatch.setattr(cli, "run_experiment", capture)
    monkeypatch.setattr(cli, "compare_runs", capture_all)
    argv = ["optimize"]
    by_flag = {}
    for flag, (name, _, _) in PARENT_FLAGS.items():
        value = VALUES[name]
        by_flag[flag[2:]] = value
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv += [flag] if value is True else [flag, str(value)]
    with pytest.raises(SystemExit):
        main(argv)
    for entry in (by_flag, VALUES):
        path = tmp_path / "cfgs.json"
        path.write_text(json.dumps([entry]))
        assert main(["compare", "--configs", str(path),
                     "--loss-threshold", "1.0"]) == 0
    from_flags, from_json_flags, from_json_fields = seen
    assert from_json_flags == from_flags
    assert from_json_fields == from_flags
    for name, value in VALUES.items():  # every field was set
        got = getattr(from_flags, name)
        assert (list(got) if isinstance(got, tuple) else got) == value


def _is_tuple(name):
    return typing.get_origin(field_type(FIELD_TYPES[name])) is tuple


# every RunConfig field set by a float or a comma-separated list of floats
FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig)
                if field_type(FIELD_TYPES[f.name]) is float
                or _is_tuple(f.name)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_flag_is_a_config_error(name, value, tmp_path,
                                                 capsys):
    flag = "--" + cli.ALIASES.get(name, name).replace("_", "-")
    # a list flag gets the value after a finite one; ``=`` keeps argparse
    # from reading "-inf" as a flag
    text = f"1.0,{value}" if _is_tuple(name) else value
    out = tmp_path / "trace.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["optimize", f"{flag}={text}", "--max-steps", "3",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must be ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("theta0", ["1", "1,2,3"])
def test_linreg_start_of_the_wrong_dimension_is_a_config_error(theta0,
                                                               capsys):
    assert main(["optimize", "--theta0", theta0, "--max-steps", "3"]) == 2
    assert capsys.readouterr().err == (
        "config error: theta0 must hold 2 values for linreg\n")


@pytest.mark.parametrize("argv, code, stderr", [
    (["--optimizer", "bfe", "--max-steps", "5"], 0, ""),
    (["--max-steps", "0"], 2, "config error: max_steps must be >= 1\n"),
    (["--optimizer", "bfe-grad", "--eta0", "1", "--seed", "42",
      "--max-steps", "20"], 3, "optimizer failure at step 9"),
], ids=["success", "config-error", "failure"])
def test_cli_process_exits_with_its_status(tmp_path, argv, code, stderr):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "bfeopt.cli", "optimize",
                           *argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == code
    assert done.stderr.startswith(stderr)
    assert code or done.stderr == ""
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("where, message", [
    ("missing/trace.csv", "is in no existing directory"),
    ("", "is a directory")])  # tmp_path itself
def test_an_out_that_cannot_be_written_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch, where, message):
    built = []
    monkeypatch.setattr(harness, "build_problem", built.append)
    out = str(tmp_path / where)
    assert main(["optimize", "--optimizer", "sgd", "--max-steps", "3000",
                 "--out", out]) == 2
    assert capsys.readouterr() == ("", f"config error: output_path {out!r} "
                                       f"{message}\n")
    assert built == []  # the objective is never built
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("second, message", [
    ("missing/b.csv", "output_path {!r} is in no existing directory"),
    ("a.csv", "compared runs must write different output_path files"),
    ("./a.csv", "compared runs must write different output_path files")],
    ids=["no-directory", "named-twice", "named-twice-spelled-apart"])
def test_compare_checks_every_out_before_its_first_run(
        tmp_path, capsys, monkeypatch, second, message):
    def run_experiment(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    second = os.path.join(tmp_path, second)
    configs = tmp_path / "cfgs.json"
    configs.write_text(json.dumps([
        {"optimizer": "sgd", "max_steps": 6000,
         "out": str(tmp_path / "a.csv")},
        {"optimizer": "bfe", "out": second}]))
    assert main(["compare", "--configs", str(configs),
                 "--loss-threshold", "1.05"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: " + message.format(second))
    assert os.listdir(tmp_path) == ["cfgs.json"]


@pytest.mark.parametrize("table, message", [
    ("missing/t.csv", "out {!r} is in no existing directory"),
    ("", "out {!r} is a directory"),
    ("./a.csv", "compared runs must write different output_path files")],
    ids=["no-directory", "a-directory", "a-run's-out"])
def test_compare_checks_its_table_path_before_its_first_run(
        tmp_path, capsys, monkeypatch, table, message):
    def run_experiment(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_experiment", run_experiment)
    table = os.path.join(tmp_path, table)
    configs = tmp_path / "cfgs.json"
    configs.write_text(json.dumps([
        {"optimizer": "sgd", "problem": "quadratic", "max_steps": 2000,
         "out": str(tmp_path / "a.csv")},
        {"optimizer": "bfe", "problem": "quadratic"}]))
    assert main(["compare", "--configs", str(configs),
                 "--loss-threshold", "1e-3", "--out", table]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: " + message.format(table))
    assert os.listdir(tmp_path) == ["cfgs.json"]


@pytest.mark.parametrize("argv", [
    ["--optimizer", "bfe-zoomin", "--curvatures", "1e-300",
     "--lim-zero", "1e-320"],
    ["--optimizer", "sgd", "--theta0", "1e-170", "--alpha", "0.5",
     "--lim-zero", "1e-300"]])
def test_a_gradient_whose_squares_underflow_is_not_taken_for_converged(
        argv, capsys):
    assert main(["optimize", "--problem", "quadratic", *argv,
                 "--max-steps", "5"]) == 0
    assert "inner_loop_histogram=1:5\n" in capsys.readouterr().out


def test_a_failed_run_leaves_the_file_at_its_out_as_it_was(tmp_path,
                                                           capsys):
    out = tmp_path / "trace.csv"
    out.write_bytes(b"# an earlier trace\r\n")
    assert main(["optimize", "--optimizer", "bfe-grad", "--eta0", "1",
                 "--seed", "42", "--out", str(out)]) == 3
    assert "at step 9" in capsys.readouterr().err
    assert out.read_bytes() == b"# an earlier trace\r\n"


def test_an_interrupted_run_leaves_the_file_at_its_out_as_it_was(
        tmp_path, monkeypatch):
    # the rows of the steps before the interrupt went to the partial file
    # only, which the interrupt deletes
    build_optimizer = harness.build_optimizer

    def interrupted(cfg, dim):
        opt = build_optimizer(cfg, dim)
        step, steps = opt.step, []

        def interrupting_step(*args, **kwargs):
            steps.append(None)
            if len(steps) == 5:
                raise KeyboardInterrupt
            return step(*args, **kwargs)

        opt.step = interrupting_step
        return opt

    monkeypatch.setattr(harness, "build_optimizer", interrupted)
    out = tmp_path / "trace.csv"
    out.write_bytes(b"# an earlier trace\r\n")
    with pytest.raises(KeyboardInterrupt):
        main(["optimize", "--optimizer", "sgd", "--max-steps", "50",
              "--out", str(out)])
    assert out.read_bytes() == b"# an earlier trace\r\n"
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_an_out_that_cannot_be_created_exits_2_before_the_first_step(
        tmp_path, capsys, counted_objectives):
    # a link into a directory that does not exist passes the check of the
    # out's own directory; the file it names cannot be created
    out = tmp_path / "trace.csv"
    out.symlink_to(tmp_path / "missing" / "trace.csv")
    assert main(["optimize", "--optimizer", "sgd", "--max-steps", "20000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: [Errno 2] No such file or directory: "
            f"{str(out)!r}\n")
    obj, = counted_objectives
    assert obj.grad_calls == 0  # no step ran
    assert os.listdir(tmp_path) == ["trace.csv"]


def test_an_out_that_is_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "runs" / "trace.csv"
    target.parent.mkdir()
    target.write_text("an earlier trace\n")
    link = tmp_path / "trace.csv"
    link.symlink_to(target)
    assert main(["optimize", "--problem", "quadratic", "--optimizer", "sgd",
                 "--max-steps", "3", "--out", str(link)]) == 0
    assert link.is_symlink() and link.readlink() == target
    _, trace = harness.read_trace(str(target))
    assert [rec.step for rec in trace] == [1, 2, 3]
    assert os.listdir(target.parent) == ["trace.csv"]


def test_an_out_that_is_a_pipe_is_written_in_place(tmp_path, capsys):
    # a pipe, like a device, is not a file that a new one can replace
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    # a reader that is open already lets the run open the pipe at once; the
    # trace is smaller than the pipe holds
    r = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["optimize", "--problem", "quadratic", "--optimizer",
                     "sgd", "--max-steps", "3", "--out", str(fifo)]) == 0
        text = os.read(r, 1 << 16).decode()
    finally:
        os.close(r)
    lines = text.splitlines()
    assert lines[0].startswith("# bfeopt_version=")
    assert lines[3] == harness.TRACE_HEADER
    assert [line.split(",")[0] for line in lines[4:]] == ["1", "2", "3"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_compare_replaces_its_table_with_a_new_file(tmp_path, capsys):
    # the table goes to a partial file that replaces the old one, so a hard
    # link to the old one keeps its text
    configs = tmp_path / "cfgs.json"
    configs.write_text(json.dumps([
        {"optimizer": "sgd", "problem": "quadratic", "alpha": 0.1},
        {"optimizer": "bfe", "problem": "quadratic"}]))
    table = tmp_path / "table.csv"
    table.write_text("an earlier table\n")
    os.link(table, tmp_path / "kept.csv")
    assert main(["compare", "--configs", str(configs),
                 "--loss-threshold", "1e-3", "--out", str(table)]) == 0
    assert table.read_text() == capsys.readouterr().out
    assert (tmp_path / "kept.csv").read_text() == "an earlier table\n"
    assert sorted(os.listdir(tmp_path)) == ["cfgs.json", "kept.csv",
                                            "table.csv"]


def test_an_empty_out_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(harness, "build_problem", built.append)
    monkeypatch.chdir(tmp_path)
    assert main(["optimize", "--optimizer", "sgd", "--problem", "quadratic",
                 "--max-steps", "3", "--out", ""]) == 2
    assert capsys.readouterr() == (
        "", "config error: output_path '' names no file\n")
    assert built == []  # the objective is never built
    assert os.listdir(tmp_path) == []


def _refuse_to_run(cfg):
    raise AssertionError("a run started")


@pytest.mark.parametrize("entry, argv, message", [
    ({"out": ""}, [], "output_path '' names no file"),
    ({}, ["--out", ""], "out '' names no file"),
    ({"loss_threshold": 1e-9}, [],
     "configs[1] sets loss_threshold 1e-09, but compared runs share the one "
     "threshold compare is given")],
    ids=["empty-entry-out", "empty-table-out", "entry-threshold"])
def test_compare_config_error_before_its_first_run(tmp_path, capsys,
                                                   monkeypatch, entry, argv,
                                                   message):
    monkeypatch.setattr(harness, "run_experiment", _refuse_to_run)
    monkeypatch.chdir(tmp_path)
    Path("cfgs.json").write_text(json.dumps([
        {"optimizer": "bfe", "problem": "quadratic"},
        {"optimizer": "sgd", "problem": "quadratic", "alpha": 0.5, **entry}]))
    assert main(["compare", "--configs", "cfgs.json",
                 "--loss-threshold", "0.3", *argv]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert os.listdir(tmp_path) == ["cfgs.json"]
