import argparse
import dataclasses
import json

import pytest

from bfeopt import cli
from bfeopt.cli import main
from bfeopt.harness import RunConfig


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


def test_compare_non_object_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "cfgs.json"
    path.write_text(json.dumps([{"optimizer": "sgd"}, [1, 2]]))
    assert main(["compare", "--configs", str(path),
                 "--loss-threshold", "1.0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_theta0_dimension_exits_2(capsys):
    assert main(["optimize", "--problem", "quadratic",
                 "--curvatures", "1.0,2.0", "--theta0", "1.0"]) == 2


def test_optimizer_failure_exits_3(tmp_path, capsys):
    # adabfe on the unnormalized regression problem stalls on the bias
    # dimension once the weight freezes; the runner must surface that
    assert main(["optimize", "--optimizer", "adabfe", "--problem", "linreg",
                 "--seed", "42", "--max-steps", "50",
                 "--n-samples", "2000"]) == 3
    err = capsys.readouterr().err
    assert "optimizer failure" in err
    assert "optimizer failure at step 3: adabfe exceeded" in err


@pytest.mark.parametrize("optimizer", ["bfe", "bfe-zoomin", "bfe-grad",
                                       "adabfe"])
def test_max_inner_below_one_is_a_config_error(optimizer, capsys):
    assert main(["optimize", "--optimizer", optimizer, "--max-inner", "0",
                 "--max-steps", "5"]) == 2
    assert capsys.readouterr().err == \
        "config error: max_inner must be >= 1\n"


@pytest.mark.parametrize("alpha", ["0", "-1"])
@pytest.mark.parametrize("optimizer", ["sgd", "nesterov", "adam"])
def test_baseline_alpha_must_be_positive(optimizer, alpha, capsys):
    assert main(["optimize", "--optimizer", optimizer, "--alpha", alpha,
                 "--max-steps", "5"]) == 2
    assert capsys.readouterr().err == "config error: alpha must be positive\n"


def test_non_finite_gradient_failure_names_dims_and_rates(capsys):
    # the first trial step of the stiff dimension overflows its gradient
    # while the loss at the starting point is still finite
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main(["optimize", "--optimizer", "adabfe", "--problem",
                   "quadratic", "--curvatures", "1e300,1",
                   "--theta0", "1,1", "--eta0", "1"])
    assert rc == 3
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
])
def test_diverged_run_is_an_optimizer_failure(argv, failure, tmp_path,
                                              capsys):
    out = tmp_path / "trace.csv"
    # the overflow warnings before the failure are still printed
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main(["optimize", "--optimizer", *argv, "--problem",
                   "quadratic", "--eta0", "1", "--out", str(out)])
    assert rc == 3
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
                                 "2,1.5,oops,0.001,1,1.0"])
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
    "--max-inner": ("max_inner", 60, None),
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
    "batch_size": 64, "seed": 7, "max_steps": 12, "max_inner": 40,
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

    def capture_all(cfgs, loss_threshold):
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
