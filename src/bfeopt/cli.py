"""Command-line interface.

Subcommands:
  optimize  run one optimizer/problem configuration and write a trace CSV
  compare   run a list of configurations (JSON file) and print a comparison
  summary   summarize an existing trace file against a loss threshold

Exit codes: 0 success, 2 configuration error, 3 optimizer failure (a loss
or gradient that is not finite).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import typing

from .core import NonFiniteEvaluation
from .harness import (
    CHOICES,
    FIELD_TYPES,
    ConfigError,
    RunConfig,
    compare_runs,
    field_type,
    read_trace,
    run_experiment,
    summarize,
)

# RunConfig fields whose flag (and compare JSON key) is not the field name
ALIASES = {"eps_ratio": "epsilon", "eps_val_policy": "epsilon_v_policy",
           "output_path": "out"}
FIELD_OF_ALIAS = {alias: name for name, alias in ALIASES.items()}
HELP = {"eps_ratio": "error limit ratio scaling loss magnitudes",
        "curvatures": "comma-separated curvatures for the quadratic problem",
        "theta0": "comma-separated initial parameters",
        "output_path": "trace CSV output path"}
# how a message names the top-level value of a JSON file that is not a list;
# any other value json.load returns is a number
JSON_TYPES = {dict: "an object", str: "a string", bool: "a boolean",
              type(None): "null"}


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _flag_type(hint):
    """argparse ``type`` for a RunConfig annotation (``X | None`` -> X)."""
    kind = field_type(hint)
    return _float_tuple if typing.get_origin(kind) is tuple else kind


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, named after the field or its alias."""
    for f in dataclasses.fields(RunConfig):
        name = ALIASES.get(f.name, f.name)
        flag = "--" + name.replace("_", "-")
        help = " ".join(filter(None, (HELP.get(f.name),
                                      "(default: %(default)s)")))
        kind = _flag_type(FIELD_TYPES[f.name])
        if kind is bool:
            p.add_argument(flag, dest=f.name, action="store_true", help=help)
            continue
        choices = CHOICES.get(f.name)
        p.add_argument(flag, dest=f.name, type=kind, default=f.default,
                       choices=choices, help=help,
                       metavar=None if choices else name.upper())


def _config_from_json(d: dict) -> RunConfig:
    """A RunConfig from one compare entry, keyed by field or flag name."""
    if not isinstance(d, dict):
        raise ConfigError(f"a config must be a JSON object, not {d!r}")
    kw, keys = {}, {}
    for key, value in d.items():
        name = key.replace("-", "_")
        name = FIELD_OF_ALIAS.get(name, name)
        if name in keys:
            raise ConfigError(f"{name} is given twice, as {keys[name]!r} "
                              f"and {key!r}")
        keys[name] = key
        kw[name] = tuple(value) if isinstance(value, list) else value
    try:
        return RunConfig(**kw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _print_summary(summary) -> None:
    steps = summary.steps_to_threshold
    print(f"steps_to_threshold={steps if steps is not None else 'none'}")
    if summary.grad_evals is not None:
        print(f"grad_evals={summary.grad_evals}")
        print(f"loss_evals={summary.loss_evals}")
        print(f"capped_steps={summary.capped_steps}")
    print(f"mean_inner_loops={summary.mean_inner_loops:.6g}")
    hist = ",".join(f"{k}:{v}" for k, v in
                    sorted(summary.inner_loop_histogram.items()))
    print(f"inner_loop_histogram={hist}")
    print(f"final_loss={summary.final_loss:.17g}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
    parser = argparse.ArgumentParser(prog="bfeopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run one configuration")
    _add_config_flags(p_opt)

    p_cmp = sub.add_parser("compare", help="run and compare configurations")
    p_cmp.add_argument("--configs", required=True,
                       help="JSON file holding a list of run configs")
    p_cmp.add_argument("--loss-threshold", type=float, required=True)
    p_cmp.add_argument("--out", default=None, help="comparison CSV path")

    p_sum = sub.add_parser("summary", help="summarize an existing trace")
    p_sum.add_argument("--trace", required=True)
    p_sum.add_argument("--loss-threshold", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "optimize":
            cfg = RunConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(RunConfig)})
            _, summary = run_experiment(cfg)
            _print_summary(summary)
        elif args.command == "compare":
            with open(args.configs) as f:
                entries = json.load(f)
            if not isinstance(entries, list):
                raise ConfigError("--configs must hold a JSON list, not "
                                  + JSON_TYPES.get(type(entries), "a number"))
            cfgs = [_config_from_json(d) for d in entries]
            _, table = compare_runs(cfgs, args.loss_threshold, args.out)
            print(table, end="")
        else:
            _, trace = read_trace(args.trace)
            _print_summary(summarize(trace, args.loss_threshold))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteEvaluation as exc:
        where = f" at step {exc.step}" if exc.step is not None else ""
        print(f"optimizer failure{where}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
