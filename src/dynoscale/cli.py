"""Command-line interface.

Subcommands: sweep, estimate, verify, quantize, oracle.  Exit codes:
0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, DynoscaleError
from .harness import load_config, run_sweep, run_estimates, run_quantize
from .schema import boolean, build, list_of, load_json, number, tagged
from .metric_core.solvers import DEFAULT_BUDGET


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def suite_name(text: str) -> str:
    from .verify import SUITES  # only a verify command parses a suite
    names = [*SUITES, "all"]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynoscale",
        description="Finite-scale dimension and entropy invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="count quantities over a (n, eps) grid")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--budget", type=positive_int, help="override the config budget")

    est = sub.add_parser("estimate", help="slope estimates from a sweep config")
    est.add_argument("--config", required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--budget", type=positive_int, help="override the config budget")

    ver = sub.add_parser("verify", help="run an inequality suite")
    ver.add_argument("--suite", type=suite_name, default="all",
                     help="one inequality suite, or all of them")
    ver.add_argument("--seed", type=non_negative_int, default=0)
    ver.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)

    quant = sub.add_parser("quantize", help="quantization numbers over a grid")
    quant.add_argument("--config", required=True)
    quant.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="exhaustive values for a small instance")
    orc.add_argument("--instance", required=True)
    return parser


def _table(item):
    """Field type: a rectangular nonempty list of nonempty rows, as an array."""
    def convert(value, path):
        rows = list_of(list_of(item))(value, path)
        if len({len(row) for row in rows}) > 1:
            raise ConfigError(path, "rows must have equal lengths")
        return np.array(rows)
    return convert


def _cost(value, path):
    """Field type: a transport cost, a finite number >= 0, as a float."""
    if number(value, path) < 0:
        raise ConfigError(path, f"must be a nonnegative cost, got {value!r}")
    return float(value)


def _vector(value, path):
    return np.array(list_of(number)(value, path))


_MATRIX = {"matrix": _table(number), "eps": number}


def _run_oracle(path: str) -> int:
    from . import oracle
    from .metric_core.space import FiniteMetricSpace

    def on_space(brute):
        def run(matrix, eps):
            # the oracles take at most 15 points, so the triangle check is exhaustive
            return brute(FiniteMetricSpace(matrix=matrix, name="instance"), eps)
        return build(run, _MATRIX)

    kinds = {
        "separated": on_space(oracle.brute_max_separated),
        "spanning": on_space(oracle.brute_min_spanning),
        "diameter_cover": on_space(oracle.brute_min_diameter_cover),
        "coupling": build(oracle.brute_wasserstein,
                          {"cost": _table(_cost), "a": _vector, "b": _vector,
                           "p": (number, 1.0)}),
        "partial_cover": build(oracle.brute_partial_cover,
                               {"masks": _table(boolean), "weights": list_of(number),
                                "target": number}),
    }
    data = load_json(path)
    value = tagged(data, "kind", kinds, "instance")
    print(json.dumps({"kind": data["kind"], "value": value}))
    return 0


def _load_with_overrides(args):
    config = load_config(args.config)
    if getattr(args, "budget", None) is not None:
        config.budget = args.budget
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            for path in run_sweep(_load_with_overrides(args), args.out):
                print(path)
            return 0
        if args.command == "estimate":
            print(run_estimates(_load_with_overrides(args), args.out))
            return 0
        if args.command == "quantize":
            print(run_quantize(args.config, args.out))
            return 0
        if args.command == "oracle":
            return _run_oracle(args.instance)
        if args.command == "verify":
            from .verify import run_suite
            report = run_suite(args.suite, seed=args.seed, budget=args.budget)
            tallies = report.counts()
            print(f"suite {report.suite}: {tallies['pass']} pass, "
                  f"{tallies['fail']} fail, {tallies['inconclusive']} inconclusive")
            for failure in report.failures():
                print(f"FAIL {failure.name}: {failure.detail}")
            for check in report.inconclusive():
                print(f"INCONCLUSIVE {check.name}: {check.detail}")
            return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DynoscaleError, OSError) as exc:  # OSError: the output is not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
