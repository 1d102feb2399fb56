"""Command-line interface.

Subcommands: sweep, estimate, verify, quantize, oracle.  Exit codes:
0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DynoscaleError
from .harness import load_config, run_sweep, run_estimates, run_quantize
from .verify import run_suite, SUITES
from .metric_core.solvers import DEFAULT_BUDGET
from .metric_core.space import FiniteMetricSpace
from . import oracle


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynoscale",
        description="Finite-scale dimension and entropy invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="count quantities over a (n, eps) grid")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--budget", type=positive_int, help="override the config budget")
    sweep.add_argument("--seed", type=int, help="override the config seed")

    est = sub.add_parser("estimate", help="slope estimates from a sweep config")
    est.add_argument("--config", required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--budget", type=positive_int, help="override the config budget")
    est.add_argument("--seed", type=int, help="override the config seed")

    ver = sub.add_parser("verify", help="run an inequality suite")
    ver.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)

    quant = sub.add_parser("quantize", help="quantization numbers over a grid")
    quant.add_argument("--config", required=True)
    quant.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="exhaustive values for a small instance")
    orc.add_argument("--instance", required=True)
    return parser


def _field(data: dict, key: str, convert, default=None):
    """``convert(data[key])``; a missing or malformed value is a config error."""
    if key not in data and default is None:
        raise ConfigError(f"instance.{key}", "missing required key")
    try:
        return convert(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"instance.{key}", str(exc))


def _floats(value) -> np.ndarray:
    return np.array(value, dtype=float)


def _run_oracle(path: str) -> int:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ConfigError("instance", "must be an object")
    kind = data.get("kind")
    if kind in ("separated", "spanning", "diameter_cover"):
        matrix = _field(data, "matrix", _floats)
        space = FiniteMetricSpace(matrix=matrix, name="instance", check=False)
        eps = _field(data, "eps", float)
        fn = {"separated": oracle.brute_max_separated,
              "spanning": oracle.brute_min_spanning,
              "diameter_cover": oracle.brute_min_diameter_cover}[kind]
        print(json.dumps({"kind": kind, "value": fn(space, eps)}))
        return 0
    if kind == "coupling":
        cost, a, b = (_field(data, key, _floats) for key in ("cost", "a", "b"))
        value = oracle.brute_wasserstein(cost, a, b, p=_field(data, "p", float, 1.0))
        print(json.dumps({"kind": kind, "value": value}))
        return 0
    if kind == "partial_cover":
        masks = _field(data, "masks", lambda v: np.array(v, dtype=bool))
        weights = _field(data, "weights", lambda v: [float(w) for w in v])
        value = oracle.brute_partial_cover(masks, weights, _field(data, "target", float))
        print(json.dumps({"kind": kind, "value": value}))
        return 0
    raise ConfigError("instance.kind", f"unknown oracle kind {kind!r}")


def _load_with_overrides(args):
    config = load_config(args.config)
    if getattr(args, "budget", None) is not None:
        config.budget = args.budget
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
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
            report = run_suite(args.suite, seed=args.seed, budget=args.budget)
            tallies = report.counts()
            print(f"suite {report.suite}: {tallies['pass']} pass, "
                  f"{tallies['fail']} fail, {tallies['inconclusive']} inconclusive")
            for failure in report.failures():
                print(f"FAIL {failure.name}: {failure.detail}")
            return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    except DynoscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
