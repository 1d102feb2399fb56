"""Run the dynoscale CLI with spans recorded around the calls into each layer.

Usage::

    python3 perfbench/tracing.py SPANS.json RUN_ID -- <dynoscale CLI arguments>

Nothing under ``src/`` is edited.  Each traced function is replaced by a
wrapper on every name the program looks it up through at call time: module
globals (``harness.max_separated``, the names ``verify`` imports, the module
attributes of ``metric_core.solvers``), dict values (``harness.OPS``,
``verify.SUITES``), class attributes (``FiniteMetricSpace.close_mask``) and
``scipy.optimize.milp``, which ``_milp_min_cover`` imports on every call.
A name that still holds the original would silently skip its wrapper.

Spans stay in memory as ``[name, start, end, parent, attrs]`` lists and are
written as JSON, with the run id, when the CLI returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """Wrapper recording one span per call; ``note(args, result)`` adds attrs."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[4] = {"error": type(exc).__name__}
                # one exhausted budget crosses several wrappers; count it once
                if (type(exc).__name__ == "BudgetExceededError"
                        and not getattr(exc, "_perfbench_seen", False)):
                    exc._perfbench_seen = True
                    span[4]["budget_exhausted"] = 1
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _rebind(original, wrapper) -> None:
    """Point every dynoscale name bound to ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("dynoscale"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper


# -- notes: counts taken where the work happens ----------------------------------

def _bowen_note(args, result):
    system, n = args[0], int(args[1])
    return {"bytes": system.space.size ** 2 * 8 * n}  # computed, not measured


def _close_mask_note(args, result):
    return {"bytes": args[0].size ** 2 * 9}  # float64 read + bool written


def _bracket_note(args, result):
    return {"mode": result.mode, "method": result.method}


def _dedupe_note(args, result):
    return {"rows_in": int(args[0].shape[0]), "rows_kept": int(result[0].shape[0])}


def _cliques_note(args, result):
    return {"found": len(result)}


def _milp_note(args, result):
    return {"nodes": int(getattr(result, "mip_node_count", 0) or 0)}


def _quantization_note(args, result):
    return {"mode": result.mode}


def _cache_note(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _suite_note(args, result):
    return {"inconclusive": result.counts()["inconclusive"]}


# (module, attribute, span name, note); the span name's first part is its layer
FUNCTIONS = [
    ("dynoscale.cli", "main", "harness.main", None),
    ("dynoscale.systems.descriptor", "resolve_system", "systems.build", None),
    ("dynoscale.systems.base", "bowen_space", "systems.bowen_space", _bowen_note),
    ("dynoscale.metric_core.counts", "max_separated", "counts.separated", _bracket_note),
    ("dynoscale.metric_core.counts", "min_spanning", "counts.spanning", _bracket_note),
    ("dynoscale.metric_core.counts", "min_ball_cover", "counts.ball_cover", _bracket_note),
    ("dynoscale.metric_core.counts", "min_diameter_cover", "counts.diameter_cover",
     _bracket_note),
    ("dynoscale.metric_core.solvers", "exact_max_independent_set", "solvers.mis", None),
    ("dynoscale.metric_core.solvers", "exact_min_set_cover", "solvers.set_cover", None),
    ("dynoscale.metric_core.solvers", "maximal_cliques", "solvers.cliques", _cliques_note),
    ("dynoscale.metric_core.solvers", "dedupe_masks", "solvers.dedupe", _dedupe_note),
    ("dynoscale.metric_core.solvers", "exact_min_partial_cover", "solvers.partial_cover",
     None),
    ("dynoscale.metric_core.solvers", "greedy_independent_set", "solvers.greedy", None),
    ("dynoscale.metric_core.solvers", "greedy_clique_cover", "solvers.greedy", None),
    ("dynoscale.metric_core.solvers", "greedy_set_cover", "solvers.greedy", None),
    ("dynoscale.metric_core.solvers", "greedy_partial_cover", "solvers.greedy", None),
    ("scipy.optimize", "milp", "solvers.milp", _milp_note),
    ("dynoscale.metric_core.cache", "write_cache", "cache.write", _cache_note),
    ("dynoscale.measures.quantization", "quantization_number", "measures.quantization",
     _quantization_note),
    ("dynoscale.measures.wasserstein", "wasserstein", "measures.wasserstein", None),
    ("dynoscale.measures.prokhorov", "levy_prokhorov", "measures.prokhorov", None),
    ("dynoscale.measures.prokhorov", "lp_condition_holds", "measures.prokhorov", None),
    ("dynoscale.estimators.quantities", "entropy_at_scale", "estimators", None),
    ("dynoscale.estimators.quantities", "box_dimension_estimate", "estimators", None),
    ("dynoscale.estimators.quantities", "metric_order_estimate", "estimators", None),
    ("dynoscale.estimators.quantities", "mdim_estimate", "estimators", None),
    ("dynoscale.estimators.quantities", "mdim_mo_estimate", "estimators", None),
    ("dynoscale.estimators.sweep", "write_estimates_csv", "estimators.csv", None),
]

# (module, class, method, span name, note)
METHODS = [
    ("dynoscale.metric_core.space", "FiniteMetricSpace", "close_mask", "space.close_mask",
     _close_mask_note),
    ("dynoscale.estimators.sweep", "ScaleSweep", "write_csv", "estimators.csv", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every traced function; the CLI module must already be imported."""
    for mod_name, attr, name, note in FUNCTIONS:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr)
        wrapper = tracer.wrap(name, original, note)
        setattr(mod, attr, wrapper)
        _rebind(original, wrapper)
    for mod_name, cls_name, attr, name, note in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), note))
    oracle = importlib.import_module("dynoscale.oracle")
    for attr, fn in list(vars(oracle).items()):
        if attr.startswith("brute_") and callable(fn):
            wrapper = tracer.wrap("oracle", fn)
            setattr(oracle, attr, wrapper)
            _rebind(fn, wrapper)
    suites = importlib.import_module("dynoscale.verify").SUITES
    for key, fn in list(suites.items()):
        suites[key] = tracer.wrap(f"verify.{key}", fn, _suite_note)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS.json RUN_ID -- <dynoscale CLI arguments>",
              file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    import dynoscale.cli
    tracer = Tracer(run_id)
    install(tracer)
    try:
        return dynoscale.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
