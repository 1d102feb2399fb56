"""Per-layer metrics from the spans of one traced workload iteration.

A span is ``[name, start, end, parent, attrs]`` as written by ``tracing.py``;
``parent`` indexes the same process's span list (-1 for a root).  The first
part of a span name is its layer.  Times are totals over calls; a name that
nests inside itself (a recursive call) counts its outermost span only.  A
layer's self time is its spans' durations minus the part of each span that
its child spans cover, so the self times of all layers add up to the time
inside the root spans, and the traced wall time minus that sum is the
reported remainder (interpreter start, imports, exit).
"""

from __future__ import annotations

import statistics

LAYERS = ("harness", "systems", "space", "counts", "solvers", "cache", "measures",
          "estimators", "verify", "oracle")
SUITES = ("chain", "subadditivity", "power", "product", "nonwandering", "shift-bounds",
          "quantization-bounds", "transport-floor", "domination", "oracle-equivalence")
METHODS = ("line-sweep", "mis-bnb", "cover-bnb", "clique-cover-bnb", "greedy", "diameter")
COUNT_SPANS = ("counts.separated", "counts.spanning", "counts.ball_cover",
               "counts.diameter_cover")

# metric -> span name whose outermost calls it totals
TIMES = {
    "systems.build_s": "systems.build",
    "systems.bowen_space_s": "systems.bowen_space",
    "space.close_mask_s": "space.close_mask",
    "counts.separated_s": "counts.separated",
    "counts.spanning_s": "counts.spanning",
    "counts.ball_cover_s": "counts.ball_cover",
    "counts.diameter_cover_s": "counts.diameter_cover",
    "solvers.mis_s": "solvers.mis",
    "solvers.set_cover_s": "solvers.set_cover",
    "solvers.cliques_s": "solvers.cliques",
    "solvers.dedupe_s": "solvers.dedupe",
    "solvers.milp_s": "solvers.milp",
    "solvers.partial_cover_s": "solvers.partial_cover",
    "solvers.greedy_s": "solvers.greedy",
    "cache.write_s": "cache.write",
    "measures.quantization_s": "measures.quantization",
    "measures.wasserstein_s": "measures.wasserstein",
    "measures.prokhorov_s": "measures.prokhorov",
    "estimators.s": "estimators",
    "estimators.csv_s": "estimators.csv",
    "oracle.s": "oracle",
    **{f"verify.{suite}_s": f"verify.{suite}" for suite in SUITES},
}

# metric -> (span name, attr summed or None to count the spans, unit); bytes
# labelled "computed" follow from the table sizes, not from a measurement
SUMS = {
    "systems.bowen_space_calls": ("systems.bowen_space", None, "count"),
    "systems.bowen_bytes": ("systems.bowen_space", "bytes", "computed_B"),
    "space.close_mask_calls": ("space.close_mask", None, "count"),
    "space.close_mask_bytes": ("space.close_mask", "bytes", "computed_B"),
    "solvers.cliques_found": ("solvers.cliques", "found", "count"),
    "solvers.dedupe_rows_in": ("solvers.dedupe", "rows_in", "count"),
    "solvers.dedupe_rows_kept": ("solvers.dedupe", "rows_kept", "count"),
    "solvers.milp_calls": ("solvers.milp", None, "count"),
    "solvers.milp_nodes": ("solvers.milp", "nodes", "count"),
    "cache.bytes": ("cache.write", "bytes", "B"),
    "measures.quantization_calls": ("measures.quantization", None, "count"),
}

# every per-layer metric with its unit, in the order they are printed
PER_LAYER = (
    [(m, "s") for m in TIMES]
    + [(m, unit) for m, (_, _, unit) in SUMS.items()]
    + [("counts.cells", "count"), ("counts.cells_exact", "count"),
       ("counts.cell_max_s", "s"), ("counts.cell_p50_s", "s")]
    + [(f"counts.method.{m}", "count") for m in METHODS]
    + [("solvers.budget_exhausted", "count"),
       ("measures.quantization_exact_share", "fraction"),
       ("verify.inconclusive", "count")]
    + [(f"self.{layer}_s", "s") for layer in LAYERS]
    + [("process.cpu_s", "s"), ("trace.wall_s", "s"), ("trace.remainder_s", "s"),
       ("trace.overhead_s", "s")]
)


def merge(processes: list[list]) -> list[list]:
    """One span list from several processes' lists, parents re-indexed."""
    out: list[list] = []
    for spans in processes:
        base = len(out)
        out.extend([name, start, end, parent + base if parent >= 0 else -1, attrs]
                   for name, start, end, parent, attrs in spans)
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, attrs), kids in zip(spans, children):
        covered, reach = 0.0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans: list[list], idx: int, names) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every span-derived per-layer metric; layers not reached read 0."""
    out: dict[str, float] = dict.fromkeys(TIMES, 0.0)
    time_metric = {span_name: metric for metric, span_name in TIMES.items()}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        metric = time_metric.get(name)
        if metric and not _has_ancestor(spans, i, (name,)):
            out[metric] += end - start
    for metric, (span_name, attr, _) in SUMS.items():
        out[metric] = sum(1 if attr is None else (s[4] or {}).get(attr, 0)
                          for s in spans if s[0] == span_name)

    cells = [s for i, s in enumerate(spans) if s[0] in COUNT_SPANS and s[4]
             and "mode" in s[4] and not _has_ancestor(spans, i, COUNT_SPANS)]
    durations = [end - start for _, start, end, _, _ in cells]
    out["counts.cells"] = len(cells)
    out["counts.cells_exact"] = sum(s[4]["mode"] == "exact" for s in cells)
    out["counts.cell_max_s"] = max(durations, default=0.0)
    out["counts.cell_p50_s"] = statistics.median(durations) if durations else 0.0
    for method in METHODS:
        out[f"counts.method.{method}"] = sum(s[4]["method"] == method for s in cells)

    out["solvers.budget_exhausted"] = sum((s[4] or {}).get("budget_exhausted", 0)
                                          for s in spans)
    quant = [s for s in spans if s[0] == "measures.quantization" and s[4]
             and "mode" in s[4]]
    out["measures.quantization_exact_share"] = (
        sum(s[4]["mode"] == "exact" for s in quant) / len(quant) if quant else 0.0)
    out["verify.inconclusive"] = sum((s[4] or {}).get("inconclusive", 0)
                                     for s in spans if s[0].startswith("verify."))

    for layer in LAYERS:
        out[f"self.{layer}_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        out[f"self.{span[0].split('.')[0]}_s"] += own
    return out
