"""Named finite-scale proxies for the limit quantities.

Inputs are (scale, count) or (horizon, count) rows.  Only exact rows enter
a regression: a heuristic row is dropped, flags the estimate and is noted.
The metric order also excludes count-1 rows, where log log 1 is undefined.
The entropy-based estimates take per-scale entropy slopes instead, and
``mdim_mo_estimate`` clamps through log+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParameterError
from ..metric_core.counts import CountBracket
from .slopes import SlopeEstimate, tail_regression, fit, DEFAULT_TAIL


def log_plus(t: float) -> float:
    """max(0, log t), with log_plus(0) = 0 and log_plus(inf) = inf."""
    if t <= 1.0:
        return 0.0
    return math.log(t)


def abs_log(eps: float) -> float:
    return abs(math.log(eps))


def _count_fit(rows: list[tuple[float, CountBracket]], x, y, tail: int, need: str,
               skip_unit: bool = False) -> SlopeEstimate:
    """Tail regression of y(count) against x(key) over the exact rows."""
    exact = [(key, br.value) for key, br in rows if br.mode == "exact"]
    pts = [(x(key), y(value)) for key, value in exact if value > 1 or not skip_unit]
    if len(pts) < 2:
        raise ParameterError(need)
    dropped, excluded = len(rows) - len(exact), len(exact) - len(pts)
    notes = [f"dropped {dropped} heuristic cells" if dropped else "",
             f"excluded {excluded} count-1 rows (log 0 = 0)" if excluded else ""]
    xs, ys = zip(*pts)
    return fit(xs, ys, window=tail, flagged=dropped > 0,
               note="; ".join(filter(None, notes)))


def entropy_at_scale(rows: list[tuple[int, CountBracket]],
                     tail: int = DEFAULT_TAIL) -> SlopeEstimate:
    """Growth rate of log(separated count) in the horizon at one scale."""
    return _count_fit(rows, float, math.log, tail,
                      "need >= 2 exact horizons for an entropy slope")


def box_dimension_estimate(rows: list[tuple[float, CountBracket]],
                           tail: int = DEFAULT_TAIL) -> SlopeEstimate:
    """Regression of log(ball-cover count) against |log eps|."""
    return _count_fit(rows, abs_log, math.log, tail, "need >= 2 exact scales")


def metric_order_estimate(rows: list[tuple[float, CountBracket]],
                          tail: int = DEFAULT_TAIL) -> SlopeEstimate:
    """Regression of log log(count) against |log eps|; count-1 rows excluded."""
    return _count_fit(rows, abs_log, lambda c: math.log(math.log(c)), tail,
                      "need >= 2 usable scales (count > 1)", skip_unit=True)


def mdim_estimate(h_rows: list[tuple[float, SlopeEstimate]],
                  corrected: bool = True) -> SlopeEstimate:
    """Regression of the per-scale entropy against |log eps|.

    Scale ladders produce staircase data, so the fit runs on the plateau
    corners with the rank correction (see slopes module); ``corrected=False``
    gives the plain tail regression instead.
    """
    return fit([abs_log(eps) for eps, _ in h_rows], [h.value for _, h in h_rows],
               flagged=any(h.flagged for _, h in h_rows), corrected=corrected)


def mdim_mo_estimate(h_rows: list[tuple[float, SlopeEstimate]],
                     corrected: bool = True) -> SlopeEstimate:
    """Regression of log+ of the per-scale entropy against |log eps|."""
    flagged = any(h.flagged for _, h in h_rows)
    ys = [log_plus(h.value) for _, h in h_rows]
    if not any(ys):
        return SlopeEstimate(0.0, len(ys), 0.0, 0.0, 0.0, flagged=flagged,
                             method="clamped",
                             note="all entropies <= 1; log+ clamps to 0")
    return fit([abs_log(eps) for eps, _ in h_rows], ys, flagged=flagged,
               corrected=corrected)


@dataclass(frozen=True)
class MeanBoxDimension:
    per_horizon: tuple[tuple[int, float], ...]  # (n, box dimension of d_n)
    normalized: tuple[tuple[int, float], ...]   # (n, dim/n)
    estimate: SlopeEstimate                     # trend of dim/n over n
    flagged: bool


def mean_box_dimension_estimate(per_n: list[tuple[int, SlopeEstimate]]) -> MeanBoxDimension:
    """Per-horizon box dimensions and the trend of their n-normalised sequence."""
    if len(per_n) < 2:
        raise ParameterError("need box estimates at >= 2 horizons")
    flagged = any(e.flagged for _, e in per_n)
    seq = tuple((n, e.value) for n, e in per_n)
    norm = tuple((n, e.value / n) for n, e in per_n)
    est = tail_regression([n for n, _ in norm], [v for _, v in norm],
                          window=len(norm), flagged=flagged)
    return MeanBoxDimension(seq, norm, est, flagged)
