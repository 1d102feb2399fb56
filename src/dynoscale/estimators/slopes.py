"""Finite-scale slope estimates standing in for limsup/liminf quotients.

Every estimate reports, besides its least-squares value over a tail
window, the max and min of consecutive-point slopes on that window
(limsup/liminf proxies) and the worst absolute regression residual.

Staircase data (scale ladders whose response jumps at resolution
thresholds) additionally supports two corrections:

* ``staircase_envelope`` keeps only points that raise the running
  maximum by a minimum jump, collapsing plateaus to their corners --
  the limsup of a staircase lives on its corners;
* ``rank_corrected_fit`` adds a log(rank) regressor, absorbing the
  polynomial prefactor that scale ladders of the 1/k^2 type inject into
  |log eps| (the same shape as the log|log eps| term that makes finite
  box dimension force metric order zero).

Corrected fits detrend before computing the proxies, so the invariant
liminf <= value <= limsup is kept in the corrected coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ..errors import ParameterError

DEFAULT_TAIL = 6
RESIDUAL_THRESHOLD = 0.05
ENVELOPE_JUMP = 0.05


@dataclass(frozen=True)
class SlopeEstimate:
    value: float
    tail_window: int
    residual: float
    liminf_proxy: float
    limsup_proxy: float
    flagged: bool = False
    method: str = "tail-ls"
    note: str = ""
    plain_value: float | None = None  # uncorrected slope, when a correction ran

    def __post_init__(self):
        if not (self.liminf_proxy <= self.value + 1e-9
                and self.value - 1e-9 <= self.limsup_proxy):
            raise ParameterError("slope proxies must bracket the value")


def _ls(columns, ys) -> list[float]:
    """Least-squares coefficients of ``ys`` on the design ``columns``.

    The normal equations are solved over Fractions of the input floats, so
    each coefficient is the exact solution rounded once, and no BLAS or
    LAPACK routine runs.  Non-finite points and linearly dependent columns
    (all x equal) raise ParameterError.
    """
    if not (np.isfinite(columns).all() and np.isfinite(ys).all()):
        raise ParameterError("slope fit points must be finite")
    cols = [[Fraction(v) for v in col.tolist()] for col in columns]
    y = [Fraction(v) for v in ys.tolist()]
    # augmented normal matrix [A^T A | A^T y], reduced by Gauss-Jordan; a
    # Gram matrix is positive semidefinite, so a zero pivot means singular
    normal = [[sum(p * q for p, q in zip(a, b)) for b in (*cols, y)] for a in cols]
    for i, row in enumerate(normal):
        if not row[i]:
            raise ParameterError("slope fit design is singular: are all x equal?")
        for other in normal:
            if other is not row:
                f = other[i] / row[i]
                other[:] = [p - f * q for p, q in zip(other, row)]
    return [float(row[-1] / row[i]) for i, row in enumerate(normal)]


def tail_regression(xs, ys, window: int = DEFAULT_TAIL, flagged: bool = False,
                    note: str = "") -> SlopeEstimate:
    """Plain least-squares slope over the last ``window`` points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ParameterError("need at least two points for a slope")
    w = min(window, xs.size)
    x, y = xs[-w:], ys[-w:]
    slope, intercept = _ls((x, np.ones_like(x)), y)
    resid = float(np.abs(y - (slope * x + intercept)).max())
    steps = np.diff(y) / np.diff(x)
    return SlopeEstimate(
        value=float(slope), tail_window=w, residual=resid,
        liminf_proxy=float(steps.min()), limsup_proxy=float(steps.max()),
        flagged=flagged or resid > RESIDUAL_THRESHOLD, note=note)


def staircase_envelope(xs, ys, jump: float = ENVELOPE_JUMP):
    """Corner subsequence: points that raise the running max by >= jump."""
    keep = []
    best = None
    for i, y in enumerate(ys):
        if best is None or y > best + max(jump, 0.02 * abs(best)):
            keep.append(i)
            best = y
    return ([xs[i] for i in keep], [ys[i] for i in keep])


def rank_corrected_fit(xs, ys, flagged: bool = False, note: str = "") -> SlopeEstimate:
    """Slope of y against x with a log(rank) correction regressor.

    Falls back to the plain tail regression when there are too few points
    to support three coefficients.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 4:
        est = tail_regression(xs, ys, window=xs.size, flagged=flagged, note=note)
        return replace(est, method="tail-ls(fallback)", plain_value=est.value)
    log_ranks = np.log(np.arange(1, xs.size + 1, dtype=float))
    c1, c2, c3 = _ls((xs, log_ranks, np.ones_like(xs)), ys)
    resid = float(np.abs(ys - (c1 * xs + c2 * log_ranks + c3)).max())
    detrended = ys - c2 * log_ranks
    steps = np.diff(detrended) / np.diff(xs)
    plain = tail_regression(xs, ys, window=xs.size)
    return SlopeEstimate(
        value=float(c1), tail_window=int(xs.size), residual=resid,
        liminf_proxy=float(min(steps.min(), c1)),
        limsup_proxy=float(max(steps.max(), c1)),
        flagged=flagged or resid > RESIDUAL_THRESHOLD,
        method="rank-corrected", note=note, plain_value=plain.value)


def fit(xs, ys, window: int = DEFAULT_TAIL, flagged: bool = False, note: str = "",
        corrected: bool = False) -> SlopeEstimate:
    """Tail regression, or with ``corrected`` the rank-corrected corner fit.

    The corrected fit runs on the staircase corners; a ladder with fewer
    than two corners falls back to the tail regression, noted as degenerate.
    """
    if corrected:
        ex, ey = staircase_envelope(xs, ys)
        if len(ex) >= 2:
            return rank_corrected_fit(ex, ey, flagged=flagged, note=note)
        note = "; ".join(filter(None, [note, "degenerate ladder"]))
    return tail_regression(xs, ys, window=window, flagged=flagged, note=note)
