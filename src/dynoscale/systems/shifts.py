"""Full shifts over finite alphabets, truncated to depth-L prefixes.

Two compatible metrics are provided:

* ``exp``: distance base**(-k) where k counts the leading agreeing
  coordinates (so a first-coordinate disagreement has distance 1); this is
  the max-weighted discrete metric and makes every cell combinatorially
  exact.  With base e and a binary alphabet the strictly-separated count
  at scale e**-m is exactly 2**m.  It is an ultrametric, so the space is
  stored as a partition chain read off the word indices
  (``FiniteMetricSpace.from_chain``), and its codes are built only for a
  caller that reads distances.
* ``product``: rho(x, y) = sum_k 2**-(k+1) d_A(x_k, y_k) over the stored
  depth, with the truncation remainder 2**-L * diam(A) certified in the
  system metadata.

The stored points are the tail-extended prefixes, so the net is closed
under the shift and its step map is exact.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import ParameterError, ShapeError
from ..metric_core.space import FiniteMetricSpace, product_codes
from .base import DynamicalSystem

# bounds a net's N x N tables: its level codes and one per d_n, one or two
# bytes a pair, and the 200 MB float table of a caller that reads it whole
MAX_POINTS = 5_000


def discrete_alphabet(symbols: int) -> FiniteMetricSpace:
    """Alphabet of ``symbols`` letters at pairwise distance 1."""
    if symbols < 2:
        raise ParameterError("need at least two symbols")
    # one level: only a letter itself is closer than 1
    return FiniteMetricSpace.from_chain(np.array([0.0, 1.0]),
                                        np.arange(symbols)[None],
                                        name=f"discrete({symbols})")


def _net_size(symbols: int, depth: int) -> int:
    count = symbols**depth
    if count > MAX_POINTS:
        raise ParameterError(f"shift net of {count} points exceeds cap {MAX_POINTS}")
    return count


def _prefixes(symbols: int, depth: int) -> np.ndarray:
    """Row i is the word of point i: the nets list their words in
    lexicographic order, and label their points by index."""
    _net_size(symbols, depth)
    return np.array(list(itertools.product(range(symbols), repeat=depth)),
                    dtype=np.int16)


def full_shift(symbols: int = 2, depth: int = 8, metric: str = "exp",
               alphabet: FiniteMetricSpace | None = None,
               base: float = math.e, tail: int = 0,
               horizon_cap: int | None = None, name: str | None = None) -> DynamicalSystem:
    """Full shift on ``symbols`` letters truncated at ``depth`` coordinates; under
    ``exp`` its space is a partition chain of word indices, and under ``product``
    its codes add the alphabet's one coordinate at a time (``product_codes``)."""
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    if metric not in ("exp", "product"):
        raise ParameterError(f"unknown shift metric {metric!r}")
    if metric == "product":
        alphabet = alphabet if alphabet is not None else discrete_alphabet(symbols)
        symbols = alphabet.size
    elif alphabet is not None:
        raise ParameterError("an alphabet applies to the product metric only")
    if not (0 <= tail < symbols):
        raise ParameterError("tail symbol outside the alphabet")
    n = _net_size(symbols, depth)
    name = name or f"shift{symbols}x{depth}-{metric}"

    if metric == "exp":
        if not base >= 1:
            raise ParameterError("the exp metric needs base >= 1")
        # exp(-k * ln base) keeps scales like exp(-m) bitwise comparable
        powers = np.exp(-math.log(base) * np.arange(depth + 1))
        # level depth + 1 - k is powers[k], and level 0 the diagonal's 0
        levels = np.concatenate(([0.0], powers[::-1]))
        # words closer than level c agree on their first depth + 2 - c
        # letters, so they share their index // symbols**(c - 2); only a
        # word itself is closer than level 1; the narrowest signed labels
        # halve the compares that derive the codes
        chain = np.empty((depth + 1, n), dtype=np.min_scalar_type(-n))
        chain[0] = np.arange(n)
        for c in range(2, depth + 2):
            np.floor_divide(chain[0], symbols ** (c - 2), out=chain[c - 1])
        space = FiniteMetricSpace.from_chain(levels, chain, name=name)
        trunc = base ** (-float(depth))
        alphabet = discrete_alphabet(symbols)
    else:
        # word p * symbols + a extends prefix p by letter a, so each coordinate
        # adds its term to every pair of prefixes, in the order rho sums them
        prefix = (np.array([0.0]), np.zeros((1, 1), dtype=np.uint8))
        alevels, acodes = alphabet.level_codes()
        for t in range(depth):
            prefix = product_codes(prefix, (2.0 ** -(t + 1) * alevels, acodes), np.add)
        space = FiniteMetricSpace.from_codes(*prefix, name=name)
        trunc = 2.0 ** (-depth) * alphabet.diameter

    # word i read in base ``symbols`` loses its first letter and gains ``tail``
    step = (np.arange(n) % symbols ** (depth - 1)) * symbols + tail
    cap = horizon_cap if horizon_cap is not None else max(depth, 2)
    return DynamicalSystem(space, step, cap, name=space.name,
                           meta={"symbols": symbols, "depth": depth, "omega_full": True,
                                 "truncation_bound": trunc, "alphabet": alphabet})


def binary_exp_shift(depth: int = 12, horizon_cap: int | None = None) -> DynamicalSystem:
    """Binary shift with the e**-k first-disagreement metric."""
    return full_shift(2, depth, metric="exp", horizon_cap=horizon_cap,
                      name=f"binshift-exp-d{depth}")


def rho_distance(x: tuple, y: tuple, alphabet: FiniteMetricSpace) -> tuple[float, float]:
    """Product-metric distance of two prefixes with its certified remainder.

    Returns ``(value, remainder_bound)``; the distance of any two infinite
    extensions agreeing with the prefixes lies in [value, value + bound].
    """
    if len(x) != len(y):
        raise ShapeError(f"prefix depths differ: {len(x)} vs {len(y)}")
    value = 0.0
    for k, (a, b) in enumerate(zip(x, y), start=1):
        value += 2.0 ** (-k) * alphabet.dist(a, b)
    bound = 2.0 ** (-len(x)) * alphabet.diameter
    return value, bound
