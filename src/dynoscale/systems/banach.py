"""Spanning lattices for the cube of bounded sequences under sup |x_n|/n.

For a scale eps in (0, 1) the construction fixes n0 = floor(2/eps) leading
coordinates (the largest n with eps/2 <= 1/n), puts a uniform grid of
M = floor(2/eps) values on [-1, 1] in each of them, and pins every later
coordinate to 1.  The lattice has exactly M**n0 points, strictly
eps-spans the cube, and is strictly eps^2/4-separated: distinct points
differ by at least the grid gap 2/M in some coordinate c <= n0, giving
norm distance at least (2/M)/n0 >= eps^2/2.

Points are only materialised on demand (mixed-radix decoding), so the
lattice stays usable when M**n0 runs into the millions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ..draws import default_rng
from ..errors import ParameterError

# literal all-pairs verification is used up to this cardinality
PAIRWISE_LIMIT = 2_000


@dataclass(frozen=True)
class BanachLattice:
    eps: Fraction
    coord_count: int              # n0: number of free leading coordinates
    axis_values: tuple[Fraction, ...]

    @property
    def cardinality(self) -> int:
        return len(self.axis_values) ** self.coord_count

    @property
    def grid_gap(self) -> Fraction:
        return self.axis_values[1] - self.axis_values[0]

    def point(self, index: int) -> tuple[Fraction, ...]:
        """Mixed-radix decode of the index-th lattice point (leading coords)."""
        if not 0 <= index < self.cardinality:
            raise IndexError("lattice index out of range")
        m = len(self.axis_values)
        digits = []
        for _ in range(self.coord_count):
            digits.append(self.axis_values[index % m])
            index //= m
        return tuple(digits)

    def norm_distance(self, p: tuple, q: tuple) -> Fraction:
        """sup |p_c - q_c| / c over the free coordinates (tails agree)."""
        return max(abs(a - b) / Fraction(c) for c, (a, b) in enumerate(zip(p, q), start=1))


def banach_spanning_set(eps) -> BanachLattice:
    """The explicit spanning lattice at scale eps in (0, 1)."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ParameterError("scale must lie strictly between 0 and 1")
    n0 = int(2 / eps)  # floor; satisfies 1/(n0+1) < eps/2 <= 1/n0
    m = int(2 / eps)
    values = tuple(Fraction(-1) + Fraction(2 * i + 1, m) for i in range(m))
    return BanachLattice(eps=eps, coord_count=n0, axis_values=values)


def min_separation(lat: BanachLattice) -> tuple[Fraction, tuple[int, int]]:
    """Exact minimum pairwise norm distance with a witness pair.

    Distinct lattice points differ in some free coordinate by at least the
    grid gap, and the norm weight 1/c is smallest at c = n0; a pair
    differing by one gap only at coordinate n0 realises the minimum.  For
    small lattices the same value is recomputed literally over all pairs.
    """
    gap = lat.grid_gap
    value = gap / lat.coord_count
    m = len(lat.axis_values)
    stride = m ** (lat.coord_count - 1)  # changes only the last coordinate
    witness = (0, stride)
    if lat.cardinality <= PAIRWISE_LIMIT:
        pts = [lat.point(i) for i in range(lat.cardinality)]
        best, best_pair = None, witness
        for i, j in combinations(range(len(pts)), 2):
            d = lat.norm_distance(pts[i], pts[j])
            if best is None or d < best:
                best, best_pair = d, (i, j)
        if best != value:
            raise AssertionError("structural minimum disagrees with literal scan")
        witness = best_pair
    return value, witness


def verify_separated(lat: BanachLattice, threshold) -> bool:
    """Whether the lattice is strictly separated above ``threshold``."""
    value, _ = min_separation(lat)
    return value > Fraction(threshold)


def audit_spanning(lat: BanachLattice, samples: int, seed: int,
                   resolution: int = 10**6) -> Fraction:
    """Worst distance from random cube points to the lattice (must be < eps).

    Sample coordinates live on a fine rational grid of [-1, 1]; beyond the
    free coordinates the distance contribution is certified by the bound
    2/(n0+1) < eps without materialising the tail.
    """
    rng = default_rng(seed)
    n0 = lat.coord_count
    tail_bound = Fraction(2, n0 + 1)
    if tail_bound >= lat.eps:
        raise AssertionError("tail bound must sit below the scale")
    worst = tail_bound
    axis = lat.axis_values
    for _ in range(samples):
        draws = rng.integers(0, 2 * resolution + 1, size=n0)
        head = Fraction(0)
        for c, raw in enumerate(draws, start=1):
            x = Fraction(int(raw), resolution) - 1  # uniform on [-1, 1]
            nearest = min(axis, key=lambda v: abs(v - x))
            head = max(head, abs(x - nearest) / c)
        worst = max(worst, head)
    return worst
