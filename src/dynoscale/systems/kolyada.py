"""Interval maps built from an accumulating ladder of full horseshoes.

The unit interval splits into blocks J_k = [a_{k-1}, a_k] accumulating at 1;
on block k the map is the full piecewise-affine b_k-branch map conjugated
onto the block, increasing on the first branch, with the fixed tail 1 -> 1.
Standing conditions: (a_k) strictly increases to 1 with decreasing gaps and
the branch counts b_k are strictly increasing odd integers.

Counting on a block uses its symbolic model: the full b-branch shift whose
cylinder of depth q has width |J|/b**q.  Symbolic distances dominate true
distances, so symbolic separated counts upper-bound the true counts; a
certified lower bound comes from midpoints of cylinders over pairwise
non-adjacent branches.  Both are closed-form in big integers, which keeps
deep blocks (b_k in the hundreds) countable in microseconds.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from ..errors import OutOfRealizationError, ParameterError
from ..metric_core.space import FiniteMetricSpace
from ..metric_core.counts import CountBracket, SEPARATED
from .base import DynamicalSystem


@dataclass(frozen=True)
class HorseshoeBlock:
    index: int          # 1-based position in the ladder
    left: Fraction
    right: Fraction
    branches: int

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    @property
    def branch_scale(self) -> Fraction:
        """Length of one injectivity domain: |J| / branches."""
        return self.length / self.branches


class KolyadaSnohaMap:
    """Horseshoe-ladder interval map with exact rational evaluation."""

    def __init__(self, blocks: list[HorseshoeBlock], family: str = "custom"):
        if not blocks:
            raise ParameterError("need at least one block")
        self.blocks = blocks
        self.family = family
        self._check_standing_conditions()
        self._rights = [b.right for b in blocks]

    def _check_standing_conditions(self) -> None:
        prev_right = Fraction(0)
        prev_gap = None
        prev_branches = 0
        for blk in self.blocks:
            if blk.left != prev_right:
                raise ParameterError("blocks must tile [0, a_kmax] contiguously")
            gap = blk.length
            if gap <= 0:
                raise ParameterError("block lengths must be positive")
            if prev_gap is not None and gap >= prev_gap:
                raise ParameterError("block lengths must strictly decrease")
            if blk.branches % 2 == 0 or blk.branches <= prev_branches:
                raise ParameterError("branch counts must be odd and strictly increasing")
            prev_right, prev_gap, prev_branches = blk.right, gap, blk.branches
        if prev_right >= 1:
            raise ParameterError("realized blocks must end strictly below 1")

    # -- families ---------------------------------------------------------

    @classmethod
    def family_f1(cls, k_max: int) -> "KolyadaSnohaMap":
        """Gaps proportional to 1/k^2 (normalised to sum to 1), b_k = 3^k."""
        pi_sq = Fraction(math.pi**2).limit_denominator(10**12)
        return cls._from_gaps([Fraction(6) / (pi_sq * k * k) for k in range(1, k_max + 1)],
                              [3**k for k in range(1, k_max + 1)], "F1")

    @classmethod
    def family_f2(cls, beta, k_max: int) -> "KolyadaSnohaMap":
        """Geometric gaps tuned so the mean-dimension target is beta, b_k = 3^k."""
        beta = Fraction(beta).limit_denominator(10**9)
        if not (0 < beta < 1):
            raise ParameterError("beta must lie in (0, 1)")
        if beta == Fraction(1, 2):
            ratio = Fraction(1, 3)
        else:
            ratio = Fraction(3.0 ** float(1 - 1 / beta)).limit_denominator(10**15)
        norm = ratio / (1 - ratio)  # sum of ratio**k, k >= 1
        gaps = [ratio**k / norm for k in range(1, k_max + 1)]
        return cls._from_gaps(gaps, [3**k for k in range(1, k_max + 1)], f"F2({beta})")

    @classmethod
    def family_f3(cls, k_max: int) -> "KolyadaSnohaMap":
        """Dyadic gaps a_k = 1 - 2^-k, slowly growing odd branch counts."""
        return cls._from_gaps([Fraction(1, 2**k) for k in range(1, k_max + 1)],
                              [2 * k + 1 for k in range(1, k_max + 1)], "F3")

    @classmethod
    def _from_gaps(cls, gaps: list[Fraction], branches: list[int], family: str):
        blocks = []
        left = Fraction(0)
        for i, (g, b) in enumerate(zip(gaps, branches), start=1):
            blocks.append(HorseshoeBlock(i, left, left + g, b))
            left += g
        return cls(blocks, family)

    # -- queries -----------------------------------------------------------

    @property
    def k_max(self) -> int:
        return len(self.blocks)

    def block(self, k: int) -> HorseshoeBlock:
        if not 1 <= k <= self.k_max:
            raise ParameterError(f"block {k} outside realized ladder")
        return self.blocks[k - 1]

    def sequences(self, k: int) -> tuple[Fraction, int, Fraction]:
        """(a_k, b_k, eps_k) for the k-th block."""
        blk = self.block(k)
        return blk.right, blk.branches, blk.branch_scale

    # -- evaluation ---------------------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact image of a rational point; 1 maps to 1.

        Points in the unrealized tail (a_kmax, 1) are rejected: the caller
        must raise k_max to realize more blocks.
        """
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ParameterError("point outside [0, 1]")
        if x == 1:
            return Fraction(1)
        if x > self.blocks[-1].right:
            raise OutOfRealizationError(
                f"{float(x):.6g} lies beyond realized blocks (raise k_max)")
        k = bisect_left(self._rights, x)
        blk = self.blocks[min(k, self.k_max - 1)]
        u = (x - blk.left) / blk.length
        b = blk.branches
        i = min(int(u * b), b - 1)
        local = u * b - i if i % 2 == 0 else (i + 1) - u * b
        return blk.left + local * blk.length

    def orbit(self, x, steps: int) -> list[Fraction]:
        out = [Fraction(x)]
        for _ in range(steps):
            out.append(self.eval(out[-1]))
        return out

    # -- symbolic block counts ------------------------------------------------

    def block_separated_lower(self, k: int, n: int, eps) -> int:
        """Certified separated-set size in block k from non-adjacent branches."""
        blk = self.block(k)
        return nonadjacent_lower_count(blk.length, blk.branches, n, Fraction(eps))

    def separated_bracket(self, n: int, eps) -> CountBracket:
        """Whole-map separated bracket assembled from per-block bounds."""
        eps = Fraction(eps)
        lower = max([1] + [self.block_separated_lower(k, n, eps)
                           for k in range(1, self.k_max + 1)])
        upper = 1  # the fixed point 1 can always join a separated set
        for k in range(1, self.k_max + 1):
            blk = self.block(k)
            sym = symbolic_separated_count(blk.length, blk.branches, n, eps)
            cap = blk.branches ** (n - 1) * (int(blk.length / eps) + 1)
            upper += min(sym, cap)
        return CountBracket(SEPARATED, float(eps), n, lower, max(lower, upper),
                            "heuristic", method="block-symbolic")

    # -- branch cylinders (exact, for validation) ------------------------------

    def branch_cylinders(self, k: int, n: int) -> list[tuple[Fraction, Fraction]]:
        """The b_k**n monotone branches of the n-th iterate on block k.

        Enumerated by pulling the block back through inverse branch maps;
        each returned interval maps onto the whole block under n steps.
        """
        blk = self.block(k)
        b = blk.branches

        def pull(interval: tuple[Fraction, Fraction], symbol: int):
            lo, hi = interval
            u_lo = (lo - blk.left) / blk.length
            u_hi = (hi - blk.left) / blk.length
            if symbol % 2 == 0:
                v_lo, v_hi = (symbol + u_lo) / b, (symbol + u_hi) / b
            else:
                v_lo, v_hi = (symbol + 1 - u_hi) / b, (symbol + 1 - u_lo) / b
            return (blk.left + v_lo * blk.length, blk.left + v_hi * blk.length)

        cylinders = [(blk.left, blk.right)]
        for _ in range(n):
            cylinders = [pull(c, s) for c in cylinders for s in range(b)]
        return sorted(cylinders)

    def validation_net(self, k_top: int, per_branch: int, horizon: int) -> DynamicalSystem:
        """Small exact-orbit net over blocks 1..k_top for generic cross-checks.

        The seeds are the midpoints of ``branches * per_branch`` equal cells
        of each block, plus the fixed point 1.  An odd branch count maps the
        midpoint (2i+1)/(2bm) of a block to (2i'+1)b/(2bm), another midpoint,
        so the net is closed under the map and carried by its step.
        """
        seeds: list[Fraction] = []
        for k in range(1, k_top + 1):
            blk = self.block(k)
            cells = blk.branches * per_branch
            seeds.extend(blk.left + blk.length * Fraction(2 * i + 1, 2 * cells)
                         for i in range(cells))
        seeds.append(Fraction(1))
        space = FiniteMetricSpace(coords=seeds, name=f"kolyada-{self.family}-net")
        # coords were already sorted ascending by construction
        index = {x: i for i, x in enumerate(seeds)}
        # an image off the net would index -1, which the system rejects
        return DynamicalSystem(space, [index.get(self.eval(x), -1) for x in seeds],
                               horizon, name=space.name)


# -- closed-form block counts -------------------------------------------------


def symbolic_separated_count(length: Fraction, branches: int, n: int, eps: Fraction) -> int:
    """Separated count of the width-graded full shift on ``branches`` symbols.

    Cylinder widths are length * branches**-q; the count is exact for the
    symbolic model and upper-bounds the interval block.
    """
    if n < 1:
        raise ParameterError("horizon must be >= 1")
    if eps >= length:
        return 1
    t = 0
    width = Fraction(length)
    while width > eps:
        width /= branches
        t += 1
    return branches ** (n - 1 + t)


def nonadjacent_lower_count(length: Fraction, branches: int, n: int, eps: Fraction) -> int:
    """Certified lower bound: cylinder midpoints over non-adjacent branches.

    Any two such points have some iterate in different, non-touching
    injectivity domains, hence dynamical distance at least |J|/b.
    """
    if n < 1:
        raise ParameterError("horizon must be >= 1")
    if eps >= length / branches:
        return 1
    t = 0
    width = Fraction(length)
    while width > eps:
        width /= branches
        t += 1
    depth = n + t - 2
    return ((branches + 1) // 2) ** max(depth, 0)
