"""Finite metric spaces with a certified distance oracle.

Three storage backends are supported. A 1-d coordinate list (ideally
`Fraction`s) covers spaces embedded in the real line, where the counting
layer can run exact sweep algorithms without ever materialising a matrix.
A dense space stores ``levels``, the sorted distinct float64 distances, and
``codes``, an (n, n) table of indices into ``levels`` in the narrowest
unsigned dtype, so that ``levels[codes]`` is the distance table bit for bit.
An ultrametric space may store its ``levels`` and a partition ``chain``
instead of codes: one label row per positive level c, where two points
share a label exactly when their code is below c.  Its threshold graphs
are partitions (``classes``), and its codes, a pair's count of levels at
which its labels differ, are derived on the first ``level_codes()``.
Every threshold graph depends only on which distances fall below a scale,
so it is one compare of the codes with the scale's level cutoff, packed at
one bit per pair; float values are read by ``distances(rows, cols)``, which
gathers only the block asked for (on a chain-backed space, counts that
block's codes from the labels), and every other float read goes through
``level_codes()``.  A float matrix passed in is encoded at construction and
not kept; a coordinate space is encoded from its coordinates by row blocks
at its first threshold or ``d_n`` gather.  Products (under the max or the
sum of the factors' distances) combine the factors' codes
(``product_codes``), and the max product of two chain-backed spaces their
chains (``product_chain``).  No space keeps a float table.

Packed rows are the one format of threshold graphs and solver tables: bit
j of row i is bit ``j & 7`` of byte ``j >> 3`` (``pack_rows``), and the
padding bits past the last column are zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..errors import InvalidMetricError, ParameterError

# Largest point count for which a dense matrix is materialised on demand.
MATRIX_CAP = 20_000
# Float entries searched per block while encoding a matrix (8 MB of indices);
# threshold graphs and d_n gathers take an eighth of this a block.
ENCODE_BLOCK = 1 << 20

TRIANGLE_SPOT_CHECKS = 64
TRIANGLE_SLACK = 1e-9


class FiniteMetricSpace:
    """Indexed point set with symmetric, triangle-checked distances.

    Parameters
    ----------
    matrix:
        Dense (n, n) float distance table, encoded into level codes at
        construction and not kept.  Mutually exclusive with ``coords``.
    coords:
        1-d positions; the metric is ``|x_i - x_j|``.  Fractions keep the
        comparison layer exact.
    check:
        Check a matrix's metric axioms; ``|x - y|`` is a metric by construction.
    """

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        coords: Sequence | None = None,
        name: str = "space",
        check: bool = True,
    ):
        if (matrix is None) == (coords is None):
            raise ParameterError("exactly one of matrix/coords must be given")
        self.name = name
        self.coords = self._diameter = None
        self._levels = self._codes = self._chain = None
        if coords is not None:
            if len(coords) == 0:
                raise ParameterError("empty spaces are rejected")
            self.coords = list(coords)
            self._coords_float = np.array([float(c) for c in coords])
            self.size = len(self.coords)
        else:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ParameterError("distance matrix must be square")
            if matrix.shape[0] == 0:
                raise ParameterError("empty spaces are rejected")
            self.size = matrix.shape[0]
        if matrix is not None:
            if check:
                self._validate(matrix)
            self._levels, self._codes = _encode(lambda a, b: matrix[a:b], self.size)

    @classmethod
    def from_codes(cls, levels: np.ndarray, codes: np.ndarray,
                   name: str = "space") -> "FiniteMetricSpace":
        """Dense space whose distances are ``levels[codes]``, unchecked.

        ``levels`` must be sorted ascending (ties are harmless), so that the
        order of the codes is the order of the distances.  The codes are
        trusted to be symmetric, with distance 0 on the diagonal: every
        search reads a point's row as its column, and each point as in its
        own ball.
        """
        space = cls.__new__(cls)
        space.name, space.coords, space._diameter = name, None, None
        space._levels, space._codes, space._chain = levels, codes, None
        space.size = codes.shape[0]
        return space

    @classmethod
    def from_chain(cls, levels: np.ndarray, chain: np.ndarray,
                   name: str = "space") -> "FiniteMetricSpace":
        """Ultrametric space whose points share row ``c - 1`` of ``chain``
        exactly when they lie closer than ``levels[c]``, unchecked.

        ``levels`` is sorted ascending with ``levels[0] == 0``, and ``chain``
        has one integer label row per positive level.  The rows are trusted
        to be nested, each a refinement of the next, and row 0 to give every
        point a label of its own; then a pair's code, the number of rows in
        which its labels differ, indexes its distance, and the space is an
        ultrametric.  No code is built until ``level_codes`` is asked for.
        """
        space = cls.__new__(cls)
        space.name, space.coords, space._diameter = name, None, None
        space._levels, space._codes, space._chain = levels, None, chain
        space.size = chain.shape[1]
        return space

    # -- validation ------------------------------------------------------

    def _validate(self, m: np.ndarray) -> None:
        if not np.allclose(np.diag(m), 0.0, atol=0.0):
            raise InvalidMetricError("nonzero self-distance")
        if (m < 0).any():
            raise InvalidMetricError("negative distance")
        if not np.array_equal(m, m.T):
            raise InvalidMetricError("asymmetric distance table")
        n = self.size
        if n < 3:
            return
        if n <= 16:  # exhaustive triple check is cheap enough
            # slack[i,j,k] = d(i,j) - d(i,k) - d(k,j)
            slack = m[:, :, None] - m[:, None, :] - m.T[None, :, :].transpose(0, 2, 1)
            if (slack > TRIANGLE_SLACK).any():
                i, j, k = np.unravel_index(int(np.argmax(slack)), slack.shape)
                raise InvalidMetricError(
                    f"triangle inequality fails on ({i},{j},{k})")
            return
        from ..draws import default_rng
        rng = default_rng(0)
        for _ in range(TRIANGLE_SPOT_CHECKS):
            i, j, k = rng.integers(0, n, size=3)
            if m[i, j] > m[i, k] + m[k, j] + TRIANGLE_SLACK:
                raise InvalidMetricError(
                    f"triangle inequality fails on ({i},{j},{k})")

    # -- basic queries -----------------------------------------------------

    def dist(self, i: int, j: int) -> float:
        """One distance; a chain-backed space without codes counts the pair's
        code from its labels and leaves the codes underived."""
        if self.coords is not None:
            return abs(float(self._coords_float[i] - self._coords_float[j]))
        if self._codes is None and self._chain is not None:
            code = _count_differing(self._chain, i, j, np.zeros((), dtype=np.intp))
            return float(self._levels[code])
        levels, codes = self.level_codes()
        return float(levels[codes[i, j]])

    def distances(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Float block ``d(rows[a], cols[b])``, bitwise that of ``as_matrix()``.

        A chain-backed space whose codes are not derived counts the block's
        codes from its labels and leaves them underived.
        """
        r, c = np.ix_(rows, cols)
        if self.coords is not None:
            x = self._coords_float
            return np.abs(x[r] - x[c])
        if self._codes is None and self._chain is not None:
            block = np.zeros((r.size, c.size), dtype=code_dtype(len(self._levels)))
            return self._levels[_count_differing(self._chain, r, c, block)]
        levels, codes = self.level_codes()
        return levels[codes[r, c]]

    def dist_exact(self, i: int, j: int):
        """Exact distance when available (Fractions), else the float value."""
        if self.coords is not None and isinstance(self.coords[i], Fraction):
            return abs(self.coords[i] - self.coords[j])
        return self.dist(i, j)

    @property
    def diameter(self) -> float:
        if self._diameter is None:
            if self.coords is not None:
                self._diameter = float(self._coords_float.max() - self._coords_float.min())
            elif self._chain is not None:
                # nested rows: a pair differs in rows 1..k, so the largest
                # code is the number of rows of more than one class
                chain = self._chain
                self._diameter = float(self._levels[np.count_nonzero(
                    chain.min(axis=1) != chain.max(axis=1))])
            else:
                levels, codes = self.level_codes()
                self._diameter = float(levels[codes.max()])
        return self._diameter

    def as_matrix(self) -> np.ndarray:
        """Dense float distance table, built anew on each call and not kept."""
        if self.coords is None:
            levels, codes = self.level_codes()
            return levels[codes]
        return self._coord_rows(0, self.size)

    def _coord_rows(self, a: int, b: int) -> np.ndarray:
        """Rows a..b of a coordinate space's float distance table."""
        if self.size > MATRIX_CAP:
            raise ParameterError(f"refusing to materialise {self.size}x{self.size} matrix")
        c = self._coords_float
        return np.abs(c[a:b, None] - c[None, :])

    def level_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(levels, codes)``: the sorted distances and the table of their indices.

        A coordinate space encodes its distances one row block at a time,
        and a chain-backed space counts each pair's differing labels, on
        first use.
        """
        if self._codes is None and self._chain is not None:
            self._codes = _chain_codes(self._chain, len(self._levels))
        elif self._codes is None:
            self._levels, self._codes = _encode(self._coord_rows, self.size)
        return self._levels, self._codes

    @property
    def levels(self) -> np.ndarray:
        """The sorted distances; a chain-backed space knows them without
        its codes, and a coordinate space is encoded first."""
        return self._levels if self._levels is not None else self.level_codes()[0]

    @property
    def chain(self) -> np.ndarray | None:
        """The partition chain of a chain-backed space, else None."""
        return self._chain

    def classes(self, cutoff: int) -> np.ndarray | None:
        """Class labels of the threshold graph ``codes < cutoff`` of a
        chain-backed space: points i and j are joined exactly when
        ``labels[i] == labels[j]``.

        None for a space without a chain, and at cutoff 0, whose graph
        joins no point even to itself.  Past the last row every point
        shares label 0.
        """
        if self._chain is None or cutoff < 1:
            return None
        if cutoff > len(self._chain):
            return np.zeros(self.size, dtype=self._chain.dtype)
        return self._chain[cutoff - 1]

    def cutoff(self, eps: float, strict: bool) -> int:
        """Number of levels < eps (strict) or <= eps, and 0 for NaN.

        The threshold graph at ``eps`` is ``codes < cutoff``, so two scales
        with the same cutoff have the same graph.
        """
        eps_f = float(eps)
        if eps_f != eps_f:  # no distance compares true with NaN
            return 0
        return int(np.searchsorted(self.levels, eps_f, "left" if strict else "right"))

    def close_mask(self, eps: float, strict: bool) -> np.ndarray:
        """Packed threshold graph: row i has bit j set when d(i, j) < eps
        (strict) or d(i, j) <= eps.

        The (n, ceil(n / 8)) uint8 table is built one row block at a time,
        so no n x n boolean table is ever made.
        """
        codes = self.level_codes()[1]
        # a Python int keeps the compare on the narrow dtype; an np.intp
        # bound would promote each block to int64 first
        cutoff = self.cutoff(eps, strict)
        n = self.size
        packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
        rows = block_rows(n)
        for a in range(0, n, rows):
            packed[a:a + rows] = pack_rows(codes[a:a + rows] < cutoff)
        return packed

    def permuted(self, perm: Sequence[int]) -> "FiniteMetricSpace":
        """Same space with points reindexed by ``perm`` (for invariance tests)."""
        perm = list(perm)
        if self.coords is not None:
            return FiniteMetricSpace(
                coords=[self.coords[p] for p in perm], name=self.name)
        idx = np.array(perm)
        levels, codes = self.level_codes()
        return FiniteMetricSpace.from_codes(levels, codes[np.ix_(idx, idx)],
                                            name=self.name)

    def __repr__(self):
        return f"FiniteMetricSpace({self.name!r}, size={self.size})"


def code_dtype(count: int) -> np.dtype:
    """Narrowest unsigned dtype that indexes ``count`` levels."""
    return np.min_scalar_type(count - 1)


def block_rows(n: int) -> int:
    """Rows of an n-column table that a threshold or gather loop takes at once.

    A block holds at most ``ENCODE_BLOCK // 8`` entries (128 KiB of one-byte
    codes), so the loop's temporaries stay a fraction of any larger table,
    even where one ``ENCODE_BLOCK`` would hold all of it; a smaller table is
    one block.
    """
    return max(1, (ENCODE_BLOCK // 8) // n)


def pack_rows(table: np.ndarray) -> np.ndarray:
    """Rows of a boolean table packed eight columns to a byte, column 0 lowest."""
    return np.packbits(table, axis=1, bitorder="little")


def unpack_rows(packed: np.ndarray, columns: int) -> np.ndarray:
    """The boolean table of ``columns`` columns whose packed rows are given."""
    return np.unpackbits(packed, axis=1, count=columns, bitorder="little").view(bool)


def distinct(values) -> np.ndarray:
    """Sorted distinct entries of ``values``, flattened.

    ``np.unique``'s own sort and neighbour compare, so bitwise its result on
    NaN-free floats, without its first call's import of ``numpy.ma``.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def class_minima(labels: np.ndarray) -> list[int]:
    """The lowest point of each class of ``labels``, ascending."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    starts = np.empty(len(ranked), dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    return np.sort(order[starts]).tolist()


def refine(labels: np.ndarray, more: np.ndarray) -> np.ndarray:
    """Dense labels of the pairs ``(labels[i], more[i])``: i and j share
    one exactly when they share both.  Both rows are labels in
    ``[0, len)``; ranks come from ``distinct`` and ``searchsorted``."""
    keys = labels.astype(np.int64) * len(more) + more
    return np.searchsorted(distinct(keys), keys)


def product_codes(a: tuple, b: tuple, op: np.ufunc) -> tuple[np.ndarray, np.ndarray]:
    """``(levels, codes)`` of the pairs of points of two spaces, from theirs: pair (i, j)
    is point ``i * nb + j``, at ``op(d_a(i, k), d_b(j, l))`` from (k, l).  The levels
    are the ``distinct`` values of ``op`` over the levels that the factors' codes use,
    so every one is taken.
    """
    (la, ca), (lb, cb) = a, b
    used = [lv[np.bincount(c.ravel(), minlength=len(lv)) > 0] for lv, c in (a, b)]
    levels = distinct(op.outer(*used))
    lut = np.searchsorted(levels, op.outer(la, lb)).astype(code_dtype(len(levels)))
    n = len(ca) * len(cb)
    return levels, lut[ca[:, None, :, None], cb[None, :, None, :]].reshape(n, n)


def product_chain(a: FiniteMetricSpace, b: FiniteMetricSpace) -> tuple[np.ndarray, np.ndarray]:
    """``(levels, chain)`` of the pairs of points of two chain-backed spaces
    under the max of their distances, pair (i, j) being point ``i * nb + j``,
    with no code built.  The levels are those of ``product_codes(...,
    np.maximum)``, so the derived codes are bitwise its codes.  Two pairs lie
    closer than a level exactly when both factors do, so the row of each
    positive level refines the factors' classes below it.
    """
    levels = distinct(np.maximum.outer(*(s.levels[_taken(s.chain)] for s in (a, b))))
    na, nb = a.size, b.size
    chain = np.empty((len(levels) - 1, na * nb), dtype=np.min_scalar_type(-na * nb))
    for c, level in enumerate(levels[1:]):
        chain[c] = refine(np.repeat(a.classes(a.cutoff(level, True)), nb),
                          np.tile(b.classes(b.cutoff(level, True)), na))
    return levels, chain


def _taken(chain: np.ndarray) -> list[int]:
    """The codes that some pair of a partition chain takes: 0, and each c
    at which row c - 1 splits a class of row c (past the last row, one)."""
    classes = [len(distinct(row)) for row in chain] + [1]
    return [0] + [c for c in range(1, len(classes)) if classes[c - 1] > classes[c]]


def _count_differing(chain: np.ndarray, r, c, out: np.ndarray) -> np.ndarray:
    """``out`` plus, for each pair of a label at ``r`` and one at ``c``
    (indices that broadcast to ``out``'s shape), the number of rows of
    ``chain`` in which the two differ: the pairs' codes when ``out`` is zero."""
    for row in chain:
        out += row[r] != row[c]
    return out


def _chain_codes(chain: np.ndarray, count: int) -> np.ndarray:
    """(n, n) codes of a partition chain, in the dtype that indexes
    ``count`` levels, one row block at a time (``_count_differing``)."""
    n = chain.shape[1]
    if n > MATRIX_CAP:
        raise ParameterError(f"refusing to materialise {n}x{n} matrix")
    codes = np.zeros((n, n), dtype=code_dtype(count))
    rows = block_rows(n)
    for a in range(0, n, rows):
        _count_differing(chain, np.s_[a:a + rows, None], np.s_[:], codes[a:a + rows])
    return codes


def _encode(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct entries of an (n, n) float table and the table of
    their indices; ``rows(a, b)`` gives the table's rows a..b.

    Both passes run over row blocks (the levels are ``distinct`` over each
    block's ``distinct`` entries), so besides the levels and the codes no
    temporary outgrows one block (``np.unique(m, return_inverse=True)``
    would make table-sized int64 ones).
    """
    step = max(1, ENCODE_BLOCK // n)
    blocks = range(0, n, step)
    levels = distinct(np.concatenate([distinct(rows(a, a + step)) for a in blocks]))
    codes = np.empty((n, n), dtype=code_dtype(len(levels)))
    for a in blocks:
        codes[a:a + step] = np.searchsorted(levels, rows(a, a + step))
    return levels, codes
