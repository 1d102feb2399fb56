"""Exact and greedy combinatorial solvers behind the counting layer.

All solvers are deterministic: ties break on the lowest index.  Exact
solvers consume a node-expansion budget and raise ``BudgetExceededError``
when it runs out; callers fall back to certified greedy brackets.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

import numpy as np

from ..errors import BudgetExceededError, DynoscaleError

DEFAULT_BUDGET = 10_000_000


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = int(n)

    def spend(self, k: int = 1) -> None:
        self.left -= k
        if self.left < 0:
            raise BudgetExceededError("node expansion budget exhausted")


# -- the set format ----------------------------------------------------------
#
# Every search below runs on Python-int bitsets: row i of a boolean table
# becomes one int whose bit j is set when ``table[i, j]`` is.  Unions,
# intersections, subset tests and counts are then single int operations.


def _packed(table: np.ndarray) -> np.ndarray:
    """Rows of a boolean table packed eight columns to a byte, column 0 lowest."""
    return np.packbits(table, axis=1, bitorder="little")


def _ints(packed: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bitsets(table: np.ndarray) -> list[int]:
    """One int per row of a boolean table, bit j for column j."""
    return _ints(_packed(table))


def _members(bits: int):
    """Indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _full(n: int) -> int:
    return (1 << n) - 1


# -- the partition certificate ---------------------------------------------
#
# A threshold graph of an ultrametric (every exp shift, at every horizon) is
# an equivalence relation once each point is joined to itself, and then each
# count is its number of classes.  One test on the packed rows finds this
# before any row is read into Python.

_LOW_BIT = np.array([(b & -b).bit_length() - 1 for b in range(256)], dtype=np.intp)


def _with_loops(packed: np.ndarray) -> np.ndarray:
    """A copy of a square packed table with every point joined to itself."""
    out = packed.copy()
    i = np.arange(out.shape[0])
    out[i, i >> 3] |= (1 << (i & 7)).astype(np.uint8)
    return out


def _partition(packed: np.ndarray) -> list[int] | None:
    """Class minima, ascending, when the rows of a square packed table, each
    holding its own point, are the classes of an equivalence relation;
    otherwise None.

    Let ``first[i]`` be the lowest member of row i.  When every row equals
    row ``first[i]`` and the rows with ``first[i] == i`` hold N points between
    them, those rows are disjoint, cover every point and are all the
    distinct rows.
    """
    n = packed.shape[0]
    if n == 0:
        return []
    i = np.arange(n)
    byte = (packed != 0).argmax(1)
    first = 8 * byte + _LOW_BIT[packed[i, byte]]
    if not np.array_equal(packed, packed[first]):
        return None
    minima = np.flatnonzero(first == i)
    if np.count_nonzero(np.unpackbits(packed[minima])) != n:
        return None
    return minima.tolist()


# -- independent sets ----------------------------------------------------


def greedy_independent_set(adj: np.ndarray) -> list[int]:
    """Maximal independent set, points taken in index order."""
    return _greedy_independent(_bitsets(adj), _full(adj.shape[0]))


def _greedy_independent(rows: list[int], alive: int) -> list[int]:
    picked = []
    while alive:
        v = (alive & -alive).bit_length() - 1
        picked.append(v)
        alive &= ~(rows[v] | 1 << v)
    return picked


def greedy_clique_cover(adj: np.ndarray) -> int:
    """Number of cliques in a greedy cover of the conflict graph.

    Any clique cover count upper-bounds the maximum independent set.
    """
    return _greedy_clique_cover(_bitsets(adj), _full(adj.shape[0]))


def _greedy_clique_cover(rows: list[int], alive: int) -> int:
    count = 0
    while alive:
        low = alive & -alive
        common = alive & rows[low.bit_length() - 1]
        alive ^= low
        count += 1
        while common:
            low = common & -common
            alive &= ~low
            common &= rows[low.bit_length() - 1] & alive
    return count


def _components(rows: list[int]):
    """Connected components as bitsets, in order of their lowest index."""
    unseen = _full(len(rows))
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in _members(frontier):
                reach |= rows[v]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        yield comp


def exact_max_independent_set(adj: np.ndarray, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Maximum independent set of a conflict graph, by branch and bound.

    A graph of disjoint cliques (the shape of every ultrametric conflict
    graph) answers with its class minima by the partition certificate.
    Otherwise the graph splits into connected components, and a component
    closes at the root when its greedy independent set meets its greedy
    clique cover.
    """
    packed = _packed(adj)
    classes = _partition(_with_loops(packed))
    if classes is not None:
        return classes
    rows = _ints(packed)
    b = _Budget(budget)
    out: list[int] = []
    for comp in _components(rows):
        out.extend(_mis_on_component(rows, comp, b))
    return sorted(out)


def _mis_on_component(rows: list[int], comp: int, b: _Budget) -> list[int]:
    best = _greedy_independent(rows, comp)
    if len(best) == _greedy_clique_cover(rows, comp):
        return best
    best_box = [best]

    def rec(alive: int, current: list[int]) -> None:
        b.spend()
        if not alive:
            if len(current) > len(best_box[0]):
                best_box[0] = list(current)
            return
        if len(current) + _greedy_clique_cover(rows, alive) <= len(best_box[0]):
            return
        # branch on the most neighbours left, the lowest index on ties
        v, degree = -1, -1
        for u in _members(alive):
            d = (rows[u] & alive).bit_count()
            if d > degree:
                v, degree = u, d
        if degree == 0:
            cand = current + list(_members(alive))
            if len(cand) > len(best_box[0]):
                best_box[0] = cand
            return
        rec(alive & ~(rows[v] | 1 << v), current + [v])
        rec(alive & ~(1 << v), current)

    rec(comp, [])
    return best_box[0]


# -- clique covers ---------------------------------------------------------


def exact_min_clique_cover(adj: np.ndarray, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum number of cliques covering an irreflexive graph, exactly.

    A graph of disjoint cliques answers with their number by the partition
    certificate.  Otherwise the greedy independent set (no two of its
    vertices share a clique) and the greedy clique cover bracket the
    answer; when they meet, the root closes without spending budget.  Else
    each connected component is covered on its own: a clique cover is a
    colouring of the complement graph, found by DSatur branch and bound
    (Brelaz 1979) with one budget node per branch.
    """
    packed = _packed(adj)
    classes = _partition(_with_loops(packed))
    if classes is not None:
        return len(classes)
    rows = _ints(packed)
    everything = _full(len(rows))
    upper = _greedy_clique_cover(rows, everything)
    if len(_greedy_independent(rows, everything)) == upper:
        return upper
    b = _Budget(budget)
    total = 0
    for comp in _components(rows):
        clique = _greedy_independent(rows, comp)
        cover = _greedy_clique_cover(rows, comp)
        total += cover if len(clique) == cover else _dsatur(rows, comp, clique, cover, b)
    return total


def _dsatur(rows: list[int], comp: int, clique: list[int], upper: int, b: _Budget) -> int:
    """Chromatic number of the complement of ``rows`` on the vertices ``comp``.

    ``clique`` is a clique of that complement (a lower bound, coloured
    first) and ``upper`` the size of a known colouring.  The next vertex is
    the uncoloured one with the most distinct neighbour colours, then the
    most uncoloured neighbours, then the lowest index; it tries every colour
    in use and one new colour while that can still beat the best colouring.
    """
    far = {v: comp & ~(rows[v] | 1 << v) for v in _members(comp)}
    lower, best = len(clique), upper
    colour: dict[int, int] = {}
    forbid = dict.fromkeys(far, 0)  # bitset of the colours on each vertex's neighbours
    uncoloured = comp

    def paint(v: int, c: int) -> list[int]:
        nonlocal uncoloured
        colour[v] = c
        uncoloured &= ~(1 << v)
        bit, changed = 1 << c, []
        for u in _members(far[v] & uncoloured):
            if not forbid[u] & bit:
                forbid[u] |= bit
                changed.append(u)
        return changed

    def unpaint(v: int, changed: list[int]) -> None:
        nonlocal uncoloured
        mask = ~(1 << colour.pop(v))
        uncoloured |= 1 << v
        for u in changed:
            forbid[u] &= mask

    def pick() -> int:
        best_v, best_key = -1, (-1, -1)
        for u in _members(uncoloured):
            key = (forbid[u].bit_count(), (far[u] & uncoloured).bit_count())
            if key > best_key:
                best_v, best_key = u, key
        return best_v

    for c, v in enumerate(clique):
        paint(v, c)
    # frame: [vertex, next colour to try, colours in use before it, undo list]
    stack = [[pick(), 0, lower, None]]
    while stack:
        frame = stack[-1]
        v, c, used, changed = frame
        if changed is not None:
            unpaint(v, changed)
            frame[3] = None
        limit = min(used + 1, best - 1)
        while c < limit and forbid[v] >> c & 1:
            c += 1
        if c >= limit:
            stack.pop()
            continue
        b.spend()
        frame[1] = c + 1
        frame[3] = paint(v, c)
        if uncoloured:
            stack.append([pick(), 0, max(used, c + 1), None])
            continue
        best = max(used, c + 1)
        if best == lower:
            break
    return best


# -- set cover -----------------------------------------------------------


def _first_rows(rows: list[int]) -> list[int]:
    """Indices of the first occurrence of each distinct row, ascending."""
    first: dict[int, int] = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    return list(first.values())


def dedupe_masks(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate and dominated (subset) rows; returns (masks, kept_idx)."""
    rows = _bitsets(masks)
    sizes = [row.bit_count() for row in rows]
    kept: list[int] = []
    for i in sorted(_first_rows(rows), key=lambda i: (-sizes[i], i)):
        # a strict subset is strictly smaller, so equal-size rows never dominate
        if not any(sizes[j] > sizes[i] and rows[i] | rows[j] == rows[j] for j in kept):
            kept.append(i)
    return masks[kept], np.array(kept)


def greedy_set_cover(masks: np.ndarray) -> list[int]:
    """Greedy cover of the full universe; ties break on the lowest index."""
    return _greedy_cover(_bitsets(masks), _full(masks.shape[1]))


def _greedy_cover(rows: list[int], universe: int) -> list[int]:
    covered, picked = 0, []
    while covered != universe:
        gains = [(row & ~covered).bit_count() for row in rows]
        best = max(range(len(rows)), key=gains.__getitem__)
        if gains[best] == 0:
            raise ValueError("universe not coverable by the given sets")
        picked.append(best)
        covered |= rows[best]
    return picked


def exact_min_set_cover(masks: np.ndarray, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Minimum set cover, exactly.

    A square table whose rows are the classes of an equivalence relation
    (the ball family of an ultrametric) needs every class, and answers with
    the first row of each by the partition certificate.  The rest goes
    through an exact integer program (HiGHS branch and cut) with the node
    budget mapped onto the solver's node limit.  Dominated rows are left to
    the solver's presolve.
    """
    packed = _packed(masks)
    if masks.shape[0] == masks.shape[1] and masks.diagonal().all():
        classes = _partition(packed)
        if classes is not None:
            return classes
    rows = _ints(packed)
    kept = [i for i in _first_rows(rows) if rows[i]]
    work = [rows[i] for i in kept]
    universe = _full(masks.shape[1])
    if reduce(or_, work, 0) != universe:
        raise ValueError("universe not coverable by the given sets")
    chosen = _milp_min_cover(masks[kept], len(_greedy_cover(work, universe)), budget)
    if chosen is None:
        raise BudgetExceededError("set-cover node limit reached")
    return [kept[i] for i in chosen]


def _milp_min_cover(work: np.ndarray, greedy_size: int, budget: int):
    from scipy.optimize import milp, LinearConstraint, Bounds
    from scipy.sparse import csr_matrix

    k = work.shape[0]
    cons = LinearConstraint(csr_matrix(work.T.astype(float)),
                            lb=np.ones(work.shape[1]), ub=np.inf)
    res = milp(c=np.ones(k), constraints=cons,
               integrality=np.ones(k), bounds=Bounds(0, 1),
               options={"node_limit": max(budget // 100, 1), "presolve": True})
    if res.status != 0 or res.x is None:
        return None
    picked = [i for i in range(k) if res.x[i] > 0.5]
    # HiGHS certifies optimality; the greedy can only confirm, never beat it
    if len(picked) > greedy_size:
        raise DynoscaleError(
            f"MILP optimum {len(picked)} exceeds the greedy cover {greedy_size}")
    return picked


def greedy_partial_cover(masks: np.ndarray, weights, target) -> list[int]:
    """Greedy mass-constrained cover: picks the largest uncovered mass."""
    w = np.array([float(x) for x in weights])
    covered = np.zeros(masks.shape[1], dtype=bool)
    picked: list[int] = []
    target_f = float(target)
    while float(w[covered].sum()) < target_f - 1e-15:
        gains = (masks & ~covered) @ w
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            break
        picked.append(best)
        covered |= masks[best]
    return picked


def exact_min_partial_cover(masks: np.ndarray, weights, target,
                            budget: int = DEFAULT_BUDGET) -> list[int]:
    """Minimum number of sets whose union carries mass >= target.

    Mass comparisons are exact when weights and target are Fractions.
    """
    if target <= 0:
        return []
    work, kept = dedupe_masks(masks)
    rows = _bitsets(work)
    b = _Budget(budget)
    w = list(weights)
    zero = type(w[0])(0)

    def mass(bits: int):
        return sum((w[i] for i in _members(bits)), start=zero)

    set_masses = [mass(row) for row in rows]
    order = sorted(range(len(rows)), key=lambda i: (-float(set_masses[i]), i))

    if sum(row.bit_count() for row in rows) == reduce(or_, rows, 0).bit_count():
        # disjoint sets: heaviest-first is optimal for a pure count objective
        chosen, have = [], zero
        for s in order:
            if have >= target:
                break
            chosen.append(s)
            have += set_masses[s]
        if have < target:
            raise ValueError("sets cannot reach the target mass")
        return [int(kept[i]) for i in chosen]

    greedy = greedy_partial_cover(work, w, target)
    if mass(reduce(or_, (rows[i] for i in greedy), 0)) < target:
        greedy = list(range(len(rows)))
    best: list[list[int]] = [greedy]
    # optimistic completion: k more sets add at most the k largest set masses
    prefix = [zero]
    for s in order:
        prefix.append(prefix[-1] + set_masses[s])

    def min_extra_sets(need) -> int:
        for k in range(len(prefix)):
            if prefix[k] >= need:
                return k
        return len(order) + 1

    def solve(pos: int, covered: int, chosen: list[int], have) -> None:
        b.spend()
        if have >= target:
            if len(chosen) < len(best[0]):
                best[0] = list(chosen)
            return
        if pos >= len(order):
            return
        if len(chosen) + min_extra_sets(target - have) >= len(best[0]):
            return
        s = order[pos]
        gain = mass(rows[s] & ~covered)
        if gain > 0:
            solve(pos + 1, covered | rows[s], chosen + [s], have + gain)
        solve(pos + 1, covered, chosen, have)

    solve(0, 0, [], zero)
    return [int(kept[i]) for i in best[0]]


# -- maximal cliques ------------------------------------------------------


def maximal_cliques(adj: np.ndarray, budget: int = DEFAULT_BUDGET) -> list[np.ndarray]:
    """All maximal cliques (Bron-Kerbosch with pivot); one budget node per call.

    No count uses it; a set cover over its cliques cross-checks
    ``exact_min_clique_cover``.
    """
    n = adj.shape[0]
    b = _Budget(budget)
    cliques: list[np.ndarray] = []

    def expand(r: list[int], p: np.ndarray, x: np.ndarray) -> None:
        b.spend()
        if not p.any() and not x.any():
            mask = np.zeros(n, dtype=bool)
            mask[r] = True
            cliques.append(mask)
            return
        pool = np.flatnonzero(p | x)
        pivot, best = int(pool[0]), -1
        for u in pool:
            deg = int((adj[u] & p).sum())
            if deg > best:
                best, pivot = deg, int(u)
        for v in np.flatnonzero(p & ~adj[pivot]):
            expand(r + [int(v)], p & adj[v], x & adj[v])
            p[v] = False
            x[v] = True

    expand([], np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
    return cliques


# -- exact sweeps on the line ---------------------------------------------


def line_max_separated(coords: list, eps) -> list[int]:
    """Maximum strictly-eps-separated subset of sorted line points.

    The left-to-right greedy is optimal on the line.  Comparisons stay in
    Fraction arithmetic when the inputs are Fractions.
    """
    picked = [0]
    last = coords[0]
    for i in range(1, len(coords)):
        if coords[i] - last > eps:
            picked.append(i)
            last = coords[i]
    return picked


def line_min_ball_cover(coords: list, eps) -> list[int]:
    """Minimum cover of sorted line points by open eps-balls centred at points."""
    n = len(coords)
    centers = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and coords[j + 1] - coords[i] < eps:
            j += 1
        centers.append(j)
        i = j + 1
        while i < n and coords[i] - coords[j] < eps:
            i += 1
    return centers


def line_min_diameter_cover(coords: list, eps) -> int:
    """Minimum number of diameter-<eps sets covering sorted line points."""
    n = len(coords)
    count = 0
    i = 0
    while i < n:
        count += 1
        j = i
        while j + 1 < n and coords[j + 1] - coords[i] < eps:
            j += 1
        i = j + 1
    return count
