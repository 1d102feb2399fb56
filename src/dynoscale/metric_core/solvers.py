"""Exact and greedy combinatorial solvers behind the counting layer.

Graphs and set tables come in as packed rows (``space.pack_rows``), the
format ``FiniteMetricSpace.close_mask`` builds.  A square table is a graph
on its rows, and the graph searches ignore a point's own bit, so a
threshold graph comes in as built, each point in its own row.  The exact
set cover takes a symmetric ball table, so the rows that hold a point are
the points of its own row; partial covers take their column count from
their weights.  All solvers are deterministic: ties break on the lowest
index.  Exact solvers consume a node-expansion budget and raise
``BudgetExceededError`` when it runs out; callers fall back to certified
greedy brackets.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from functools import reduce
from itertools import accumulate
from operator import or_

import numpy as np

from ..errors import BudgetExceededError
from .space import block_rows, unpack_rows

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
# Every search below runs on Python-int bitsets: packed row i becomes one
# int whose bit j is set when row i holds column j.  Unions, intersections,
# subset tests and counts are then single int operations.


def _ints(packed: np.ndarray) -> list[int]:
    """One int per packed row, bit j for column j."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _neighbours(adj: np.ndarray) -> list[int]:
    """One int per packed graph row, without the row's own point."""
    return [row & ~(1 << i) for i, row in enumerate(_ints(adj))]


def _members(bits: int):
    """Indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _full(n: int) -> int:
    return (1 << n) - 1


# -- independent sets ----------------------------------------------------


def greedy_independent_set(adj: np.ndarray) -> list[int]:
    """Maximal independent set of a packed graph, points taken in index order."""
    return _greedy_independent(_neighbours(adj), _full(adj.shape[0]))


def _greedy_independent(rows: list[int], alive: int) -> list[int]:
    picked = []
    while alive:
        v = (alive & -alive).bit_length() - 1
        picked.append(v)
        alive &= ~(rows[v] | 1 << v)
    return picked


def greedy_clique_cover(adj: np.ndarray) -> int:
    """Number of cliques in a greedy cover of the packed conflict graph.

    Any clique cover count upper-bounds the maximum independent set.
    """
    return _greedy_clique_cover(_neighbours(adj), _full(adj.shape[0]))


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
    """Maximum independent set of a packed conflict graph, by branch and bound.

    The graph splits into connected components, and a component closes at
    the root when its greedy independent set meets its greedy clique cover:
    a graph of disjoint cliques (every ultrametric conflict graph) answers
    so with its class minima.
    """
    rows = _neighbours(adj)
    b = _Budget(budget)
    out: list[int] = []
    for comp in _components(rows):
        out.extend(_mis_on_component(rows, comp, b))
    return sorted(out)


def _mis_on_component(rows: list[int], comp: int, b: _Budget) -> list[int]:
    best = _greedy_independent(rows, comp)
    if len(best) == _greedy_clique_cover(rows, comp):
        return best
    return _mis_branch(rows, b, comp, [], best)


def _mis_branch(rows: list[int], b: _Budget, alive: int, current: list[int],
                best: list[int]) -> list[int]:
    """The larger of ``best`` and the largest independent set that extends
    ``current`` by points of ``alive``; ``best`` on a tie."""
    b.spend()
    if not alive:
        return list(current) if len(current) > len(best) else best
    if len(current) + _greedy_clique_cover(rows, alive) <= len(best):
        return best
    # branch on the most neighbours left, the lowest index on ties
    v, degree = -1, -1
    for u in _members(alive):
        d = (rows[u] & alive).bit_count()
        if d > degree:
            v, degree = u, d
    if degree == 0:
        cand = current + list(_members(alive))
        return cand if len(cand) > len(best) else best
    best = _mis_branch(rows, b, alive & ~(rows[v] | 1 << v), current + [v], best)
    return _mis_branch(rows, b, alive & ~(1 << v), current, best)


# -- clique covers ---------------------------------------------------------


def exact_min_clique_cover(adj: np.ndarray, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum number of cliques covering a packed graph, exactly; a point's
    own bit is ignored.

    Each connected component is covered on its own.  Its greedy
    independent set (no two of its vertices share a clique) and its greedy
    clique cover bracket its answer; when they meet, it closes without
    spending budget, as every component of a graph of disjoint cliques
    does.  Else a clique cover is a colouring of the complement graph,
    found by DSatur branch and bound (Brelaz 1979) with one budget node per
    branch.  Both greedy bounds add up over the components, so a
    whole-graph check would close no cell that these miss.
    """
    rows = _neighbours(adj)
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
    """Drop duplicate and dominated (subset) packed rows; returns (masks, kept_idx)."""
    rows = _ints(masks)
    sizes = [row.bit_count() for row in rows]
    kept: list[int] = []
    for i in sorted(_first_rows(rows), key=lambda i: (-sizes[i], i)):
        # a strict subset is strictly smaller, so equal-size rows never dominate
        if not any(sizes[j] > sizes[i] and rows[i] | rows[j] == rows[j] for j in kept):
            kept.append(i)
    return masks[kept], np.array(kept)


def greedy_set_cover(masks: np.ndarray) -> list[int]:
    """Greedy cover of every point by the packed balls of a square table;
    ties break on the lowest index."""
    return _greedy_cover(_ints(masks), _full(masks.shape[0]))


def _greedy_cover(rows: list[int], universe: int) -> list[int]:
    """Row with the most uncovered points, the lowest index on ties, until
    ``universe`` is covered.

    A lazy max-heap keyed (-gain, row) holds each row's gain as last
    counted.  Gains only fall, so a popped row whose recount still equals
    its key beats every other row, ties going to the lower index: the picks
    of a full recount at each step, recounting only the rows popped.
    """
    heap = [(-row.bit_count(), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    covered, picked = 0, []
    while covered != universe:
        if not heap or heap[0][0] == 0:
            raise ValueError("universe not coverable by the given sets")
        key, best = heapq.heappop(heap)
        gain = (rows[best] & ~covered).bit_count()
        if gain != -key:
            heapq.heappush(heap, (-gain, best))
            continue
        picked.append(best)
        covered |= rows[best]
    return picked


def _arc_cover(masks: np.ndarray, columns: int) -> list[int] | None:
    """Minimum cover, rows ascending, when every nonempty packed row is one
    circular run of the ``columns`` columns and every column is covered;
    otherwise None.

    This is the circle cover by arcs (Lee & Lee, IPL 1984).  A full row
    answers alone.  Else each arc through column 0 is tried as the first
    arc, and the columns it leaves are covered greedily: from the first
    uncovered column, jump to the furthest reach of any arc that covers it.
    Started from the furthest-reaching arc through 0 of an optimum, the
    greedy never needs more arcs than that optimum, so the shortest chain
    is a minimum cover.
    """
    m, n = masks.shape[0], columns
    if n == 0 or not unpack_rows(np.bitwise_or.reduce(masks, axis=0, keepdims=True),
                                 n).all():
        return None
    # a nonempty row that is not full is one circular run when it has
    # exactly one 0 -> 1 step, read circularly; the rows are unpacked one
    # block at a time, and the first block with a split row ends the stage
    starts = np.empty(m, dtype=np.intp)
    lengths = np.empty(m, dtype=np.intp)
    step = block_rows(n)
    for a in range(0, m, step):
        block = unpack_rows(masks[a:a + step], n)
        rises = block & ~np.roll(block, 1, axis=1)
        if np.count_nonzero(rises, axis=1).max() > 1:
            return None
        starts[a:a + step] = rises.argmax(axis=1)
        lengths[a:a + step] = np.count_nonzero(block, axis=1)
    full = np.flatnonzero(lengths == n)
    if full.size:
        return [int(full[0])]
    arcs = np.flatnonzero(lengths)
    starts = starts[arcs]
    ends = starts + lengths[arcs]  # past the last column, read on from column n
    # best[p] packs the furthest reach of an arc starting at or before
    # column p with its row, the lowest row on ties; the part of a wrapping
    # arc past column 0 starts before every column
    keys = ends * m + (m - 1 - arcs)
    best = np.full(n, -1, dtype=np.int64)
    np.maximum.at(best, starts, keys)
    wraps = ends > n
    if wraps.any():
        best[0] = max(best[0], int(keys[wraps].max()) - n * m)
    best = np.maximum.accumulate(best)
    reach, pick = (best // m).tolist(), (m - 1 - best % m).tolist()
    chosen: list[int] | None = None
    for row, start, end in zip(arcs.tolist(), starts.tolist(), ends.tolist()):
        if start and end <= n:
            continue  # not through column 0
        # the columns this first arc leaves are [end - n, start) or [end, n)
        chain, p, stop = [row], (end - n if start else end), (start or n)
        while p < stop:
            if chosen is not None and len(chain) >= len(chosen):
                break
            chain.append(pick[p])
            p = reach[p]
        else:
            if chosen is None or len(chain) < len(chosen):
                chosen = chain
    return sorted(chosen)


def exact_min_set_cover(balls: np.ndarray, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Minimum cover of all points by the packed rows of a symmetric ball
    table, exactly: row i is the ball around point i, so the rows that hold
    point j are the points of row j.

    A table whose rows are all arcs of a circle (the ball family of sorted
    points on a line or a circle) answers by the circle cover, its rows
    ascending, and spends no budget.  The rest goes to ``_cover_search``,
    one budget node per search node; there a table whose rows are the
    classes of an equivalence relation (the ball family of an ultrametric)
    closes at the root, with the first row of each class.
    """
    arcs = _arc_cover(balls, balls.shape[0])
    if arcs is not None:
        return arcs
    rows = _ints(balls)
    if reduce(or_, rows, 0) != _full(len(rows)):
        raise ValueError("universe not coverable by the given sets")
    return _cover_search(rows, _Budget(budget))


def _cover_search(rows: list[int], b: _Budget) -> list[int]:
    """Minimum cover, rows ascending, of the points of a symmetric table
    ``rows``, point j held by the rows ``rows[j]``; only the first of equal
    rows is tried.  Each component (points joined by a common row) has its
    greedy cover as incumbent and a greedy point packing as bound (fewest
    holders first, each striking every point its holders cover); when they
    meet, no budget is spent.  Else, for k from the bound up, a depth-first
    search for a cover of at most k rows branches on the point with the
    fewest holders left, tries them by new coverage, bars each tried row
    from its later siblings and prunes at depth + bound > k."""
    distinct = reduce(or_, (1 << i for i in _first_rows(rows)), 0)
    out = []
    # each point in its own row: points joined by a common row are the
    # components of ``rows`` read as a graph, and the rows that hold a
    # component's points are its points
    for cols in _components(rows):
        allowed = cols & distinct
        kept = list(_members(allowed))
        best = [kept[i] for i in _greedy_cover([rows[r] for r in kept], cols)]
        for k in range(_cover_bound(rows, cols, allowed)[0], len(best)):
            if found := _cover_branch(rows, b, cols, allowed, k, []):
                best = found  # no cover of k - 1 rows was found, so a minimum
                break
        out.extend(best)
    return sorted(out)


def _cover_bound(rows: list[int], cols: int, allowed: int) -> tuple[int, int]:
    """The packing count of the points ``cols`` by the rows ``allowed``, and
    the point it takes first."""
    order = sorted(_members(cols), key=lambda c: (rows[c] & allowed).bit_count())
    count = 0
    for c in order:
        if cols >> c & 1:
            count += 1
            cols &= ~reduce(or_, (rows[r] for r in _members(rows[c] & allowed)), 0)
    return count, order[0]


def _cover_branch(rows: list[int], b: _Budget, cols: int, allowed: int, k: int,
                  picked: list[int]) -> list[int] | None:
    """A cover of the points ``cols`` by at most ``k`` rows in all, ``picked``
    included, drawn from ``allowed``; None when there is none."""
    b.spend()
    if not cols:
        return picked
    count, first = _cover_bound(rows, cols, allowed)
    if len(picked) + count > k:
        return None
    tries = _members(rows[first] & allowed)
    for r in sorted(tries, key=lambda r: -(rows[r] & cols).bit_count()):
        found = _cover_branch(rows, b, cols & ~rows[r], allowed, k, picked + [r])
        if found is not None:
            return found
        allowed &= ~(1 << r)
    return None


def _mass(weights, bits: int, zero):
    """Total weight of the columns in ``bits``, added onto ``zero``."""
    return sum((weights[i] for i in _members(bits)), start=zero)


def greedy_partial_cover(masks: np.ndarray, weights, target) -> list[int]:
    """Greedy mass-constrained cover by packed rows: the row with the
    largest uncovered mass, the lowest index on ties, until the covered mass
    reaches the target or no row adds mass.  Column j weighs ``weights[j]``.

    Masses add exactly when weights and target are Fractions.  A row's gain
    is summed again only when a pick covers some of its columns, so an
    unchanged uncovered set keeps the sum it had.
    """
    rows = _ints(masks)
    w = list(weights)
    zero = type(w[0])(0)
    gains = [_mass(w, row, zero) for row in rows]
    covered, have, picked = 0, zero, []
    while have < target:
        best = max(range(len(rows)), key=gains.__getitem__)
        if gains[best] <= 0:
            break
        picked.append(best)
        have += gains[best]
        new = rows[best] & ~covered
        covered |= new
        gains = [_mass(w, row & ~covered, zero) if row & new else gain
                 for row, gain in zip(rows, gains)]
    return picked


def exact_min_partial_cover(masks: np.ndarray, weights, target,
                            budget: int = DEFAULT_BUDGET) -> list[int]:
    """Minimum number of packed rows whose union carries mass >= target.

    Masses add exactly when weights and target are Fractions.  A target
    that all sets together miss raises ValueError.  The greedy cover is the
    first incumbent; branch and bound then takes or skips the sets, heaviest
    first, one budget node per branch, and prunes a branch when even the
    heaviest sets could not close its gap in fewer sets than the incumbent.
    """
    if target <= 0:
        return []
    work, kept = dedupe_masks(masks)
    rows = _ints(work)
    w = list(weights)
    zero = type(w[0])(0)
    if _mass(w, reduce(or_, rows, 0), zero) < target:
        raise ValueError("sets cannot reach the target mass")
    b = _Budget(budget)
    set_masses = [_mass(w, row, zero) for row in rows]
    order = sorted(range(len(rows)), key=lambda i: (-set_masses[i], i))
    best = greedy_partial_cover(work, w, target)
    # optimistic completion: k more sets add at most the k largest set masses,
    # and all of them together reach the target
    prefix = list(accumulate((set_masses[s] for s in order), initial=zero))
    # depth first, the branch that takes set order[pos] before the one that skips it
    stack = [(0, 0, [], zero)]
    while stack:
        pos, covered, chosen, have = stack.pop()
        b.spend()
        if have >= target:
            # the pruning below lets only a smaller cover get here
            best = chosen
            continue
        if pos >= len(order):
            continue
        if len(chosen) + bisect_left(prefix, target - have) >= len(best):
            continue
        s = order[pos]
        stack.append((pos + 1, covered, chosen, have))
        gain = _mass(w, rows[s] & ~covered, zero)
        if gain > 0:
            stack.append((pos + 1, covered | rows[s], chosen + [s], have + gain))
    return [int(kept[i]) for i in best]


# -- maximal cliques ------------------------------------------------------


def maximal_cliques(adj: np.ndarray, budget: int = DEFAULT_BUDGET) -> list[np.ndarray]:
    """All maximal cliques of a boolean graph (Bron-Kerbosch with pivot),
    as boolean rows; one budget node per call.

    No count uses it; a set cover over its cliques cross-checks
    ``exact_min_clique_cover``.
    """
    n = adj.shape[0]
    cliques: list[np.ndarray] = []
    _expand(adj, _Budget(budget), [], np.ones(n, dtype=bool), np.zeros(n, dtype=bool),
            cliques)
    return cliques


def _expand(adj: np.ndarray, b: _Budget, r: list[int], p: np.ndarray, x: np.ndarray,
            cliques: list[np.ndarray]) -> None:
    """Appends to ``cliques`` every maximal clique that extends ``r`` by
    points of ``p``, none of ``x``; one budget node per call."""
    b.spend()
    if not p.any() and not x.any():
        mask = np.zeros(adj.shape[0], dtype=bool)
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
        _expand(adj, b, r + [int(v)], p & adj[v], x & adj[v], cliques)
        p[v] = False
        x[v] = True


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
