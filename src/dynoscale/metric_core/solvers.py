"""Exact and greedy combinatorial solvers behind the counting layer.

All solvers are deterministic: ties break on the lowest index.  Exact
solvers consume a node-expansion budget and raise ``BudgetExceededError``
when it runs out; callers fall back to certified greedy brackets.
"""

from __future__ import annotations

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


# -- independent sets ----------------------------------------------------


def greedy_independent_set(adj: np.ndarray, alive: np.ndarray | None = None) -> list[int]:
    """Maximal independent set, points taken in index order."""
    n = adj.shape[0]
    alive = np.ones(n, dtype=bool) if alive is None else alive.copy()
    picked = []
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            return picked
        v = int(idx[0])
        picked.append(v)
        alive[v] = False
        alive &= ~adj[v]


def greedy_clique_cover(adj: np.ndarray, alive: np.ndarray | None = None) -> int:
    """Number of cliques in a greedy cover of the conflict graph.

    Any clique cover count upper-bounds the maximum independent set.
    """
    n = adj.shape[0]
    alive = np.ones(n, dtype=bool) if alive is None else alive.copy()
    count = 0
    while alive.any():
        v = int(np.flatnonzero(alive)[0])
        common = alive & adj[v]
        alive[v] = False
        count += 1
        while common.any():
            u = int(np.flatnonzero(common)[0])
            alive[u] = False
            common = common & adj[u] & alive
    return count


def exact_max_independent_set(adj: np.ndarray, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Maximum independent set of a conflict graph, by branch and bound.

    The graph splits into connected components first.  Disjoint-clique
    instances (the usual shape for ultrametric conflicts) resolve at the
    root because the greedy lower bound meets the clique-cover upper bound.
    """
    n = adj.shape[0]
    b = _Budget(budget)
    out: list[int] = []
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start]:
            continue
        comp = _component_mask(adj, start)
        seen |= comp
        out.extend(_mis_on_component(adj, comp, b))
    return sorted(out)


def _mis_on_component(adj: np.ndarray, comp: np.ndarray, b: _Budget) -> list[int]:
    best = greedy_independent_set(adj, comp)
    if len(best) == greedy_clique_cover(adj, comp):
        return best
    best_box = [best]

    def rec(alive: np.ndarray, current: list[int]) -> None:
        b.spend()
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            if len(current) > len(best_box[0]):
                best_box[0] = list(current)
            return
        if len(current) + greedy_clique_cover(adj, alive) <= len(best_box[0]):
            return
        sub_deg = adj[np.ix_(idx, idx)].sum(axis=1)
        if sub_deg.max() == 0:
            cand = current + [int(i) for i in idx]
            if len(cand) > len(best_box[0]):
                best_box[0] = cand
            return
        v = int(idx[int(np.argmax(sub_deg))])
        with_v = alive & ~adj[v]
        with_v[v] = False
        rec(with_v, current + [v])
        without = alive.copy()
        without[v] = False
        rec(without, current)

    rec(comp, [])
    return best_box[0]


def _component_mask(adj: np.ndarray, start: int) -> np.ndarray:
    n = adj.shape[0]
    mask = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    frontier[start] = True
    while frontier.any():
        mask |= frontier
        frontier = (adj[frontier].any(axis=0)) & ~mask
    return mask


# -- clique covers ---------------------------------------------------------


def exact_min_clique_cover(adj: np.ndarray, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum number of cliques covering an irreflexive graph, exactly.

    The greedy independent set (no two of its vertices share a clique) and
    the greedy clique cover bracket the answer; when they meet, the root
    closes without spending budget.  Otherwise each connected component is
    covered on its own: a clique cover is a colouring of the complement
    graph, found by DSatur branch and bound (Brelaz 1979) with one budget
    node per branch.
    """
    upper = greedy_clique_cover(adj)
    if len(greedy_independent_set(adj)) == upper:
        return upper
    n = adj.shape[0]
    b = _Budget(budget)
    total = 0
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start]:
            continue
        comp = _component_mask(adj, start)
        seen |= comp
        total += _clique_cover_on_component(adj, comp, b)
    return total


def _clique_cover_on_component(adj: np.ndarray, comp: np.ndarray, b: _Budget) -> int:
    lower = greedy_independent_set(adj, comp)
    upper = greedy_clique_cover(adj, comp)
    if len(lower) == upper:
        return upper
    idx = np.flatnonzero(comp)
    far = ~adj[np.ix_(idx, idx)]
    np.fill_diagonal(far, False)
    packed = np.packbits(far, axis=1, bitorder="little")
    far_bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
    local = {int(v): i for i, v in enumerate(idx)}
    return _dsatur(far_bits, [local[v] for v in lower], upper, b)


def _dsatur(far_bits: list[int], clique: list[int], upper: int, b: _Budget) -> int:
    """Chromatic number of the graph with neighbour bitsets ``far_bits``.

    ``clique`` is a clique of that graph (a lower bound, coloured first)
    and ``upper`` the size of a known colouring.  The next vertex is the
    uncoloured one with the most distinct neighbour colours, then the most
    uncoloured neighbours, then the lowest index; it tries every colour in
    use and one new colour while that can still beat the best colouring.
    """
    k = len(far_bits)
    lower, best = len(clique), upper
    colour = [-1] * k
    forbid = [0] * k  # bitset of the colours on each vertex's neighbours
    uncoloured = (1 << k) - 1

    def paint(v: int, c: int) -> list[int]:
        nonlocal uncoloured
        colour[v] = c
        uncoloured &= ~(1 << v)
        bit, changed = 1 << c, []
        rest = far_bits[v] & uncoloured
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if not forbid[u] & bit:
                forbid[u] |= bit
                changed.append(u)
        return changed

    def unpaint(v: int, changed: list[int]) -> None:
        nonlocal uncoloured
        mask = ~(1 << colour[v])
        colour[v] = -1
        uncoloured |= 1 << v
        for u in changed:
            forbid[u] &= mask

    def pick() -> int:
        best_v, best_key, rest = -1, (-1, -1), uncoloured
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            key = (forbid[u].bit_count(), (far_bits[u] & uncoloured).bit_count())
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


def _unique_rows(masks: np.ndarray) -> np.ndarray:
    """Indices of first occurrences of distinct rows (bit-packed compare)."""
    packed = np.packbits(masks, axis=1)
    view = packed.view([("", packed.dtype)] * packed.shape[1]).ravel()
    _, first = np.unique(view, return_index=True)
    return first


def dedupe_masks(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate and dominated (subset) rows; returns (masks, kept_idx)."""
    first = _unique_rows(masks)
    sizes = masks.sum(axis=1)
    order = sorted(first.tolist(), key=lambda i: (-int(sizes[i]), i))
    kept: list[int] = []
    for i in order:
        mi = masks[i]
        # a strict subset is strictly smaller, so equal-size rows never dominate
        if any(sizes[j] > sizes[i] and np.array_equal(mi | masks[j], masks[j])
               for j in kept):
            continue
        kept.append(int(i))
    return masks[kept], np.array(kept)


def greedy_set_cover(masks: np.ndarray) -> list[int]:
    """Greedy cover of the full universe; ties break on the lowest index."""
    m, n = masks.shape
    covered = np.zeros(n, dtype=bool)
    picked = []
    while not covered.all():
        gains = (masks & ~covered).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise ValueError("universe not coverable by the given sets")
        picked.append(best)
        covered |= masks[best]
    return picked


def exact_min_set_cover(masks: np.ndarray, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Minimum set cover, exactly.

    Disjoint instances (ultrametric ball families) resolve directly; the
    rest goes through an exact integer program (HiGHS branch and cut) with
    the node budget mapped onto the solver's node limit.  Dominated rows are
    left to the solver's presolve.
    """
    n = masks.shape[1]
    kept = np.sort(_unique_rows(masks))
    kept = kept[masks[kept].any(axis=1)]
    work = masks[kept]
    if not work.any(axis=0).all():
        raise ValueError("universe not coverable by the given sets")
    if int(work.sum()) == n:
        # pairwise disjoint cover: every set owns its elements, all are needed
        return [int(k) for k in kept]
    greedy = greedy_set_cover(work)
    chosen = _milp_min_cover(work, len(greedy), budget)
    if chosen is None:
        raise BudgetExceededError("set-cover node limit reached")
    return [int(kept[i]) for i in chosen]


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
    m, n = masks.shape
    if target <= 0:
        return []
    work, kept = dedupe_masks(masks)
    b = _Budget(budget)
    w = list(weights)
    zero = type(w[0])(0)

    def mass(mask: np.ndarray):
        return sum((w[i] for i in np.flatnonzero(mask)), start=zero)

    set_masses = [mass(work[i]) for i in range(work.shape[0])]
    order = sorted(range(work.shape[0]), key=lambda i: (-float(set_masses[i]), i))

    if work.sum(axis=0).max(initial=0) <= 1:
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
    if mass(_union(work, greedy, n)) < target:
        greedy = list(range(work.shape[0]))
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

    def solve(pos: int, covered: np.ndarray, chosen: list[int], have) -> None:
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
        gain = mass(work[s] & ~covered)
        if gain > 0:
            solve(pos + 1, covered | work[s], chosen + [s], have + gain)
        solve(pos + 1, covered, chosen, have)

    solve(0, np.zeros(n, dtype=bool), [], zero)
    return [int(kept[i]) for i in best[0]]


def _union(masks: np.ndarray, idx: list[int], n: int) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    for i in idx:
        out |= masks[i]
    return out


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
