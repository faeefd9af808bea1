"""Open-loop coverage tours over the metric closure of a prior graph.

A coverage route must start at a given vertex, visit every requested
vertex, and may stop anywhere.  The open tour is solved as a path with
both ends pinned: the heuristic appends a free terminal vertex, at zero
cost from and to every vertex, and pins it last, so the vertex before it
is the true endpoint and the path length equals the open tour's length.
A tour forced to end at a given vertex pins that vertex last instead.

The heuristic solver seeds with nearest-neighbor construction from several
distinct second vertices and polishes with best-improvement 2-opt
reversals and or-opt segment relocations.  Each pass evaluates every move
at once on one copy of the closure block taken in tour order, kept current
across reversals.  An exact Held-Karp dynamic program covers small
instances and serves as the reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeLimitError

_EXACT_LIMIT = 14
_TOL = 1e-9


@dataclass
class Tour:
    """Vertex visiting order on the metric closure (ids, start first)."""

    order: list
    length: float


@dataclass
class Walk:
    """Edge-by-edge route on the prior graph (consecutive pairs are edges)."""

    vertices: list
    length: float


class TourCosts:
    """Closure distances among the vertices a tour must visit.

    ``sym`` is the closure block over ``ids``, with the start at index 0.
    The solvers add the free terminal vertex of an open tour themselves,
    so ``sym`` serves both local search and length accounting.
    """

    def __init__(self, closure, include=None, start=None):
        g = closure.graph
        self.start = g.start if start is None else start
        chosen = set(g.ids if include is None else include)
        chosen.add(self.start)
        self.ids = [self.start] + [v for v in g.ids if v in chosen and v != self.start]
        idx = [g.index[v] for v in self.ids]
        self.sym = np.ascontiguousarray(closure.dist_matrix[np.ix_(idx, idx)])

    def __len__(self):
        return len(self.ids)

    def to_ids(self, order) -> list:
        return [self.ids[k] for k in order]


def build_tour_costs(closure, start=None, include=None) -> TourCosts:
    return TourCosts(closure, include=include, start=start)


# -- heuristic local search (index space) ---------------------------------


def _nn_seed(dist: np.ndarray, second: int | None, skip) -> list:
    n = dist.shape[0]
    visited = np.zeros(n, dtype=bool)
    for k in skip:
        visited[k] = True
    order = [0]
    visited[0] = True
    if second is not None:
        order.append(second)
        visited[second] = True
    while not visited.all():
        row = np.where(visited, np.inf, dist[order[-1]])
        nxt = int(np.argmin(row))  # argmin takes the smallest index on ties
        order.append(nxt)
        visited[nxt] = True
    return order


def _best_reversal(P: np.ndarray, mask: np.ndarray):
    """Positions (i, j) of the best-scoring reversal of order[i..j], or None.

    ``P`` is the cost block in tour order, ``P[a, b] = dist[order[a],
    order[b]]``; endpoints stay pinned.  ``mask`` is the (m-2, m-2) 0/inf
    lower triangle that rules out empty and backwards segments.  A move is
    scored on its two new legs alone, as if the reversed segment cost the
    same in both directions.
    """
    sup = np.diagonal(P, 1)  # sup[r] = P[r, r + 1], the current legs
    delta = P[:-2, 1:-1] + P[2:, 1:-1].T
    delta -= sup[:-1, None]
    delta -= sup[None, 1:]
    delta += mask
    flat = int(np.argmin(delta))
    a, b = divmod(flat, delta.shape[1])
    if delta[a, b] >= -_TOL:
        return None
    return a + 1, b + 1


def _best_relocation(P: np.ndarray, order: np.ndarray, mask: np.ndarray):
    """The tour after the best forward relocation of a 1-3 vertex segment.

    Reads the tour-ordered block ``P`` and the mask of ``_best_reversal``;
    returns None when no relocation scores below the tolerance.
    """
    m = len(order)
    sup = np.diagonal(P, 1)
    best = (-_TOL, None)
    for seg in (1, 2, 3):
        if m - 2 < seg + 1:
            continue
        # segment occupies positions [s, s+seg-1] for s in 1..m-seg-1;
        # slot t inserts it between positions t and t+1 for t in 1..m-2
        gain = sup[: m - seg - 1] + sup[seg:] - np.diagonal(P, seg + 1)
        ins = P[1:-1, 1 : m - seg].T + P[seg:-1, 2:]
        ins -= sup[None, 1:]
        delta = ins - gain[:, None]
        delta += mask[seg - 1 :]  # inf where slot t < s + seg
        flat = int(np.argmin(delta))
        a, b = divmod(flat, m - 2)
        if delta[a, b] < best[0]:
            best = (delta[a, b], (a + 1, seg, b + 1))
    if best[1] is None:
        return None
    i, seg, j = best[1]
    piece = order[i : i + seg]
    rest = np.concatenate([order[:i], order[i + seg :]])
    at = j + 1 - seg  # insertion index after the segment was removed
    return np.concatenate([rest[:at], piece, rest[at:]])


def _improve(dist: np.ndarray, order: list) -> np.ndarray:
    """2-opt to a local optimum, then one or-opt move, until neither helps.

    Both searches read the closure block gathered in tour order once per
    2-opt round, never assuming it is bitwise symmetric.  A move is taken
    only if the tour's summed length strictly falls, so no tour repeats and
    the search ends for any costs at any scale.  On closure blocks, whose
    asymmetry is only rounding, every move that scores below the tolerance
    passes that test; on clearly asymmetric costs a reversal may not, and
    then the 2-opt round ends there.
    """
    arr = np.asarray(order, dtype=np.int64)
    k = len(arr) - 2
    if k < 2:
        return arr  # no reversal or relocation fits between pinned ends
    mask = np.where(np.tri(k, dtype=bool), np.inf, 0.0)
    length = _route_length(dist, arr)
    while True:
        P = dist[np.ix_(arr, arr)]
        while (move := _best_reversal(P, mask)) is not None:
            i, j = move
            cand = arr.copy()
            cand[i : j + 1] = cand[i : j + 1][::-1]
            cand_length = _route_length(dist, cand)
            if not cand_length < length:
                break
            arr, length = cand, cand_length
            P[i : j + 1] = P[i : j + 1][::-1]
            P[:, i : j + 1] = P[:, i : j + 1][:, ::-1]
        cand = _best_relocation(P, arr, mask)
        if cand is None:
            return arr
        cand_length = _route_length(dist, cand)
        if not cand_length < length:
            return arr
        arr, length = cand, cand_length


def _route_length(dist: np.ndarray, order) -> float:
    order = np.asarray(order)
    return float(dist[order[:-1], order[1:]].sum())


def _seed_seconds(sym: np.ndarray, restarts, skip) -> list:
    """Second vertices of the nearest-neighbor seeds: the ``restarts``
    vertices nearest the start, other than the indices in ``skip``."""
    if not isinstance(restarts, (int, np.integer)) or isinstance(restarts, bool) \
            or restarts < 1:
        raise InputError(f"restarts must be a positive integer, got {restarts!r}")
    legs = sym[0].copy()
    legs[list(skip)] = np.inf
    nearest = np.argsort(legs, kind="stable")[: min(restarts, len(legs) - len(skip))]
    return [int(s) for s in nearest]


def _solve_open_indices(sym: np.ndarray, restarts: int) -> tuple[list, float]:
    n = sym.shape[0]
    seconds = _seed_seconds(sym, restarts, skip=(0,))
    if n == 1:
        return [0], 0.0
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = sym  # index n: free terminal of the open tour
    best_order, best_len = None, np.inf
    for second in seconds:
        seed = _nn_seed(sym, second, ()) + [n]
        arr = _improve(aug, seed)
        length = _route_length(sym, arr[:-1])
        if length < best_len - _TOL:
            best_order, best_len = [int(v) for v in arr[:-1]], length
    return best_order, best_len


def _solve_fixed_end_indices(sym: np.ndarray, end: int, restarts: int) -> tuple[list, float]:
    n = sym.shape[0]
    if not 0 < end < n:
        raise InputError(f"end index {end} out of range")
    seconds = _seed_seconds(sym, restarts, skip=(0, end))
    if n == 2:
        return [0, 1], float(sym[0, 1])
    best_order, best_len = None, np.inf
    for second in seconds:
        seed = _nn_seed(sym, second, (end,)) + [end]
        arr = _improve(sym, seed)
        length = _route_length(sym, arr)
        if length < best_len - _TOL:
            best_order, best_len = [int(v) for v in arr], length
    return best_order, best_len


def _held_karp(dist: np.ndarray, end: int | None) -> tuple[list, float]:
    n = dist.shape[0]
    if n > _EXACT_LIMIT:
        raise SizeLimitError(f"exact solver capped at {_EXACT_LIMIT} vertices, got {n}")
    if n == 1:
        return [0], 0.0
    m = n - 1
    sub = np.asarray(dist[1:, 1:], dtype=float)
    full = (1 << m) - 1
    dp = np.full((1 << m, m), np.inf)
    parent = np.full((1 << m, m), -1, dtype=np.int64)
    dp[[1 << k for k in range(m)], range(m)] = dist[0, 1:]
    for mask in range(1, full + 1):
        row = dp[mask]
        if not np.any(np.isfinite(row)):
            continue
        cand = row[:, None] + sub  # cand[k, t]: extend best path ending at k to t
        src = np.argmin(cand, axis=0)
        val = cand[src, range(m)]
        for t in range(m):
            bit = 1 << t
            if mask & bit:
                continue
            nm = mask | bit
            if val[t] < dp[nm, t]:
                dp[nm, t] = val[t]
                parent[nm, t] = src[t]
    if end is None:
        last = int(np.argmin(dp[full]))
    else:
        if not 0 < end < n:
            raise InputError(f"end index {end} out of range")
        last = end - 1
    length = float(dp[full, last])
    chain = [last]
    mask = full
    while parent[mask, chain[-1]] >= 0:
        k = chain[-1]
        chain.append(int(parent[mask, k]))
        mask ^= 1 << k
    order = [0] + [k + 1 for k in reversed(chain)]
    return order, length


# -- public solvers ------------------------------------------------------


def solve_open_tsp(costs: TourCosts, restarts: int = 8) -> Tour:
    """Heuristic open tour from the start over all vertices of ``costs``."""
    order, length = _solve_open_indices(costs.sym, restarts)
    return Tour(costs.to_ids(order), length)


def solve_fixed_end_tsp(costs: TourCosts, end, restarts: int = 8) -> Tour:
    """Heuristic open tour forced to terminate at vertex ``end``."""
    order, length = _solve_fixed_end_indices(costs.sym, costs.ids.index(end), restarts)
    return Tour(costs.to_ids(order), length)


def solve_open_tsp_exact(costs: TourCosts, end=None) -> Tour:
    """Held-Karp reference solution; SizeLimitError above the hard cap."""
    end_idx = None if end is None else costs.ids.index(end)
    order, length = _held_karp(costs.sym, end_idx)
    return Tour(costs.to_ids(order), length)


def plan_coverage_tour(closure, restarts: int = 8) -> Tour:
    """Heuristic open tour over every vertex of the prior graph."""
    return solve_open_tsp(TourCosts(closure), restarts)


def expand_to_walk(closure, order) -> Walk:
    """Replace each tour leg with its shortest path in the prior graph."""
    vertices = [order[0]]
    total = 0.0
    for a, b in zip(order[:-1], order[1:]):
        vertices.extend(closure.path(a, b)[1:])
        total += closure.dist(a, b)
    return Walk(vertices, total)
