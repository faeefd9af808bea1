"""Open-loop coverage tours over the metric closure of a prior graph.

A coverage route must start at a given vertex, visit every requested
vertex, and may stop anywhere.  There is one heuristic solver, for a path
with both ends pinned.  An open tour appends a free terminal vertex, at
zero cost from and to every vertex, and pins it last, so the vertex before
it is the true endpoint and the path length equals the open tour's length.
A tour forced to end at a given vertex pins that vertex last instead.

The solver seeds with nearest-neighbor construction from eight distinct
second vertices, all seeds built in lockstep one tour position at a time,
and polishes each seed with a first-improvement search over neighbour lists
with don't-look bits (Bentley 1992; Johnson & McGeoch 1997): 2-opt
reversals and moves of 1-3 vertex segments that join a vertex to one of its
nearest neighbours.  The restarts are polished one after another, and a
later one replaces the best so far only if it is shorter by more than a
tolerance.  Only that winner is closed, once per solve: its list search
runs again from every vertex, and each time it ends, one full scan of every
reversal and every forward segment relocation resumes it if it finds a
move, so every returned tour is a local optimum of both full
neighbourhoods.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import InputError

_TOL = 1e-9
_NEIGHBOURS = 12  # nearest vertices each vertex's moves try to join it to
_RESTARTS = 8  # nearest-neighbor seeds polished per tour


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
        if self.start not in g.index:
            raise InputError(f"unknown start vertex {self.start!r}")
        chosen = set(g.ids if include is None else include)
        unknown = chosen.difference(g.index)
        if unknown:
            raise InputError(f"unknown tour vertices {', '.join(sorted(map(repr, unknown)))}")
        chosen.add(self.start)
        self.ids = [self.start] + [v for v in g.ids if v in chosen and v != self.start]
        idx = [g.index[v] for v in self.ids]
        self.sym = np.ascontiguousarray(closure.dist_matrix[np.ix_(idx, idx)])

    def to_ids(self, order) -> list:
        return [self.ids[k] for k in order]

    def end_index(self, end) -> int:
        """Index of the tour's forced last vertex ``end`` in ``ids``."""
        if end == self.start:
            raise InputError(f"tour end {end!r} is the start vertex")
        try:
            return self.ids.index(end)
        except ValueError:
            raise InputError(f"tour end {end!r} is not a vertex of the tour") from None


# -- heuristic local search (index space) ---------------------------------


def _nn_seeds(dist: np.ndarray, seconds: list, end: int) -> np.ndarray:
    """Nearest-neighbor orders from 0 to ``end``, one row per vertex of
    ``seconds``, which that row visits second (the lone row [0, end] when
    there is none).  The rows are built in lockstep, one tour position for
    all of them at a time; ties go to the smallest index."""
    n = dist.shape[0]
    orders = np.zeros((max(len(seconds), 1), n), dtype=np.int64)
    orders[:, -1] = end
    visited = np.zeros(orders.shape, dtype=bool)
    visited[:, [0, end]] = True
    rows = np.arange(len(orders))
    for pos in range(1, n - 1):
        if pos == 1:
            nxt = seconds
        else:
            nxt = np.where(visited, np.inf, dist[orders[:, pos - 1]]).argmin(axis=1)
        orders[:, pos] = nxt
        visited[rows, nxt] = True
    return orders


def _score_reversals(P: np.ndarray, lower: np.ndarray, block: np.ndarray) -> None:
    """Write the 2-opt score of every reversal into ``block``.

    ``P`` is the cost block in tour order, ``P[a, b] = dist[order[a],
    order[b]]``; endpoints stay pinned.  ``block[a, b]`` scores the reversal
    of order[a+1..b+1] on its two new legs alone, as if the reversed segment
    cost the same in both directions.  ``lower`` is the (m-2, m-2) boolean
    lower triangle that rules out empty and backwards segments.
    """
    k = len(block)
    sup = np.diagonal(P, 1)  # sup[r] = P[r, r + 1], the current legs
    np.add(P[:k, 1 : k + 1], P[2:, 1 : k + 1].T, out=block)
    block -= sup[:k, None]
    block -= sup[None, 1:]
    np.copyto(block, np.inf, where=lower)


def _best_relocation(P: np.ndarray, lower: np.ndarray, scratch: np.ndarray):
    """The best forward relocation of a 1-3 vertex segment, as (s, e, j):
    positions s..e move, in order, to between positions j and j+1.

    Reads the tour-ordered block ``P``, the triangle of ``_score_reversals``
    and the flat ``scratch``; returns None when no relocation scores below the
    tolerance.
    """
    m = len(P)
    k = m - 2
    sup = np.diagonal(P, 1)
    best = (-_TOL, None)
    for seg in (1, 2, 3):
        if k < seg + 1:
            continue
        # segment occupies positions [s, s+seg-1] for s in 1..m-seg-1;
        # slot t inserts it between positions t and t+1 for t in 1..m-2
        rows = m - seg - 1
        gain = sup[:rows] + sup[seg:] - np.diagonal(P, seg + 1)
        delta = np.add(P[1:-1, 1 : m - seg].T, P[seg:-1, 2:],
                       out=scratch[: rows * k].reshape(rows, k))
        delta -= sup[None, 1:]
        delta -= gain[:, None]
        np.copyto(delta, np.inf, where=lower[seg - 1 :])  # slot t < s + seg
        flat = int(np.argmin(delta))
        a, b = divmod(flat, k)
        if delta[a, b] < best[0]:
            best = (delta[a, b], (a + 1, a + seg, b + 1))
    return best[1]


class _SearchBlock:
    """A cost block made ready, once per solve, for every restart's search.

    ``rows`` holds one memoryview per row of ``dist``, which reads an entry
    as a Python float at the cost of a list lookup, without a Python copy
    of the block.  ``near[v]`` lists (distance, vertex) for the
    ``_NEIGHBOURS`` vertices nearest v by row v, nearest first and equal
    distances in index order.
    """

    __slots__ = ("dist", "rows", "near")

    def __init__(self, dist: np.ndarray):
        self.dist = dist
        self.rows = [memoryview(row) for row in dist]
        m = len(dist)
        kth = min(_NEIGHBOURS, m - 1)  # one spare pick for row v's own entry
        idx = np.sort(np.argpartition(dist, kth, axis=1)[:, : kth + 1], axis=1)
        near = np.take_along_axis(dist, idx, axis=1)
        by_dist = np.argsort(near, axis=1, kind="stable")
        idx = np.take_along_axis(idx, by_dist, axis=1).tolist()
        near = np.take_along_axis(near, by_dist, axis=1).tolist()
        self.near = [[(d, c) for d, c in zip(ds, cs) if c != v][:_NEIGHBOURS]
                     for v, (ds, cs) in enumerate(zip(near, idx))]


def _improve(block: _SearchBlock, order, close: bool = False) -> np.ndarray:
    """2-opt and or-opt over neighbour lists, closed by full scans if ``close``.

    ``order`` visits every vertex of ``block.dist`` once; its ends stay
    pinned.  A first-improvement search with don't-look bits (Bentley 1992)
    wakes each vertex and tries the moves that give it a new leg to one of
    its nearest neighbours: a reversal with the vertex as the tail or the
    head of a removed leg, and the move of a 1-3 vertex segment that starts
    or ends at it, either way round, to next to the neighbour.  A scan
    stops where the neighbour's distance reaches the removed leg of the
    reversal, or what removing the segment saves.
    Every vertex starts awake; it sleeps once it has no move, and a move
    wakes the ends of the legs it changed.  Without ``close`` the search
    ends when every vertex sleeps.  With it, each time every vertex sleeps
    one full scan scores every reversal and every forward relocation of a
    1-3 vertex segment; if its best move is taken, the search wakes that
    move's vertices and resumes, so the tour it returns is a local optimum
    of both full neighbourhoods.  Closing a tour the list search already
    polished thus first re-runs that search from every vertex, which finds
    the list moves that opened after their vertices slept at O(m) cost,
    before an O(m^2) scan has to.

    A move is taken only if the tour's summed length strictly falls, which
    ``math.fsum`` decides exactly from the legs the move removes and adds,
    so no tour repeats and the search ends for any costs.
    """
    dist, D, near = block.dist, block.rows, block.near
    t = [int(v) for v in order]
    m = len(t)
    if m < 4:
        return np.asarray(t, dtype=np.int64)  # nothing fits between pinned ends
    last = m - 2  # the last position a move may change
    pos = [0] * m
    for p, v in enumerate(t):
        pos[v] = p

    def rearrange(lo, new, old_legs, new_legs):
        """Put ``new`` at positions lo.. if the tour's length strictly falls,
        judged exactly from the legs the move removes and adds."""
        if not fsum(new_legs) < fsum(old_legs):
            return False
        t[lo : lo + len(new)] = new
        for q in range(lo, lo + len(new)):
            pos[t[q]] = q
        return True

    def reverse(i, j):
        """Reverse positions i..j if that shortens the tour; the ends of the
        two legs it replaces, or None."""
        seq = t[i - 1 : j + 2]
        new = [seq[0], *seq[-2:0:-1], seq[-1]]
        if rearrange(i - 1, new, [D[u][v] for u, v in zip(seq, seq[1:])],
                     [D[u][v] for u, v in zip(new, new[1:])]):
            return seq[0], seq[1], seq[-2], seq[-1]
        return None

    def relocate(s, e, y, rev):
        """Move positions s..e, reversed if ``rev``, to between positions y
        and y+1 (outside s-1..e) if that shortens the tour; the ends of the
        three legs it replaces, or None."""
        seg = t[s : e + 1]
        prev, nxt, u, w = t[s - 1], t[e + 1], t[y], t[y + 1]
        piece = seg[::-1] if rev else seg
        old = [D[prev][seg[0]], D[seg[-1]][nxt], D[u][w]]
        new = [D[prev][nxt], D[u][piece[0]], D[piece[-1]][w]]
        if rev:  # the piece's own legs now run the other way
            old += [D[a][b] for a, b in zip(seg, seg[1:])]
            new += [D[a][b] for a, b in zip(piece, piece[1:])]
        if y < s:
            lo, order = y, [u, *piece, *t[y + 1 : s], nxt]
        else:
            lo, order = s - 1, [prev, *t[e + 1 : y + 1], *piece, w]
        if rearrange(lo, order, old, new):
            return prev, seg[0], seg[-1], nxt, u, w
        return None

    def two_opt(a):
        """The first shortening reversal that gives ``a`` a new leg to a near
        neighbour, with ``a`` the tail, then the head, of the leg it removes;
        the ends of the legs it changed, or None."""
        p = pos[a]
        for tail, gap in ((True, D[a][t[p + 1]] if p <= last else 0.0),
                          (False, D[t[p - 1]][a] if p >= 1 else 0.0)):
            for dc, c in near[a]:
                if dc >= gap:
                    break
                q = pos[c]
                lo, hi = (p, q) if p < q else (q, p)
                i, j = (lo + 1, hi) if tail else (lo, hi - 1)
                if i < 1 or j > last or j <= i:
                    continue
                u, v, w, x = t[i - 1], t[i], t[j], t[j + 1]
                if D[u][w] + D[v][x] - D[u][v] - D[w][x] < -_TOL:
                    woken = reverse(i, j)
                    if woken:
                        return woken
        return None

    def or_opt(a):
        """The first shortening move of a 1-3 vertex segment that starts or
        ends at ``a`` to next to a near neighbour, ``a`` facing it; the ends
        of the legs it changed, or None."""
        p = pos[a]
        for s, e in ((p, p), (p, p + 1), (p - 1, p), (p, p + 2), (p - 2, p)):
            if s < 1 or e > last:
                continue
            prev, s0, se, nxt = t[s - 1], t[s], t[e], t[e + 1]
            gain = D[prev][s0] + D[se][nxt] - D[prev][nxt]
            for dc, c in near[a]:
                if dc >= gain:
                    break
                x = pos[c]
                if s <= x <= e or x > last:
                    continue
                for y in (x, x - 1):  # the slot after c, then before it
                    if not 0 <= y <= last or s - 1 <= y <= e:
                        continue
                    rev = (y == x) != (s == p)
                    fst, lst = (se, s0) if rev else (s0, se)
                    u, w = t[y], t[y + 1]
                    if D[u][fst] + D[lst][w] - D[u][w] - gain < -_TOL:
                        woken = relocate(s, e, y, rev)
                        if woken:
                            return woken
        return None

    k = m - 2
    lower = np.tri(k, dtype=bool)
    P = np.empty((m, m))
    scratch = np.empty(m * m)
    scores = scratch[: k * k].reshape(k, k)

    def full_scan():
        """Take the best reversal, else the best forward relocation, of all;
        the ends of the legs it changed, or None."""
        arr = np.asarray(t, dtype=np.int64)
        rows = np.take(dist, arr, axis=0, out=scratch.reshape(m, m), mode="clip")
        np.take(rows, arr, axis=1, out=P, mode="clip")  # "clip": no buffered copy
        _score_reversals(P, lower, scores)
        a, b = divmod(int(np.argmin(scores)), k)  # smallest index on ties
        if scores[a, b] < -_TOL:
            woken = reverse(a + 1, b + 1)
            if woken:
                return woken
        best = _best_relocation(P, lower, scratch)
        return best and relocate(*best, False)

    todo = deque(t)
    awake = [True] * m
    while True:
        if todo:
            a = todo.popleft()
            awake[a] = False
            woken = two_opt(a) or or_opt(a)
        else:
            woken = close and full_scan()
            if not woken:
                return np.asarray(t, dtype=np.int64)
        for v in woken or ():
            if not awake[v]:
                awake[v] = True
                todo.append(v)


def _route_length(dist: np.ndarray, order) -> float:
    order = np.asarray(order)
    return float(dist[order[:-1], order[1:]].sum())


def _seed_seconds(sym: np.ndarray, restarts: int, skip) -> list:
    """Second vertices of the nearest-neighbor seeds: the ``restarts``
    vertices nearest the start, other than the indices in ``skip``."""
    legs = sym[0].copy()
    legs[list(skip)] = np.inf
    nearest = np.argsort(legs, kind="stable")[: min(restarts, len(legs) - len(skip))]
    return [int(s) for s in nearest]


def _best_of_restarts(dist: np.ndarray, seeds: np.ndarray, n: int) -> tuple[list, float]:
    """The shortest of the ``seeds`` after the neighbour-list search, closed
    by full scans, over its first ``n`` vertices (an open tour's free
    terminal, pinned at index n, is dropped).  Seeds are polished in order,
    and a later one wins only if shorter by more than the tolerance; only
    the winner is closed."""
    block = _SearchBlock(dist)
    best, best_len = None, np.inf
    for seed in seeds:
        arr = _improve(block, seed)
        length = _route_length(dist, arr[:n])
        if length < best_len - _TOL:
            best, best_len = arr, length
    arr = _improve(block, best, close=True)[:n]
    return [int(v) for v in arr], _route_length(dist, arr)


def _solve_indices(sym: np.ndarray, end: int | None) -> tuple[list, float]:
    """Heuristic tour over ``sym`` from index 0 to ``end``, or, for an open
    tour (``end`` None), to a free terminal that the result drops."""
    n = sym.shape[0]
    dist = sym
    if end is None:  # the terminal, index n, costs nothing to or from any vertex
        dist = np.zeros((n + 1, n + 1))
        dist[:n, :n] = sym
        end = n
    seconds = _seed_seconds(dist, _RESTARTS, skip=(0, end))
    return _best_of_restarts(dist, _nn_seeds(dist, seconds, end), n)


# -- public solvers ------------------------------------------------------


def solve_open_tsp(costs: TourCosts) -> Tour:
    """Heuristic open tour from the start over all vertices of ``costs``."""
    order, length = _solve_indices(costs.sym, None)
    return Tour(costs.to_ids(order), length)


def solve_fixed_end_tsp(costs: TourCosts, end) -> Tour:
    """Heuristic open tour forced to terminate at vertex ``end``."""
    order, length = _solve_indices(costs.sym, costs.end_index(end))
    return Tour(costs.to_ids(order), length)


def expand_to_walk(closure, order) -> Walk:
    """Replace each tour leg with its shortest path in the prior graph."""
    vertices = [order[0]]
    total = 0.0
    for a, b in zip(order[:-1], order[1:]):
        vertices.extend(closure.path(a, b)[1:])
        total += closure.dist(a, b)
    return Walk(vertices, total)
