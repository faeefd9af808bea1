"""Open-loop coverage tours over the metric closure of a prior graph.

A coverage route must start at a given vertex, visit every requested
vertex, and may stop anywhere.  There is one heuristic solver, for a path
with both ends pinned.  An open tour appends a free terminal vertex, at
zero cost from and to every vertex, and pins it last, so the vertex before
it is the true endpoint and the path length equals the open tour's length.
A tour forced to end at a given vertex pins that vertex last instead.

The solver seeds with nearest-neighbor construction from several distinct
second vertices, all seeds built in lockstep one tour position at a time,
and polishes with best-improvement 2-opt reversals and or-opt segment
relocations.  Each pass picks the best move
from the scores of every move, read off one copy of the closure block taken
in tour order and kept current across reversals; the 2-opt scores are kept
too.  Above a size gate a reversal rescores only the rows and columns of
scores it changes, and the restarts run on one thread per usable core;
their results are reduced in restart order, so the tour is the same on any
number of cores.  An exact Held-Karp dynamic program
covers small instances and serves as the reference oracle.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SizeLimitError

_EXACT_LIMIT = 14
_TOL = 1e-9
# Closure entries (open tours count their free terminal) from which the
# restarts run on threads and a reversal rescores only the bands it changes:
# below it, thread start-up, contention for the interpreter lock and numpy
# per-call overhead cost more than they save.
_LARGE_TOUR_ELEMENTS = 32_000


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

    def __len__(self):
        return len(self.ids)

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


def _score_reversals(P: np.ndarray, lower: np.ndarray, block: np.ndarray,
                     rows: tuple, cols: tuple = (0, 0)) -> None:
    """Write the 2-opt scores of the row band ``rows`` and the column band
    ``cols`` (half-open index ranges) into ``block``.

    ``P`` is the cost block in tour order, ``P[a, b] = dist[order[a],
    order[b]]``; endpoints stay pinned.  ``block[a, b]`` scores the reversal
    of order[a+1..b+1] on its two new legs alone, as if the reversed segment
    cost the same in both directions.  ``lower`` is the (m-2, m-2) boolean
    lower triangle that rules out empty and backwards segments.  Every
    entry comes from the same formula whichever band writes it, so a kept
    block rescored in bands holds the bits of a full rescore.
    """
    k = len(block)
    sup = np.diagonal(P, 1)  # sup[r] = P[r, r + 1], the current legs
    for (a0, a1), (b0, b1) in ((rows, (0, k)), ((0, k), cols)):
        if a0 == a1 or b0 == b1:
            continue
        out = block[a0:a1, b0:b1]
        np.add(P[a0:a1, b0 + 1 : b1 + 1], P[b0 + 2 : b1 + 2, a0 + 1 : a1 + 1].T, out=out)
        out -= sup[a0:a1, None]
        out -= sup[None, b0 + 1 : b1 + 1]
        np.copyto(out, np.inf, where=lower[a0:a1, b0:b1])


def _best_relocation(P: np.ndarray, order: np.ndarray, lower: np.ndarray,
                     scratch: np.ndarray):
    """The tour after the best forward relocation of a 1-3 vertex segment.

    Reads the tour-ordered block ``P``, the triangle of ``_score_reversals``
    and the flat ``scratch``; returns None when no relocation scores below the
    tolerance.
    """
    m = len(order)
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

    ``order`` visits every vertex of ``dist`` once.  Both searches read the
    closure block gathered in tour order once per 2-opt round, never
    assuming it is bitwise symmetric.  A move is taken only if the tour's
    summed length strictly falls, so no tour repeats and the search ends
    for any costs at any scale.  On closure blocks, whose asymmetry is only
    rounding, every move that scores below the tolerance passes that test;
    on clearly asymmetric costs a reversal may not, and then the 2-opt
    round ends there.

    A round keeps one score block across its reversals.  From
    ``_LARGE_TOUR_ELEMENTS`` entries of ``dist`` up, an accepted reversal of
    positions i..j rescores only rows i-1..j and columns i-2..j-1, the
    scores it can change; smaller blocks, where numpy's per-call cost
    dominates, are rescored whole.  Both hold the same bits.

    The block gathered in tour order and one flat scratch of the same size,
    which stages each gather and holds the scores, are the only (m, m)
    arrays a call keeps, so a restart on another thread keeps a small heap.
    """
    arr = np.asarray(order, dtype=np.int64)
    m = len(arr)
    if m < 4:
        return arr  # no reversal or relocation fits between pinned ends
    k = m - 2
    bands = dist.size >= _LARGE_TOUR_ELEMENTS
    lower = np.tri(k, dtype=bool)
    P = np.empty((m, m))
    scratch = np.empty(m * m)
    scores = scratch[: k * k].reshape(k, k)
    length = _route_length(dist, arr)
    while True:
        rows = np.take(dist, arr, axis=0, out=scratch.reshape(m, m), mode="clip")
        np.take(rows, arr, axis=1, out=P, mode="clip")  # "clip": no buffered copy
        _score_reversals(P, lower, scores, (0, k))
        while True:
            a, b = divmod(int(np.argmin(scores)), k)  # smallest index on ties
            if scores[a, b] >= -_TOL:
                break
            i, j = a + 1, b + 1
            cand = arr.copy()
            cand[i : j + 1] = cand[i : j + 1][::-1]
            cand_length = _route_length(dist, cand)
            if not cand_length < length:
                break
            arr, length = cand, cand_length
            P[i : j + 1] = P[i : j + 1][::-1]
            P[:, i : j + 1] = P[:, i : j + 1][:, ::-1]
            if bands:
                _score_reversals(P, lower, scores, (i - 1, min(j + 1, k)), (max(i - 2, 0), j))
            else:
                _score_reversals(P, lower, scores, (0, k))
        cand = _best_relocation(P, arr, lower, scratch)
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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _best_of_restarts(dist: np.ndarray, seeds: np.ndarray, n: int) -> tuple[list, float]:
    """The shortest of the ``seeds`` after ``_improve``, over its first ``n``
    vertices (an open tour's free terminal, pinned at index n, is dropped).

    From ``_LARGE_TOUR_ELEMENTS`` entries of ``dist`` up, the seeds are
    shared out to one thread per usable core, at most one per seed, the
    calling thread among them; a restart's numpy work releases the
    interpreter lock.  Results are taken in seed order and a later one wins
    only if shorter by more than the tolerance, so the tour does not depend
    on the thread count.  Once every thread is joined, the error of the
    first seed that failed, in seed order, is raised.

    The calling thread polishes too, which a ``ThreadPoolExecutor`` would
    not: its caller only waits, so it needs one more worker thread, and each
    thread keeps its own malloc arena of about 4 MB.  An executor version
    raised ``plan-grid20`` peak RSS from 95-96 to 100-101 MB, in 4 of 4
    pairs, for no change in time.
    """
    polished = [None] * len(seeds)
    todo = queue.SimpleQueue()
    for k in range(len(seeds)):
        todo.put(k)

    def polish():
        while True:
            try:
                k = todo.get_nowait()
            except queue.Empty:
                return
            try:
                polished[k] = _improve(dist, seeds[k])
            except Exception as exc:  # raised below, in seed order
                polished[k] = exc

    workers = min(len(seeds), _usable_cores()) if dist.size >= _LARGE_TOUR_ELEMENTS else 1
    threads = [threading.Thread(target=polish, daemon=True) for _ in range(workers - 1)]
    for t in threads:
        t.start()
    try:
        polish()
    finally:
        for t in threads:
            t.join()
    best_order, best_len = None, np.inf
    for arr in polished:
        if isinstance(arr, Exception):
            raise arr
        length = _route_length(dist, arr[:n])
        if length < best_len - _TOL:
            best_order, best_len = [int(v) for v in arr[:n]], length
    return best_order, best_len


def _solve_indices(sym: np.ndarray, end: int | None, restarts: int) -> tuple[list, float]:
    """Heuristic tour over ``sym`` from index 0 to ``end``, or, for an open
    tour (``end`` None), to a free terminal that the result drops."""
    n = sym.shape[0]
    dist = sym
    if end is None:  # the terminal, index n, costs nothing to or from any vertex
        dist = np.zeros((n + 1, n + 1))
        dist[:n, :n] = sym
        end = n
    seconds = _seed_seconds(dist, restarts, skip=(0, end))
    return _best_of_restarts(dist, _nn_seeds(dist, seconds, end), n)


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
    last = int(np.argmin(dp[full])) if end is None else end - 1
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
    order, length = _solve_indices(costs.sym, None, restarts)
    return Tour(costs.to_ids(order), length)


def solve_fixed_end_tsp(costs: TourCosts, end, restarts: int = 8) -> Tour:
    """Heuristic open tour forced to terminate at vertex ``end``."""
    order, length = _solve_indices(costs.sym, costs.end_index(end), restarts)
    return Tour(costs.to_ids(order), length)


def solve_open_tsp_exact(costs: TourCosts, end=None) -> Tour:
    """Held-Karp reference solution; SizeLimitError above the hard cap."""
    end_idx = None if end is None else costs.end_index(end)
    order, length = _held_karp(costs.sym, end_idx)
    return Tour(costs.to_ids(order), length)


def expand_to_walk(closure, order) -> Walk:
    """Replace each tour leg with its shortest path in the prior graph."""
    vertices = [order[0]]
    total = 0.0
    for a, b in zip(order[:-1], order[1:]):
        vertices.extend(closure.path(a, b)[1:])
        total += closure.dist(a, b)
    return Walk(vertices, total)
