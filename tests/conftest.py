"""Shared helpers: random connected instances and small exact oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from slamplan.errors import RankDeficientError
from slamplan.graph import PriorGraph
from slamplan.laplacian import LaplacianFactor
from slamplan.se2 import edge_jacobians, edge_residual


def random_connected_graph(rng, n, extra_edge_prob=0.3, unit_lengths=True,
                           scale=1.0):
    """Random spanning tree plus Bernoulli extra edges; always connected."""
    pos = rng.uniform(0.0, 10.0, size=(n, 2))
    vertices = [(i, pos[i, 0], pos[i, 1]) for i in range(n)]
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.uniform() < extra_edge_prob:
                edges.add((u, v))
    if unit_lengths:
        lengths = {e: scale for e in edges}
    else:
        lengths = {e: float(rng.uniform(0.5, 3.0)) * scale for e in edges}
    edge_list = [(u, v, lengths[(u, v)], None) for u, v in sorted(edges)]
    return PriorGraph(vertices, edge_list, start=0)


def incidence(n, i, j) -> np.ndarray:
    """Dense signed incidence vector of the pose pair (i, j) over poses
    1..n, pose 0 the dropped anchor: the oracle for pair-indexed forms."""
    b = np.zeros(n + 1)
    b[i] += 1.0
    b[j] -= 1.0
    return b[1:]


def dense_factor(matrix) -> LaplacianFactor:
    """Oracle factor of a dense SPD matrix L = C C^T: W = C^{-1} by one
    Cholesky factorization and one triangular solve, log det from C's
    diagonal."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise RankDeficientError("matrix is not positive-definite") from None
    rows = np.zeros((n + 1, n))
    rows[1:] = solve_triangular(chol, np.eye(n), lower=True).T
    return LaplacianFactor(rows, 2.0 * float(np.sum(np.log(np.diagonal(chol)))))


def dense_information(pg, est=None):
    """Per-edge oracle of the anchored Gauss-Newton H and gradient of the
    simulated pose graph ``pg`` at ``est`` (its estimates by default): each
    edge adds its blocks into a dense H, one edge at a time in edge order,
    skipping the anchor pose 0."""
    est = pg.estimates if est is None else est
    dim = 3 * (pg.pose_count - 1)
    h = np.zeros((dim, dim))
    grad = np.zeros(dim)
    for i, j, z, cov in pg.all_edges():
        e = edge_residual(est[i], est[j], z)
        a, b = edge_jacobians(est[i], est[j], z)
        w = np.linalg.inv(cov)
        wa, wb = w @ a, w @ b
        ii, jj = 3 * (i - 1), 3 * (j - 1)
        if i > 0:
            h[ii : ii + 3, ii : ii + 3] += a.T @ wa
            grad[ii : ii + 3] += a.T @ (w @ e)
        if j > 0:
            h[jj : jj + 3, jj : jj + 3] += b.T @ wb
            grad[jj : jj + 3] += b.T @ (w @ e)
        if i > 0 and j > 0:
            h[ii : ii + 3, jj : jj + 3] += a.T @ wb
            h[jj : jj + 3, ii : ii + 3] += b.T @ wa
    return h, grad


def spanning_tree_count(n, edges) -> int:
    """Exhaustive Kirchhoff check: count edge subsets of size n-1 that
    connect all n vertices."""
    edges = list(edges)
    count = 0
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


def brute_force_open_tour(dist, start=0):
    """Cheapest open tour over index matrix ``dist`` starting at ``start``."""
    n = dist.shape[0]
    rest = [k for k in range(n) if k != start]
    best_cost = np.inf
    best_order = (start,)
    for perm in itertools.permutations(rest):
        order = (start,) + perm
        cost = sum(dist[a, b] for a, b in zip(order[:-1], order[1:]))
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_order = order
    return list(best_order), float(best_cost)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def path3():
    """The a-b-c unit path used throughout the worked examples."""
    doc = {
        "vertices": [
            {"id": "a", "x": 0.0, "y": 0.0},
            {"id": "b", "x": 1.0, "y": 0.0},
            {"id": "c", "x": 2.0, "y": 0.0},
        ],
        "edges": [
            {"u": "a", "v": "b", "length": 1.0},
            {"u": "b", "v": "c", "length": 1.0},
        ],
        "start": "a",
    }
    from slamplan.graph import load_prior_graph

    return load_prior_graph(doc)


@pytest.fixture
def triangle():
    doc = {
        "vertices": [
            {"id": "a", "x": 0.0, "y": 0.0},
            {"id": "b", "x": 1.0, "y": 0.0},
            {"id": "c", "x": 0.5, "y": 0.9},
        ],
        "edges": [
            {"u": "a", "v": "b", "length": 1.0},
            {"u": "b", "v": "c", "length": 1.0},
            {"u": "a", "v": "c", "length": 1.0},
        ],
        "start": "a",
    }
    from slamplan.graph import load_prior_graph

    return load_prior_graph(doc)
