"""Shared helpers: random connected instances and small exact oracles,
the dense reduced Laplacian, per-candidate weights, exhaustive loop
selection, Held-Karp, one full mission per compared pair, one noise draw
per measurement and one Gauss-Newton run per pose graph among them."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.sparse import csc_matrix

from slamplan.bench import _comparison
from slamplan.errors import DivergenceError, RankDeficientError
from slamplan.graph import PriorGraph
from slamplan.laplacian import LaplacianFactor, _pose_factors, information_weights
from slamplan.loops import CandidateSet
from slamplan.mission import MissionConfig, run_mission
from slamplan.planner import STRATEGIES
from slamplan.laplacian import _spd_factor
from slamplan.se2 import _t, between, compose, edge_jacobians, edge_residual, wrap_angle
from slamplan.sim import (
    _GN_MAX_ITERS,
    _GN_STEP_TOL,
    NOISE_FLOOR_TRACE,
    SimPoseGraph,
    _normal_pattern,
    _stack_edges,
    dead_reckon,
)
from slamplan.tsp import Tour

# Largest instance ``_held_karp`` solves: 14 vertices, a 2^13 x 13 table.
_EXACT_LIMIT = 14

# Subsets scored per batch by ``brute_force_select``.
_SUBSET_CHUNK = 16384


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


def build_reduced_laplacian(n: int, factors) -> np.ndarray:
    """Dense reduced Laplacian from (i, j, weight) factors over poses
    0..n, pose 0 the anchor.  Duplicate pairs accumulate.

    Entries are added factor by factor, in input order, so each sum is the
    one that adding w * outer(b, b) per factor would give.
    """
    lap = np.zeros((n + 1, n + 1))
    ends, w = _pose_factors(n, factors)
    i, j = ends.T
    # per factor, in order: (i, i, w), (j, j, w), (i, j, -w), (j, i, -w)
    rows = np.stack([i, j, i, j], axis=1)
    cols = np.stack([i, j, j, i], axis=1)
    np.add.at(lap, (rows, cols), np.stack([w, w, -w, -w], axis=1))
    return lap[1:, 1:]


def enumerate_candidates_per_pair(apg, closure) -> CandidateSet:
    """Oracle for ``enumerate_candidates``: every pose pair i > j without a
    direct factor, sorted by (i, j), each weighed by its own pair
    covariance, one 3x3 log-det per candidate."""
    closure.check_serves(apg.graph)
    p = apg.pose_count
    iu, ju = np.tril_indices(p, k=-1)
    ei = np.array([e[0] for e in apg.edges], dtype=np.int64)
    ej = np.array([e[1] for e in apg.edges], dtype=np.int64)
    keep = ~np.isin(iu * p + ju, ei * p + ej)
    iu, ju = iu[keep], ju[keep]
    g = apg.graph
    vidx = np.array([g.index[v] for v in apg.pose_to_vertex], dtype=np.int64)
    a, b = vidx[iu], vidx[ju]
    gamma = information_weights(g.pair_covs(a, b))
    return CandidateSet(iu, ju, closure.dist_matrix[a, b], gamma)


def brute_force_select(apg, cands, walk):
    """Exhaustive subset search; every score rebuilt densely.

    Only viable for small candidate sets; the greedy's optimality oracle.
    Returns (best candidate list, best score, best log score).
    """
    m = len(cands)
    if m > 20:
        raise ValueError(f"exhaustive search capped at 20 candidates, got {m}")
    n = apg.n
    d_tsp = walk.length
    base = build_reduced_laplacian(n, apg.weighted_edges)
    rank1 = np.empty((m, n * n))
    for k in range(m):
        c = cands.candidate(k)
        rank1[k] = build_reduced_laplacian(n, [(c.i, c.j, c.gamma)]).ravel()
    codes = np.arange(1 << m, dtype=np.int64)
    best_log, best_code = -np.inf, 0
    for lo in range(0, len(codes), _SUBSET_CHUNK):
        part = codes[lo : lo + _SUBSET_CHUNK]
        members = ((part[:, None] >> np.arange(m)) & 1).astype(float)
        laps = base.ravel()[None, :] + members @ rank1
        sign, logdet = np.linalg.slogdet(laps.reshape(-1, n, n))
        dist = d_tsp + 2.0 * (members @ cands.omega)
        score = np.where(sign > 0, logdet / n - np.log(dist), -np.inf)
        k = int(np.argmax(score))
        if score[k] > best_log:
            best_log, best_code = float(score[k]), int(part[k])
    chosen = [cands.candidate(k) for k in range(m) if best_code >> k & 1]
    return chosen, float(np.exp(best_log)), best_log


def _held_karp(dist: np.ndarray, end: int | None) -> tuple[list, float]:
    """Shortest path over index matrix ``dist`` from index 0 through every
    index, ending at ``end`` or, if None, anywhere: (order, length)."""
    n = dist.shape[0]
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact solver capped at {_EXACT_LIMIT} vertices, got {n}")
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


def solve_open_tsp_exact(costs, end=None) -> Tour:
    """Held-Karp reference tour over ``costs``, open or ending at ``end``."""
    end_idx = None if end is None else costs.end_index(end)
    order, length = _held_karp(costs.sym, end_idx)
    return Tour(costs.to_ids(order), length)


def compare_per_pair(prior, world, seeds):
    """Reference strategy comparison: a full mission for every (seed,
    strategy) pair, in job order, in-process, with no route replayed."""
    seeds = sorted(seeds)
    jobs = [(seed, strategy) for seed in seeds for strategy in STRATEGIES]
    return _comparison(seeds, [
        (job, run_mission(prior, world, MissionConfig(strategy=job[1]), job[0])[1])
        for job in jobs
    ])


def simulate_walk_per_step(route, world, seed) -> SimPoseGraph:
    """Reference generator: a valid vertex route executed one step at a
    time.  Each measurement is ``between`` of its true poses plus its own
    noise, ``cholesky(cov) @ rng.standard_normal(3)`` from one seeded
    stream (nothing drawn at the noise floor), angle wrapped; per step the
    odometry, then the loop closure against the earliest pose at a
    revisited vertex.  Estimates compose the odometry one step at a time."""
    rng = np.random.default_rng(seed)
    g = world.true_graph

    def measure(a, b, cov):
        noise = np.zeros(3)
        if np.trace(cov) > NOISE_FLOOR_TRACE:
            noise = np.linalg.cholesky(cov) @ rng.standard_normal(3)
        z = between(a, b) + noise
        z[2] = wrap_angle(z[2])
        return z

    p = g.position(route[0])
    poses = [np.array([p[0], p[1], 0.0])]
    odometry, loops, first_at = [], [], {route[0]: 0}
    for u, v in zip(route[:-1], route[1:]):
        pu, pv = g.position(u), g.position(v)
        heading = float(np.arctan2(pv[1] - pu[1], pv[0] - pu[0]))
        if len(poses) == 1:
            poses[0][2] = heading  # the anchor turns toward its first motion
        pose = np.array([pv[0], pv[1], heading])
        k = len(poses)
        cov = 0.5 * (world.degeneracy(u) + world.degeneracy(v))
        odometry.append((k - 1, k, measure(poses[-1], pose, cov), cov))
        poses.append(pose)
        if v in first_at:
            lcov = world.loop_closure_covariance
            loops.append((first_at[v], k, measure(poses[first_at[v]], pose, lcov), lcov))
        else:
            first_at[v] = k
    est = [poses[0]]
    for _, _, z, _ in odometry:
        est.append(compose(est[-1], z))
    return SimPoseGraph(np.array(poses), list(route), odometry, loops, np.array(est))


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


def objective_per_graph(est, edges) -> float:
    """Sum of e^T cov^-1 e over one graph's ``_stack_edges``, added in edge
    order from 0.0."""
    ends, z, cov = edges
    e = edge_residual(est[ends[:, 0]], est[ends[:, 1]], z)[..., None]
    q = (_t(e) @ np.linalg.solve(cov, e)).ravel()
    total = 0.0
    for v in q.tolist():
        total += v
    return total


def assemble_per_graph(est, edges, pattern):
    """One graph's Gauss-Newton ``H``, a CSC matrix on ``pattern``
    (``sim._normal_pattern``), and gradient, anchor removed."""
    ends, z, cov = edges
    keep, slot, indices, indptr, free, grad_rows = pattern
    dim = len(indptr) - 1
    xi, xj = est[ends[:, 0]], est[ends[:, 1]]
    e = edge_residual(xi, xj, z)[..., None]
    a, b = edge_jacobians(xi, xj, z)
    w = np.linalg.inv(cov)
    wa, wb, we = w @ a, w @ b, w @ e
    at, bt = _t(a), _t(b)
    blocks = np.stack([at @ wa, bt @ wb, at @ wb, bt @ wa], 1)
    data = np.bincount(slot, weights=blocks[keep].ravel(), minlength=len(indices))
    h = csc_matrix((data, indices, indptr), shape=(dim, dim))
    g = np.stack([at @ we, bt @ we], 1)[..., 0]
    grad = np.bincount(grad_rows, weights=g[free].ravel(), minlength=dim)
    return h, grad


def optimize_pose_graph_per_graph(pg, objective=objective_per_graph,
                                  assemble=assemble_per_graph) -> dict:
    """Reference Gauss-Newton on one pose graph: its own loop, line search
    and factorization, with no other graph in a batch.  ``objective`` and
    ``assemble`` take (est, stacked edges) and (est, stacked edges,
    pattern).  Mutates pg.estimates unless it raises."""
    if pg.estimates is None:
        pg.estimates = dead_reckon(pg)
    est = pg.estimates.copy()
    dim = 3 * (pg.pose_count - 1)
    if dim == 0 or not pg.edge_count:
        pg.estimates = est
        return {"iterations": 0, "converged": True, "objective": 0.0,
                "grad_norm": 0.0}
    edges = _stack_edges(pg)
    pattern = _normal_pattern(edges[0], dim)
    f_cur = objective(est, edges)
    info = {"iterations": 0, "converged": False, "objective": f_cur}
    for it in range(1, _GN_MAX_ITERS + 1):
        h, grad = assemble(est, edges, pattern)
        info["grad_norm"] = float(np.linalg.norm(grad))
        lu, _ = _spd_factor(h, "normal equations singular; graph likely disconnected")
        step = -lu.solve(grad)
        alpha = 1.0
        for _ in range(11):
            trial = est.copy()
            upd = alpha * step.reshape(-1, 3)
            trial[1:, :2] += upd[:, :2]
            trial[1:, 2] = wrap_angle(trial[1:, 2] + upd[:, 2])
            f_new = objective(trial, edges)
            if f_new <= f_cur + 1e-12:
                break
            alpha *= 0.5
        else:
            raise DivergenceError(
                f"objective rose from {f_cur:.6g} with no damping recovery"
            )
        est = trial
        step_norm = float(np.linalg.norm(alpha * step))
        f_cur = f_new
        info.update(iterations=it, objective=f_cur)
        if step_norm < _GN_STEP_TOL:
            info["converged"] = True
            break
    pg.estimates = est
    return info


def log_dopt_fim_per_graph(pg, assemble=assemble_per_graph) -> float:
    """Reference log D-opt of one pose graph's Gauss-Newton information at
    its estimates: (1/dim) log det of half the anchored J^T W J."""
    dim = 3 * (pg.pose_count - 1)
    if dim == 0:
        return 0.0
    edges = _stack_edges(pg)
    h, _ = assemble(pg.estimates, edges, _normal_pattern(edges[0], dim))
    _, logdet = _spd_factor(0.5 * h, "information matrix is rank-deficient")
    return logdet / dim


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
