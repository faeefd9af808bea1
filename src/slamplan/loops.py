"""Loop-edge candidate selection over an abstracted pose graph.

A planned coverage walk induces a region-granularity approximation of the
robot's eventual pose graph: one pose per distinct visited vertex (ordered
by first visit, pose 0 anchored at the start) and one relative-pose factor
per distinct traversed edge.  A candidate loop edge joins two poses with
no direct factor; committing to it sends the robot from the later pose's
vertex to the earlier pose's vertex and back, adding twice the
shortest-path distance between them.

Selection maximizes the ratio of estimation quality to travel cost,

    score(S) = dopt(L + sum_{c in S} gamma_c b_c b_c^T) / (d_tsp + 2 sum omega_c),

greedily: each iteration adds the candidate whose multiplicative gain

    delta = (1 + gamma * b^T L^{-1} b)^(1/n) / (1 + 2 omega / d_current)

is largest, while delta > 1.  Two sound filters shrink the candidate set:
a distance cap omega_max (no candidate farther than it can ever gain) and
a per-candidate test comparing the numerator term against 1 + omega/d_tsp.
Both rely on d(plan) <= 2 d_tsp, which is audited on every plan.

Every factor weight, walk edge or candidate, is ``information_weights``
of a covariance: a walk edge's prior covariance, or for a candidate the
``PriorGraph.pair_covs`` mean of its two regions' matrices.  All score
bookkeeping is in the log domain; determinants come from the Cholesky
factor via the matrix determinant lemma, with from-scratch dense
recomputation (``log_det_from_scratch``) reserved for oracles and audits.
Candidates are stored as (i, j) index pairs.  Their incidence columns are
built one bounded chunk at a time to evaluate the quadratic forms
b^T L^{-1} b, so memory does not grow with poses x candidates.  One
function holds the prune test, shared by the greedy, ``prune_mask`` and
``omega_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, MismatchError, SizeLimitError
from .laplacian import (
    LaplacianFactor,
    build_reduced_laplacian,
    incidence_column,
    information_weights,
    log_det_from_scratch,
)
from .tsp import Walk

_LOG_TOL = 0.0  # select only while log(delta) is strictly positive

# Incidence entries materialized per chunk of candidates: 4e6 float64 is
# 32 MB, and the triangular solve holds a second array of the same size.
_CHUNK_ELEMENTS = 4_000_000


class AbstractedPoseGraph:
    """Deduplicated pose/edge topology induced by a walk."""

    def __init__(self, graph, pose_to_vertex, vertex_to_pose, weighted_edges):
        self.graph = graph
        self.pose_to_vertex = pose_to_vertex
        self.vertex_to_pose = vertex_to_pose
        self.weighted_edges = weighted_edges  # [(i, j, gamma)], i > j
        self.edges = {(i, j) for i, j, _ in weighted_edges}
        self.n = len(pose_to_vertex) - 1

    @cached_property
    def factor(self) -> LaplacianFactor:
        """Cholesky factor of the walk's reduced Laplacian, built on first
        use: the mission scores abstracted walks without it."""
        return LaplacianFactor(build_reduced_laplacian(self.n, self.weighted_edges))

    @property
    def pose_count(self):
        return len(self.pose_to_vertex)


def abstract_pose_graph(walk: Walk, graph) -> AbstractedPoseGraph:
    """Collapse a walk to distinct poses and distinct traversed edges.

    Edge factors take their weight from the prior edge's covariance, all
    in one batch; repeated traversals contribute a single factor.
    """
    pose_to_vertex = []
    vertex_to_pose = {}
    for v in walk.vertices:
        if v not in vertex_to_pose:
            vertex_to_pose[v] = len(pose_to_vertex)
            pose_to_vertex.append(v)
    pairs = {}  # (i, j) -> edge row, in order of first traversal
    for u, v in zip(walk.vertices[:-1], walk.vertices[1:]):
        i, j = vertex_to_pose[u], vertex_to_pose[v]
        pairs.setdefault((max(i, j), min(i, j)), graph.edge_row(u, v))
    gamma = information_weights(graph.edge_covs[list(pairs.values())])
    weighted = [(i, j, float(w)) for (i, j), w in zip(pairs, gamma)]
    return AbstractedPoseGraph(graph, pose_to_vertex, vertex_to_pose, weighted)


@dataclass
class LoopEdgeCandidate:
    """Pose pair (i > j) with detour distance omega and factor weight gamma."""

    i: int
    j: int
    omega: float
    gamma: float


class CandidateSet:
    """Column-oriented candidate storage for batched evaluation."""

    def __init__(self, i, j, omega, gamma, n):
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.omega = np.asarray(omega, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.n = n

    def __len__(self):
        return len(self.i)

    def __iter__(self):
        for k in range(len(self.i)):
            yield self.candidate(k)

    def candidate(self, k: int) -> LoopEdgeCandidate:
        return LoopEdgeCandidate(
            int(self.i[k]), int(self.j[k]), float(self.omega[k]), float(self.gamma[k])
        )

    def subset(self, mask) -> "CandidateSet":
        return CandidateSet(
            self.i[mask], self.j[mask], self.omega[mask], self.gamma[mask], self.n
        )

    def incidence_matrix(self, idx) -> np.ndarray:
        """Dense (n, len(idx)) signed incidence columns of the candidates at
        ``idx`` (anchor dropped)."""
        i, j = self.i[idx], self.j[idx]
        cols = np.zeros((self.n, len(i)), order="F")
        rows = np.arange(len(i))
        cols[i - 1, rows] = 1.0
        pos = j > 0
        cols[j[pos] - 1, rows[pos]] = -1.0
        return cols


def enumerate_candidates(apg: AbstractedPoseGraph, closure) -> CandidateSet:
    """All pose pairs i > j without a direct factor, sorted by (i, j)."""
    if closure.graph is not apg.graph or not closure.fresh():
        raise MismatchError("metric closure is stale for this pose graph")
    p = apg.pose_count
    ju, iu = np.triu_indices(p, k=1)  # iu > ju
    if len(iu):
        order = np.lexsort((ju, iu))
        iu, ju = iu[order], ju[order]
    if apg.edges:
        ei = np.array([e[0] for e in apg.edges], dtype=np.int64)
        ej = np.array([e[1] for e in apg.edges], dtype=np.int64)
        keep = ~np.isin(iu * p + ju, ei * p + ej)
        iu, ju = iu[keep], ju[keep]
    g = apg.graph
    vidx = np.array([g.index[v] for v in apg.pose_to_vertex], dtype=np.int64)
    a, b = vidx[iu], vidx[ju]
    gamma = information_weights(g.pair_covs(a, b))
    return CandidateSet(iu, ju, closure.dist_matrix[a, b], gamma, apg.n)


# -- incremental gain and pruning ---------------------------------------


def quad_forms(factor: LaplacianFactor, cands: CandidateSet, idx=None) -> np.ndarray:
    """b^T L^{-1} b for the candidates at ``idx`` (default: all).

    Incidence columns are built and solved one chunk at a time, so at most
    ``_CHUNK_ELEMENTS`` of them exist at once.
    """
    if idx is None:
        idx = np.arange(len(cands))
    out = np.empty(len(idx))
    step = max(1, _CHUNK_ELEMENTS // max(factor.n, 1))
    for lo in range(0, len(idx), step):
        part = idx[lo : lo + step]
        out[lo : lo + len(part)] = factor.quad_form_batch(cands.incidence_matrix(part))
    return out


def log_gain_numerator(factor: LaplacianFactor, gamma, quad) -> np.ndarray:
    """log of (1 + gamma * b^T L^{-1} b)^(1/n), vectorized."""
    return np.log1p(np.asarray(gamma) * np.asarray(quad)) / factor.n


def selection_delta(cand: LoopEdgeCandidate, factor: LaplacianFactor,
                    current_distance: float) -> float:
    """Multiplicative score gain of adding one candidate to the plan."""
    q = factor.quad_form(incidence_column(factor.n, cand.i, cand.j))
    num = np.log1p(cand.gamma * q) / factor.n
    den = np.log1p(2.0 * cand.omega / current_distance)
    return float(np.exp(num - den))


def prune_test(d_tsp: float, omega, lognum):
    """The two pruning filters, from candidate detours and gain numerators.

    Returns (cap, within_cap, keep): the detour cap omega_max, the mask
    omega <= cap, and that mask narrowed by the per-candidate test
    lognum > log(1 + omega/d_tsp).
    """
    cap = d_tsp * np.expm1(np.max(lognum))
    within_cap = omega <= cap
    keep = within_cap & (lognum > np.log1p(omega / d_tsp))
    return cap, within_cap, keep


def omega_max(factor: LaplacianFactor, d_tsp: float, cands: CandidateSet,
              quad=None) -> float:
    """Detour cap: no candidate farther than this can ever raise the score."""
    if len(cands) == 0:
        raise InputError("omega_max needs at least one candidate")
    if quad is None:
        quad = quad_forms(factor, cands)
    lognum = log_gain_numerator(factor, cands.gamma, quad)
    return float(prune_test(d_tsp, cands.omega, lognum)[0])


def prune_mask(factor: LaplacianFactor, d_tsp: float, cands: CandidateSet,
               quad=None) -> np.ndarray:
    """Boolean mask of candidates that can still improve the score.

    A candidate is dropped when its gain numerator cannot beat
    1 + omega/d_tsp, which upper-bounds the distance penalty for any plan
    within twice the base tour length.  The distance reference stays at
    d_tsp even as the factor is updated mid-selection: the factor only
    gains information (numerator shrinks), so dropped candidates stay
    dropped, while the 2x-assumption keeps the denominator bound valid.
    """
    if len(cands) == 0:
        return np.zeros(0, dtype=bool)
    if quad is None:
        quad = quad_forms(factor, cands)
    lognum = log_gain_numerator(factor, cands.gamma, quad)
    return prune_test(d_tsp, cands.omega, lognum)[2]


def prune_candidates(factor: LaplacianFactor, d_tsp: float,
                     cands: CandidateSet) -> CandidateSet:
    return cands.subset(prune_mask(factor, d_tsp, cands))


# -- plans ---------------------------------------------------------------


@dataclass
class LoopAction:
    """Detour committed at the anchor vertex: go to target and return."""

    anchor: object
    target: object
    omega: float
    gamma: float
    pose_i: int
    pose_j: int
    position: int  # index of the anchor's first occurrence in the base walk

    def to_dict(self) -> dict:
        return {
            "anchor": self.anchor,
            "target": self.target,
            "omega": self.omega,
            "gamma": self.gamma,
        }


@dataclass
class Plan:
    """Executable exploration plan: base coverage walk plus loop actions."""

    walk: Walk
    tsp_walk: Walk
    actions: list
    objective: float
    log_objective: float
    base_distance: float
    d_tsp: float
    assumption_ok: bool

    def to_dict(self) -> dict:
        return {
            "walk": list(self.walk.vertices),
            "actions": [a.to_dict() for a in self.actions],
            "objective": self.objective,
            "base_distance": self.base_distance,
            "d_tsp": self.d_tsp,
            "assumption_ok": self.assumption_ok,
        }


def insert_loop_edges(apg: AbstractedPoseGraph, walk: Walk, selected,
                      closure, log_objective=None) -> Plan:
    """Realize selected loop edges by splicing detours into the walk.

    Each action expands the first occurrence of its anchor vertex (the
    later pose) into anchor -> target -> anchor along shortest paths;
    actions sharing an anchor run in increasing-omega order.  Total length
    grows by exactly twice the summed detour distances.
    """
    first_occ = {}
    for idx, v in enumerate(walk.vertices):
        if v not in first_occ:
            first_occ[v] = idx
    actions = []
    for cand in selected:
        anchor = apg.pose_to_vertex[cand.i]
        target = apg.pose_to_vertex[cand.j]
        if anchor not in first_occ:
            raise InputError(f"anchor vertex {anchor!r} not on the walk")
        actions.append(
            LoopAction(anchor, target, cand.omega, cand.gamma, cand.i, cand.j,
                       first_occ[anchor])
        )
    actions.sort(key=lambda a: (a.position, a.omega, a.pose_i, a.pose_j))
    by_pos = {}
    for a in actions:
        by_pos.setdefault(a.position, []).append(a)
    vertices = []
    for idx, v in enumerate(walk.vertices):
        vertices.append(v)
        for a in by_pos.get(idx, ()):
            vertices.extend(closure.path(a.anchor, a.target)[1:])
            vertices.extend(closure.path(a.target, a.anchor)[1:])
    total = walk.length + 2.0 * sum(a.omega for a in actions)
    if log_objective is None:
        log_objective = score_from_scratch(apg, selected, walk.length)
    d_tsp = walk.length
    return Plan(
        walk=Walk(vertices, total),
        tsp_walk=walk,
        actions=actions,
        objective=float(np.exp(log_objective)),
        log_objective=float(log_objective),
        base_distance=total,
        d_tsp=d_tsp,
        assumption_ok=bool(total <= 2.0 * d_tsp + 1e-9),
    )


def score_from_scratch(apg: AbstractedPoseGraph, selected, d_tsp: float) -> float:
    """log score via dense reassembly; the oracle path, no factor reuse.
    A one-pose walk has no factor and no length: 0, as in ``greedy_select``."""
    if apg.n == 0:
        return 0.0
    extra = [(c.i, c.j, c.gamma) for c in selected]
    logdet = log_det_from_scratch(apg.n, apg.weighted_edges + extra)
    dist = d_tsp + 2.0 * sum(c.omega for c in selected)
    return logdet / apg.n - float(np.log(dist))


# -- selection -----------------------------------------------------------


@dataclass
class GreedyTrace:
    """Counts and per-iteration telemetry from one greedy run."""

    initial_candidates: int
    after_omega_max: int
    after_prop1: int
    per_iteration: list = field(default_factory=list)
    selections: list = field(default_factory=list)  # (i, j, log_delta)


@dataclass
class GreedyResult:
    selected: list
    plan: Plan
    trace: GreedyTrace
    log_objective: float


def greedy_select(apg: AbstractedPoseGraph, cands: CandidateSet, walk: Walk,
                  closure, pruning: bool = True) -> GreedyResult:
    """Iterative best-gain selection with optional candidate pruning.

    With pruning on, each iteration refreshes the distance cap and the
    per-candidate test using the current factor before picking the best
    survivor; the selected sequence is identical either way because
    filtered candidates provably have delta <= 1.  Ties in the gain break
    toward the smallest (i, j).
    """
    factor = apg.factor.copy()
    d_tsp = walk.length
    d_cur = d_tsp
    m = len(cands)
    trace = GreedyTrace(m, m, m)
    selected = []
    if apg.n == 0 or d_tsp <= 0.0:
        plan = insert_loop_edges(apg, walk, selected, closure, 0.0)
        return GreedyResult(selected, plan, trace, 0.0)
    log_j = factor.log_dopt() - float(np.log(d_tsp))
    if m == 0:
        plan = insert_loop_edges(apg, walk, selected, closure, log_j)
        return GreedyResult(selected, plan, trace, log_j)
    alive = np.ones(m, dtype=bool)
    first = True
    while alive.any():
        idx = np.flatnonzero(alive)
        quad = quad_forms(factor, cands, idx)
        lognum = log_gain_numerator(factor, cands.gamma[idx], quad)
        if pruning:
            _, within_cap, keep = prune_test(d_tsp, cands.omega[idx], lognum)
            if first:
                trace.after_omega_max = int(within_cap.sum())
                trace.after_prop1 = int(keep.sum())
            alive[idx[~keep]] = False
            idx = idx[keep]
            lognum = lognum[keep]
            if len(idx) == 0:
                break
        first = False
        trace.per_iteration.append(len(idx))
        log_delta = lognum - np.log1p(2.0 * cands.omega[idx] / d_cur)
        best = int(np.argmax(log_delta))  # first max: smallest (i, j) on ties
        if log_delta[best] <= _LOG_TOL:
            break
        k = int(idx[best])
        cand = cands.candidate(k)
        factor.rank_one_update(cand.gamma, incidence_column(apg.n, cand.i, cand.j))
        d_cur += 2.0 * cand.omega
        log_j += float(log_delta[best])
        selected.append(cand)
        trace.selections.append((cand.i, cand.j, float(log_delta[best])))
        alive[k] = False
    plan = insert_loop_edges(apg, walk, selected, closure, log_j)
    return GreedyResult(selected, plan, trace, log_j)


def brute_force_select(apg: AbstractedPoseGraph, cands: CandidateSet,
                       walk: Walk, max_subset: int | None = None,
                       chunk: int = 16384):
    """Exhaustive subset search; every score rebuilt densely.

    Only viable for small candidate sets; used as the optimality oracle.
    Returns (best candidate list, best score, best log score).
    """
    m = len(cands)
    if m > 20:
        raise SizeLimitError(f"exhaustive search capped at 20 candidates, got {m}")
    n = apg.n
    d_tsp = walk.length
    base = build_reduced_laplacian(n, apg.weighted_edges)
    rank1 = np.empty((m, n * n))
    for k in range(m):
        b = incidence_column(n, int(cands.i[k]), int(cands.j[k]))
        rank1[k] = (cands.gamma[k] * np.outer(b, b)).ravel()
    total = 1 << m
    codes = np.arange(total, dtype=np.int64)
    if max_subset is not None:
        bits = np.zeros(total, dtype=np.int64)
        tmp = codes.copy()
        for _ in range(m):
            bits += tmp & 1
            tmp >>= 1
        codes = codes[bits <= max_subset]
    best_log, best_code = -np.inf, 0
    for lo in range(0, len(codes), chunk):
        part = codes[lo : lo + chunk]
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
