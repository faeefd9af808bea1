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

is largest, while delta > 1.  Its log has one code path,
``log_gain_numerator`` minus ``log_gain_denominator``: the greedy scores
every candidate through it, and acceptance criterion 3 checks it against
from-scratch scores.  Two sound filters shrink the candidate set:
a distance cap omega_max (no candidate farther than it can ever gain) and
a per-candidate test comparing the numerator term against 1 + omega/d_tsp.
Both rely on d(plan) <= 2 d_tsp, which is audited on every plan.

The greedy runs them on upper bounds of the numerators, which it solves
only where a bound can still win.  Before the first solve the bound is a
path resistance: read each factor of weight gamma as a conductance, so
that b^T L^{-1} b is the effective resistance between the candidate's
poses.  By Rayleigh monotonicity that is at most the resistance 1/gamma
summed along any path between them (Doyle & Snell 1984), and one
shortest-path pass gives it for every candidate.  After a solve the
bound is the last solved value, since a selection only adds information.

Every factor weight, walk edge or candidate, is ``information_weights``
of a covariance: a walk edge's prior covariance, or for a candidate the
``PriorGraph.pair_covs`` mean of its two regions' matrices.  A candidate's
weight thus depends on its two region matrices alone, so it is computed
once per distinct ordered pair of them: a 20x20 grid plan, whose regions
all keep the default matrix, computes 1 weight for its 71.6k candidates.
All score bookkeeping is in the log domain; determinants come from the
factor's log-det, updated via the matrix determinant lemma, with
from-scratch recomputation (``log_dopt_from_scratch``) left to oracles,
audits and replans.
Factors, candidates and selections are all (i, j) pose pairs, pose 0 the
anchor, and the factor takes pairs: a quadratic form b^T L^{-1} b costs
O(n) per candidate, asked for one bounded chunk of pairs at a time so that
memory does not grow with poses x candidates, and a selection is the
rank-one update of its pair.
One function holds the prune test, for the greedy and ``exact_prune_test``,
which ``bench_prune`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import InputError
from .graph import _adjacency
from .laplacian import (
    LaplacianFactor,
    information_weights,
    log_det_from_scratch,
    reduced_laplacian,
)
from .tsp import Walk

_LOG_TOL = 0.0  # select only while log(delta) is strictly positive

# Entries per chunk of candidates in each of the two (k, n) temporaries of
# ``quad_form_batch``: 2^19 float64 is 4 MB.  A plan's peak memory is at
# most one full chunk (1383 candidates at n=379), however many candidates
# a sweep needs.
_CHUNK_ELEMENTS = 1 << 19

# Relative slack on path resistances: on a pose pair joined by one path the
# bound is tight, and rounding may put it a few ulps below the solved value.
_BOUND_SLACK = 1e-9

# Columns in a lazy sweep's first batch; each next batch is twice as large.
_LAZY_BATCH = 64


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
        """Inverse Cholesky factor of the walk's reduced Laplacian, built on
        first use: the mission scores abstracted walks without it."""
        return reduced_laplacian(self.pose_count, self.weighted_edges)

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

    def __init__(self, i, j, omega, gamma):
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.omega = np.asarray(omega, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)

    def __len__(self):
        return len(self.i)

    def candidate(self, k: int) -> LoopEdgeCandidate:
        return LoopEdgeCandidate(
            int(self.i[k]), int(self.j[k]), float(self.omega[k]), float(self.gamma[k])
        )


def enumerate_candidates(apg: AbstractedPoseGraph, closure) -> CandidateSet:
    """All pose pairs i > j without a direct factor, sorted by (i, j).

    A candidate's weight depends only on its two poses' region matrices.
    Poses are grouped by the exact bytes of theirs, so a -0.0 entry never
    merges with a 0.0 one, and one weight is computed per ordered pair of
    groups that occurs, then gathered per candidate.
    """
    closure.check_serves(apg.graph)
    p = apg.pose_count
    direct = np.zeros((p, p), dtype=bool)
    ends = np.array(list(apg.edges), dtype=np.int64).reshape(-1, 2)
    direct[ends[:, 0], ends[:, 1]] = True
    iu, ju = np.tril_indices(p, k=-1)  # iu > ju, sorted by (iu, ju)
    keep = ~direct[iu, ju]
    iu, ju = iu[keep], ju[keep]
    g = apg.graph
    vidx = np.array([g.index[v] for v in apg.pose_to_vertex], dtype=np.int64)
    rows = g.region_covs[vidx].reshape(p, 9)
    _, rep, group = np.unique(rows.view(np.dtype((np.void, rows.itemsize * 9))).ravel(),
                              return_index=True, return_inverse=True)
    r = len(rep)
    key = group[iu] * r + group[ju]
    seen = np.zeros(r * r, dtype=bool)
    seen[key] = True
    pairs = np.flatnonzero(seen)
    table = np.empty(r * r)
    table[pairs] = information_weights(
        g.pair_covs(vidx[rep[pairs // r]], vidx[rep[pairs % r]]))
    a, b = vidx[iu], vidx[ju]
    return CandidateSet(iu, ju, closure.dist_matrix[a, b], table[key])


# -- incremental gain and pruning ---------------------------------------


def quad_forms(factor: LaplacianFactor, cands: CandidateSet, idx=None) -> np.ndarray:
    """b^T L^{-1} b for the candidates at ``idx`` (default: all).

    The pose pairs go to ``quad_form_batch`` in near-equal chunks of at
    most ``_CHUNK_ELEMENTS`` // n pairs.
    """
    if idx is None:
        idx = np.arange(len(cands))
    out = np.empty(len(idx))
    step = max(1, _CHUNK_ELEMENTS // max(factor.n, 1))
    lo = 0
    for part in np.array_split(idx, -(-len(idx) // step)) if len(idx) else ():
        pairs = np.stack((cands.i[part], cands.j[part]))
        out[lo : lo + len(part)] = factor.quad_form_batch(pairs)
        lo += len(part)
    return out


def path_resistance(apg: AbstractedPoseGraph, cands: CandidateSet) -> np.ndarray:
    """Shortest-path resistance between each candidate's poses, each factor
    of weight gamma a resistor of 1/gamma: an upper bound on b^T L^{-1} b,
    with equality when the poses are joined by a single path."""
    e = np.array(apg.weighted_edges, dtype=float).reshape(-1, 3)
    res = _adjacency(e[:, :2], 1.0 / e[:, 2], apg.pose_count)
    return dijkstra(res)[cands.i, cands.j]


def log_gain_numerator(factor: LaplacianFactor, gamma, quad) -> np.ndarray:
    """log of (1 + gamma * b^T L^{-1} b)^(1/n), vectorized."""
    return np.log1p(np.asarray(gamma) * np.asarray(quad)) / factor.n


def log_gain_denominator(omega, d_current) -> np.ndarray:
    """log of 1 + 2 omega / d_current, the distance term of the gain."""
    return np.log1p(2.0 * omega / d_current)


def prune_test(d_tsp: float, omega, lognum):
    """The two pruning filters, from candidate detours and gain numerators.

    Returns (cap, within_cap, keep): the detour cap omega_max, the mask
    omega <= cap, and that mask narrowed by the per-candidate test
    lognum > log(1 + omega/d_tsp).

    A candidate is dropped when its gain numerator cannot beat
    1 + omega/d_tsp, which upper-bounds the distance penalty for any plan
    within twice the base tour length.  The distance reference stays at
    d_tsp even as the factor is updated mid-selection: the factor only
    gains information (numerator shrinks), so dropped candidates stay
    dropped, while the 2x-assumption keeps the denominator bound valid.
    """
    cap = d_tsp * np.expm1(np.max(lognum))
    within_cap = omega <= cap
    keep = within_cap & (lognum > np.log1p(omega / d_tsp))
    return cap, within_cap, keep


def exact_prune_test(factor: LaplacianFactor, d_tsp: float, cands: CandidateSet):
    """``prune_test`` on the solved gain numerators of all of ``cands``, at
    least one."""
    lognum = log_gain_numerator(factor, cands.gamma, quad_forms(factor, cands))
    return prune_test(d_tsp, cands.omega, lognum)


def _solve_columns(factor: LaplacianFactor, cands: CandidateSet, lognum, idx):
    """Write the exact gain numerators of the candidates at ``idx`` into
    ``lognum``."""
    lognum[idx] = log_gain_numerator(factor, cands.gamma[idx],
                                     quad_forms(factor, cands, idx))


def _solve_while_bound_wins(factor: LaplacianFactor, cands: CandidateSet, lognum,
                            idx, den) -> np.ndarray:
    """Solve the candidates at ``idx`` in descending order of their log-gain
    bound, numerator in ``lognum`` minus ``den``, while the next bound is at
    least the best exact log gain so far, which starts at ``_LOG_TOL``.

    The first batch holds ``_LAZY_BATCH`` columns and each next one twice
    as many, each cut where its bounds fall below the best.  A bound equal
    to the best is solved, so every candidate that may tie the best is
    exact.  Returns the solved positions in ``idx``, ascending.
    """
    bound = lognum[idx] - den
    # the best only rises from _LOG_TOL, so no lower bound is ever solved:
    # these are the first entries of the stable descending order of all
    top = np.flatnonzero(bound >= _LOG_TOL)
    order = top[np.argsort(-bound[top], kind="stable")]
    done, step, best = 0, _LAZY_BATCH, _LOG_TOL
    while done < len(order) and bound[order[done]] >= best:
        part = order[done : done + step]
        part = part[bound[part] >= best]
        _solve_columns(factor, cands, lognum, idx[part])
        best = max(best, float(np.max(lognum[idx[part]] - den[part])))
        done, step = done + len(part), 2 * step
    return np.sort(order[:done])


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


def log_dopt_from_scratch(apg: AbstractedPoseGraph, loops) -> float:
    """log D-opt, (1/n) log det, of the reduced Laplacian of the walk's
    factors plus the (i, j, gamma) ``loops``, reassembled from scratch; 0
    for a one-pose walk."""
    if apg.n == 0:
        return 0.0
    return log_det_from_scratch(apg.n, apg.weighted_edges + list(loops)) / apg.n


def score_from_scratch(apg: AbstractedPoseGraph, selected, d_tsp: float) -> float:
    """log score reassembled from scratch; the oracle path, no factor reuse.
    A one-pose walk has no factor and no length: 0, as in ``greedy_select``."""
    if apg.n == 0:
        return 0.0
    loops = [(c.i, c.j, c.gamma) for c in selected]
    dist = d_tsp + 2.0 * sum(c.omega for c in selected)
    return log_dopt_from_scratch(apg, loops) - float(np.log(dist))


# -- selection -----------------------------------------------------------


@dataclass
class GreedyTrace:
    """Counts and per-iteration telemetry from one greedy run.

    ``per_iteration`` counts, per sweep, the candidates that pass the prune
    test on the numerators the sweep holds: exact ones where every live
    candidate is solved, and upper bounds in the lazy sweeps, so there it
    can exceed the exact count.  The first sweep's bounds are path
    resistances.  ``after_prop1`` is the first sweep's count, 0 when no
    sweep ran; ``bench_prune`` reports the exact counts.
    """

    initial_candidates: int
    per_iteration: list = field(default_factory=list)
    selections: list = field(default_factory=list)  # (i, j, log_delta)

    @property
    def after_prop1(self) -> int:
        return self.per_iteration[0] if self.per_iteration else 0


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
    per-candidate test before picking the best survivor; the selected
    sequence is identical either way because filtered candidates provably
    have delta <= 1.

    Pruned sweeps are lazy (Minoux 1978).  Each candidate holds an upper
    bound on its gain numerator: the bound from its path resistance until
    it is first solved, its last solved value after that, since a
    selection only adds information.  The prune test runs on these bounds,
    which keeps every candidate the exact test keeps, and bound minus the
    current distance term bounds the log gain.  Only candidates whose
    bound reaches the best exact log gain are solved.
    Sweeps solve every live candidate without pruning, and once the plan
    is longer than twice the tour: past that, a candidate that fails the
    prune test on its exact numerator can still gain, and a stale
    numerator would keep it where a solved one drops it.
    Ties in the gain break toward the smallest (i, j).
    """
    factor = apg.factor.copy()
    d_tsp = walk.length
    d_cur = d_tsp
    m = len(cands)
    trace = GreedyTrace(m)
    selected = []
    if apg.n == 0 or d_tsp <= 0.0:
        plan = insert_loop_edges(apg, walk, selected, closure, 0.0)
        return GreedyResult(selected, plan, trace, 0.0)
    log_j = factor.log_dopt() - float(np.log(d_tsp))
    # each candidate's last solved gain numerator, or an upper bound on it
    lognum = np.empty(m)
    if pruning:
        ub = path_resistance(apg, cands) * (1.0 + _BOUND_SLACK)
        lognum = log_gain_numerator(factor, cands.gamma, ub)
    live = np.arange(m)  # ascending, so np.argmax breaks ties toward small (i, j)
    while len(live):
        lazy = pruning and d_cur <= 2.0 * d_tsp
        if not lazy:
            _solve_columns(factor, cands, lognum, live)
        if pruning:
            live = live[prune_test(d_tsp, cands.omega[live], lognum[live])[2]]
            if len(live) == 0:
                break
        trace.per_iteration.append(len(live))
        idx = live
        den = log_gain_denominator(cands.omega[idx], d_cur)
        if lazy:
            solved = _solve_while_bound_wins(factor, cands, lognum, idx, den)
            if len(solved) == 0:
                break
            idx, den = idx[solved], den[solved]
        log_delta = lognum[idx] - den
        best = int(np.argmax(log_delta))  # first max: smallest (i, j) on ties
        if log_delta[best] <= _LOG_TOL:
            break
        k = int(idx[best])
        cand = cands.candidate(k)
        factor.rank_one_update(cand.gamma, cand.i, cand.j)
        d_cur += 2.0 * cand.omega
        log_j += float(log_delta[best])
        selected.append(cand)
        trace.selections.append((cand.i, cand.j, float(log_delta[best])))
        live = live[live != k]
    plan = insert_loop_edges(apg, walk, selected, closure, log_j)
    return GreedyResult(selected, plan, trace, log_j)

