"""Graph-world execution of a plan with noisy measurements and SE(2)
pose-graph optimization.

The simulator runs at region granularity: one pose per walk step, placed
at the true vertex position with heading along the direction of motion.
Odometry between consecutive poses is the true relative motion corrupted
by zero-mean Gaussian noise whose covariance averages the two endpoint
regions' degeneracy matrices.  Revisiting a vertex closes a loop against
the earliest pose recorded there.  Optimization is Gauss-Newton with
step-halving damping on the anchored graph, run in lockstep over a batch
of pose graphs; a single graph is a batch of one.  The anchored normal
equations are sparse: their pattern is built once per distinct route, and
each iteration sums the entries of every graph still running in
compressed-column form with one ``np.bincount`` and scores each round of
their line searches in one objective call.  ``laplacian._spd_factor``
factors each graph's own matrix with SuperLU in a fill-reducing symmetric
order, which also gives the information matrix's log det, so a graph's
results are those it gets alone, and a graph that fails leaves the batch
without stopping the others.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse import csc_matrix

from .errors import DivergenceError, InputError, MismatchError, RankDeficientError
from .graph import (
    PriorGraph,
    _as_dict,
    check_spd,
    default_sigma,
    load_prior_graph,
    sigma_matrix,
)
from .laplacian import _spd_factor
from .se2 import (
    _t,
    between,
    compose,
    edge_jacobians,
    edge_residual,
    wrap_angle,
)

# Measurements with covariance trace at or below this are treated as exact
# (no sampling), so noiseless worlds are literally noiseless.
NOISE_FLOOR_TRACE = 1e-10

DEFAULT_LOOP_SIGMA = (0.01, 0.01, 0.0001)

# Gauss-Newton stops after this many iterations or on a step shorter than this.
_GN_MAX_ITERS = 100
_GN_STEP_TOL = 1e-10


class WorldModel:
    """Ground-truth environment: full connectivity plus noise character."""

    def __init__(self, true_graph: PriorGraph, region_degeneracy=None,
                 loop_closure_covariance=None):
        self.true_graph = true_graph
        self.region_degeneracy = {v: default_sigma() for v in true_graph.ids}
        for v, mat in (region_degeneracy or {}).items():
            if v not in true_graph.index:
                raise InputError(f"degeneracy entry for unknown vertex {v!r}")
            self.region_degeneracy[v] = check_spd(
                np.asarray(mat, dtype=float), f"degeneracy of {v!r}"
            )
        if loop_closure_covariance is None:
            loop_closure_covariance = np.diag(DEFAULT_LOOP_SIGMA)
        self.loop_closure_covariance = check_spd(
            np.asarray(loop_closure_covariance, dtype=float), "loop closure"
        )

    def degeneracy(self, v) -> np.ndarray:
        return self.region_degeneracy[v]

    def check_prior(self, prior: PriorGraph) -> None:
        """Raise a MismatchError naming the first prior vertex, in id order,
        or else the first prior edge, in edge order, that the world lacks."""
        missing = [v for v in prior.ids if v not in self.true_graph.index]
        if missing:
            raise MismatchError(f"prior vertex {missing[0]!r} absent from world")
        for u, v, _ in prior.edges:
            if not self.true_graph.has_edge(u, v):
                raise MismatchError(f"prior edge ({u!r}, {v!r}) absent from world")

    def hidden_edges(self, prior: PriorGraph) -> list:
        """World edges joining prior vertices that the prior graph lacks."""
        out = []
        for u, v, length in self.true_graph.edges:
            if u in prior.index and v in prior.index and not prior.has_edge(u, v):
                out.append((u, v, length))
        return out


def load_world(document) -> WorldModel:
    """Parse a world document, a parsed object or the path of a JSON file
    holding one: a prior-graph object under ``graph`` plus optional
    degeneracy and loop-closure noise entries (diagonal variances)."""
    document = _as_dict(document)
    try:
        graph_doc = document["graph"]
    except KeyError:
        raise InputError("world document missing key 'graph'") from None
    if not isinstance(graph_doc, dict):
        raise InputError(f"world 'graph' must be an object, got {type(graph_doc).__name__}")
    graph = load_prior_graph(graph_doc)
    default = document.get("default_degeneracy")
    degeneracy = {}
    if default is not None:
        what = "default_degeneracy"
        base = check_spd(sigma_matrix(default, what), what)
        degeneracy = {v: base for v in graph.ids}
    entries = document.get("region_degeneracy")
    if not isinstance(entries, (dict, type(None))):
        raise InputError(
            f"world 'region_degeneracy' must be an object, got {type(entries).__name__}"
        )
    by_key = {}  # JSON object keys are strings, so ids 1 and "1" share one
    for v in graph.ids:
        by_key.setdefault(str(v), []).append(v)
    for key, diag in (entries or {}).items():
        if key not in by_key:
            raise InputError(f"degeneracy entry for unknown vertex {key!r}")
        if len(by_key[key]) > 1:
            first, second = by_key[key][:2]
            raise InputError(
                f"degeneracy entry {key!r} matches both vertex ids {first!r} and {second!r}"
            )
        vid = by_key[key][0]
        degeneracy[vid] = sigma_matrix(diag, f"vertex {vid!r} degeneracy")
    loop_sigma = document.get("loop_closure_sigma")
    loop_cov = None if loop_sigma is None else sigma_matrix(loop_sigma, "loop_closure_sigma")
    return WorldModel(graph, degeneracy, loop_cov)


@dataclass
class SimPoseGraph:
    """Ground truth, measurements, and estimates for one executed route."""

    poses_true: np.ndarray  # (P, 3)
    vertex_of_pose: list
    odometry: list  # (i, i+1, z, cov)
    loops: list  # (i, j, z, cov) with i < j; i is the earliest pose there
    estimates: np.ndarray = field(default=None)

    @property
    def pose_count(self) -> int:
        return len(self.poses_true)

    def all_edges(self):
        yield from self.odometry
        yield from self.loops

    @property
    def edge_count(self) -> int:
        return len(self.odometry) + len(self.loops)

    def mean_degree(self) -> float:
        return 2.0 * self.edge_count / self.pose_count


@dataclass
class MissionMetrics:
    """Summary row for one executed mission."""

    ape_rmse: float
    total_distance: float
    pose_count: int
    mean_degree: float
    dopt_predicted: float
    dopt_fim: float
    assumption_ok: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def _check_seed(seed):
    """``seed`` if it is a non-negative integer, else an ``InputError``
    that names it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


class RouteRunner:
    """Edge-by-edge execution in the world with incremental measurements.

    The one measurement generator: ``simulate_walk`` and the mission loop
    both drive it with ``move``.  Each step samples its odometry, then its
    loop closure if any, from one seeded stream.
    """

    def __init__(self, world: WorldModel, start, seed):
        self.world = world
        self.rng = np.random.default_rng(_check_seed(seed))
        g = world.true_graph
        if start not in g.index:
            raise MismatchError(f"start vertex {start!r} absent from world")
        p = g.position(start)
        self.route = [start]
        self.poses = [np.array([p[0], p[1], 0.0])]
        self.odometry = []
        self.loops = []
        self.first_at = {start: 0}
        self.distance = 0.0

    def _sample(self, cov):
        if np.trace(cov) <= NOISE_FLOOR_TRACE:
            return np.zeros(3)
        return np.linalg.cholesky(cov) @ self.rng.standard_normal(3)

    def move(self, v):
        u = self.route[-1]
        g = self.world.true_graph
        if not g.has_edge(u, v):
            raise MismatchError(f"no world edge ({u!r}, {v!r}) to traverse")
        pu, pv = g.position(u), g.position(v)
        heading = float(np.arctan2(pv[1] - pu[1], pv[0] - pu[0]))
        if len(self.poses) == 1:
            self.poses[0][2] = heading  # anchor turns toward its first motion
        pose = np.array([pv[0], pv[1], heading])
        k = len(self.poses)
        cov = 0.5 * (self.world.degeneracy(u) + self.world.degeneracy(v))
        z = between(self.poses[-1], pose) + self._sample(cov)
        z[2] = wrap_angle(z[2])
        self.odometry.append((k - 1, k, z, cov))
        self.poses.append(pose)
        if v in self.first_at:
            lcov = self.world.loop_closure_covariance
            i = self.first_at[v]
            zl = between(self.poses[i], pose) + self._sample(lcov)
            zl[2] = wrap_angle(zl[2])
            self.loops.append((i, k, zl, lcov))
        else:
            self.first_at[v] = k
        self.route.append(v)
        self.distance += g.edge_length(u, v)

    def pose_graph(self) -> SimPoseGraph:
        pg = SimPoseGraph(
            np.array(self.poses), list(self.route), list(self.odometry),
            list(self.loops)
        )
        pg.estimates = dead_reckon(pg)
        return pg


def simulate_walk(route, world: WorldModel, seed) -> SimPoseGraph:
    """Execute a vertex route step by step with a fresh ``RouteRunner``."""
    route = list(route)
    if not route:
        raise InputError("route is empty")
    g = world.true_graph
    for k, (u, v) in enumerate(zip(route[:-1], route[1:])):
        if not g.has_edge(u, v):
            raise MismatchError(f"route step {k}: world has no edge ({u!r}, {v!r})")
    runner = RouteRunner(world, route[0], seed)
    for v in route[1:]:
        runner.move(v)
    return runner.pose_graph()


def dead_reckon(pg: SimPoseGraph) -> np.ndarray:
    """Initial estimates: compose odometry outward from the anchor."""
    est = np.zeros_like(pg.poses_true)
    est[0] = pg.poses_true[0]
    for i, j, z, _ in pg.odometry:
        est[j] = compose(est[i], z)
    return est


# -- Gauss-Newton optimization ------------------------------------------


def _stack_edges(pg: SimPoseGraph):
    """The measurements of ``pg`` in edge order, odometry then loops:
    (K,2) pose indices, (K,3) z and (K,3,3) covariances."""
    edges = list(pg.all_edges())
    ends = np.array([(i, j) for i, j, _, _ in edges], dtype=np.intp).reshape(-1, 2)
    z = np.array([z for _, _, z, _ in edges], dtype=float).reshape(-1, 3)
    cov = np.array([cov for _, _, _, cov in edges], dtype=float).reshape(-1, 3, 3)
    return ends, z, cov


def _normal_pattern(ends, dim):
    """Compressed-column pattern of the anchored normal equations of the
    edges ``ends``, which holds for every estimate.

    Every edge adds the blocks ii, jj, ij and ji of ``H`` and the rows i
    and j of the gradient, skipping those of the anchor.  Returns the
    (K,4) mask of kept blocks, the CSC slot of each kept block entry,
    ``indices`` and ``indptr``, then the (K,2) mask of free rows and the
    gradient row of each free row entry.  ``indices`` and ``indptr`` are
    C ints, SuperLU's index type, so a matrix built on them is not scanned
    for a narrower one.
    """
    i, j = ends[:, 0], ends[:, 1]
    rows, cols = np.stack([i, j, i, j], 1), np.stack([i, j, j, i], 1)
    keep = (rows > 0) & (cols > 0)
    offs = np.arange(3)
    r = 3 * (rows[keep][:, None, None] - 1) + offs[:, None]
    c = 3 * (cols[keep][:, None, None] - 1) + offs
    keys, slot = np.unique((c * dim + r).ravel(), return_inverse=True)
    indptr = np.searchsorted(keys // dim, np.arange(dim + 1))
    free = ends > 0
    grad_rows = (3 * (ends[..., None] - 1) + offs)[free].ravel()
    return keep, slot, (keys % dim).astype(np.intc), indptr.astype(np.intc), free, grad_rows


def _stack_batch(pgs):
    """Joint (N,3) estimates of the pose graphs ``pgs``, each graph's rows
    after the last graph's, and one part per graph: its measurements in
    edge order (``_stack_edges``) with pose indices into the joint rows,
    its normal-equation pattern, built once per distinct route, and the
    slice of its rows."""
    patterns = {}
    parts = []
    start = 0
    for pg in pgs:
        ends, z, cov = _stack_edges(pg)
        dim = 3 * (pg.pose_count - 1)
        key = (dim, ends.tobytes())
        if key not in patterns:
            patterns[key] = _normal_pattern(ends, dim)
        parts.append((ends + start, z, cov, patterns[key],
                      slice(start, start + pg.pose_count)))
        start += pg.pose_count
    return np.concatenate([pg.estimates for pg in pgs]), parts


class _Batch:
    """Pose graphs stacked for one lockstep pass, from ``_stack_batch``
    parts.

    Measurements are concatenated in graph order.  Each graph's CSC slots
    and gradient rows are shifted past those of the graphs before it, so
    one ``np.bincount`` sums every graph's entries and no slot mixes two
    graphs: graph b owns ``nnz[b]:nnz[b + 1]`` of the summed entries and
    ``span(b)`` of the gradient and step.  ``poses`` lists every free
    (non-anchor) row of the joint estimates, in step order.
    """

    def __init__(self, parts):
        ends, z, cov, patterns, rows = zip(*parts)
        self.ends, self.z, self.cov = (np.concatenate(x) for x in (ends, z, cov))
        self.w = np.linalg.inv(self.cov)
        counts = [len(e) for e in ends]
        self.row = np.repeat(np.arange(len(parts)), counts)
        self.col = np.concatenate([np.arange(1, k + 1) for k in counts])
        self.width = max(counts) + 1
        keep, slot, indices, indptr, free, grad_rows = zip(*patterns)
        self.csc = list(zip(indices, indptr))
        self.nnz = np.cumsum([0] + [len(i) for i in indices])
        self.dims = np.cumsum([0] + [len(p) - 1 for p in indptr])
        self.keep, self.free = np.concatenate(keep), np.concatenate(free)
        self.slot = np.concatenate([s + at for s, at in zip(slot, self.nnz)])
        self.grad_rows = np.concatenate([g + at for g, at in zip(grad_rows, self.dims)])
        self.poses = np.concatenate([np.arange(r.start + 1, r.stop) for r in rows])

    def __len__(self) -> int:
        return len(self.csc)

    def span(self, b) -> slice:
        return slice(self.dims[b], self.dims[b + 1])

    def matrix(self, b, data):
        """Graph b's matrix from the batch's summed slot ``data``, a CSC
        matrix that shares its pattern's ``indices`` and ``indptr``."""
        indices, indptr = self.csc[b]
        dim = len(indptr) - 1
        return csc_matrix((data[self.nnz[b]:self.nnz[b + 1]], indices, indptr),
                          shape=(dim, dim))


def _objective(est, batch) -> np.ndarray:
    """Each graph's sum of e^T cov^-1 e at the joint estimates ``est``,
    added in edge order from 0.0 as a per-edge loop would: a graph's terms
    fill its row after a leading 0.0, and ``np.add.accumulate`` adds along
    the row one term at a time (``np.sum`` adds pairwise, which changes the
    last bits); the zeros that pad shorter rows leave their sums as they
    are."""
    e = edge_residual(est[batch.ends[:, 0]], est[batch.ends[:, 1]], batch.z)[..., None]
    terms = np.zeros((len(batch), batch.width))
    terms[batch.row, batch.col] = (_t(e) @ np.linalg.solve(batch.cov, e)).ravel()
    return np.add.accumulate(terms, axis=1)[:, -1]


def _assemble(est, batch):
    """Gauss-Newton ``H`` entries and gradients, anchors removed, of every
    graph of ``batch`` at the joint estimates ``est``: the summed slot data
    (``_Batch.matrix`` makes a graph's ``H`` of them) and the gradients.

    ``np.bincount`` adds the entries of each slot in edge order from 0.0,
    so each entry is summed as a per-edge loop into a dense ``H`` would
    sum it.
    """
    xi, xj = est[batch.ends[:, 0]], est[batch.ends[:, 1]]
    e = edge_residual(xi, xj, batch.z)[..., None]
    a, b = edge_jacobians(xi, xj, batch.z)
    w = batch.w
    wa, wb, we = w @ a, w @ b, w @ e
    at, bt = _t(a), _t(b)
    blocks = np.stack([at @ wa, bt @ wb, at @ wb, bt @ wa], 1)  # (K,4,3,3)
    data = np.bincount(batch.slot, weights=blocks[batch.keep].ravel(),
                       minlength=batch.nnz[-1])
    g = np.stack([at @ we, bt @ we], 1)[..., 0]  # (K,2,3), rows i then j
    grad = np.bincount(batch.grad_rows, weights=g[batch.free].ravel(),
                       minlength=batch.dims[-1])
    return data, grad


def _one(outcome):
    """The outcome of a batch of one: its value, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def optimize_pose_graphs(pgs) -> list:
    """Anchored Gauss-Newton on each pose graph of ``pgs``, in lockstep;
    returns per graph its run info, or the error that stopped it.

    Each iteration assembles every running graph in one pass, factors each
    graph's own matrix, and scores each round of the line searches in one
    objective call.  A graph leaves the batch when it converges or fails,
    and the others go on: each graph takes the steps, and ends with the
    estimates, info or error, that it would alone.  A graph's estimates
    are replaced unless it fails.

    Rejected full steps retry at half length up to 10 times; if even the
    smallest step raises the objective the graph fails with a
    ``DivergenceError``, and singular normal equations fail it with a
    ``RankDeficientError``.  ``grad_norm`` is the gradient norm at the last
    linearization, the one before the last step.
    """
    outcomes = []
    for pg in pgs:
        if pg.estimates is None:
            pg.estimates = dead_reckon(pg)
        outcomes.append({"iterations": 0, "converged": True, "objective": 0.0,
                         "grad_norm": 0.0})
    active = [k for k, pg in enumerate(pgs) if pg.pose_count > 1 and pg.edge_count]
    if not active:
        return outcomes
    est, stacked = _stack_batch([pgs[k] for k in active])
    parts = dict(zip(active, stacked))
    batch = _Batch(stacked)
    f_cur = _objective(est, batch)
    for k, f in zip(active, f_cur):
        outcomes[k] = {"iterations": 0, "converged": False, "objective": float(f)}
    for it in range(1, _GN_MAX_ITERS + 1):
        running = [isinstance(outcomes[k], dict) and not outcomes[k]["converged"]
                   for k in active]
        if not all(running):
            active = [k for k, go in zip(active, running) if go]
            if not active:
                break
            f_cur = f_cur[running]
            batch = _Batch([parts[k] for k in active])
        data, grad = _assemble(est, batch)
        step = np.zeros(len(grad))  # a graph that fails here keeps still
        for b, k in enumerate(active):
            span = batch.span(b)
            outcomes[k]["grad_norm"] = float(np.linalg.norm(grad[span]))
            try:
                lu, _ = _spd_factor(batch.matrix(b, data),
                                    "normal equations singular; graph likely disconnected")
            except RankDeficientError as err:
                outcomes[k] = err
                continue
            step[span] = -lu.solve(grad[span])
        alpha = np.ones(len(active))
        searching = np.array([isinstance(outcomes[k], dict) for k in active])
        for _ in range(11):
            trial = est.copy()
            upd = np.repeat(alpha, np.diff(batch.dims) // 3)[:, None] * step.reshape(-1, 3)
            trial[batch.poses, :2] += upd[:, :2]
            trial[batch.poses, 2] = wrap_angle(trial[batch.poses, 2] + upd[:, 2])
            f_new = _objective(trial, batch)
            searching &= ~(f_new <= f_cur + 1e-12)
            if not searching.any():
                break
            alpha[searching] *= 0.5
        est = trial
        for b, k in enumerate(active):
            if not isinstance(outcomes[k], dict):
                continue
            if searching[b]:
                outcomes[k] = DivergenceError(
                    f"objective rose from {f_cur[b]:.6g} with no damping recovery")
                continue
            step_norm = float(np.linalg.norm(alpha[b] * step[batch.span(b)]))
            outcomes[k].update(iterations=it, objective=float(f_new[b]))
            if step_norm < _GN_STEP_TOL:
                outcomes[k]["converged"] = True
        f_cur = f_new
    for k, (*_, rows) in parts.items():
        if isinstance(outcomes[k], dict):
            pgs[k].estimates = est[rows].copy()
    return outcomes


def optimize_pose_graph(pg: SimPoseGraph) -> dict:
    """``optimize_pose_graphs`` on a batch of one: replaces pg.estimates
    and returns the run info, or raises the error that stopped the run."""
    return _one(optimize_pose_graphs([pg])[0])


# -- information and error metrics --------------------------------------


def log_dopt_fims(pgs) -> list:
    """log D-opt of the Gauss-Newton information at each pose graph's
    current estimates, all assembled in one pass; per graph the value, or
    the error that prevented it.

    The information is 1/2 of the summed J^T W J with the anchor removed;
    the value is (1/dim) log det of it, 0 for a single pose.
    """
    outcomes = [0.0 if pg.estimates is not None else
                InputError("optimize or dead-reckon before evaluating the FIM")
                for pg in pgs]
    busy = [k for k, pg in enumerate(pgs) if pg.estimates is not None and pg.pose_count > 1]
    if not busy:
        return outcomes
    est, parts = _stack_batch([pgs[k] for k in busy])
    batch = _Batch(parts)
    data, _ = _assemble(est, batch)
    for b, k in enumerate(busy):
        try:
            _, logdet = _spd_factor(batch.matrix(b, 0.5 * data),
                                    "information matrix is rank-deficient")
        except RankDeficientError as err:
            outcomes[k] = err
            continue
        outcomes[k] = logdet / (3 * (pgs[k].pose_count - 1))
    return outcomes


def log_dopt_fim(pg: SimPoseGraph) -> float:
    """``log_dopt_fims`` on a batch of one: the value, or its error raised."""
    return _one(log_dopt_fims([pg])[0])


def ape_rmse(estimates: np.ndarray, ground_truth: np.ndarray) -> float:
    """RMSE of translational error between anchor-aligned trajectories.

    Both trajectories are expected in the frame fixed by the anchored
    first pose; no rigid fit or re-anchoring is applied, so a uniform
    offset counts in full.
    """
    estimates = np.asarray(estimates, dtype=float)
    ground_truth = np.asarray(ground_truth, dtype=float)
    if estimates.shape != ground_truth.shape:
        raise MismatchError(
            f"trajectory shapes differ: {estimates.shape} vs {ground_truth.shape}"
        )
    err = estimates[:, :2] - ground_truth[:, :2]
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))
