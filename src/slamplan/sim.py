"""Graph-world execution of a plan with noisy measurements and SE(2)
pose-graph optimization.

The simulator runs at region granularity: one pose per walk step, placed
at the true vertex position with heading along the direction of motion.
Odometry between consecutive poses is the true relative motion corrupted
by zero-mean Gaussian noise whose covariance averages the two endpoint
regions' degeneracy matrices.  Revisiting a vertex closes a loop against
the earliest pose recorded there.  ``route_edges`` derives a route's
edges and covariances without a seed; ``simulate_walks``, the one
measurement generator, measures a route for a batch of seeds.  A pose
graph is its route's stacked measurements: (K,2) edge ends, (K,3)
measurements and (K,3,3) covariances, and the seeds of one route share
its ends and covariances.
Optimization is Gauss-Newton with step-halving damping on the anchored
graph, run in lockstep over the pose graphs of one route; a single graph
is a batch of one.  The anchored normal equations are sparse: their
pattern is built once per batch, and each iteration sums the entries of
every graph still running in compressed-column form with one
``np.bincount`` and scores each round of their line searches in one
objective call.  ``laplacian._spd_factor`` factors each graph's own matrix
with SuperLU in a fill-reducing symmetric order, which also gives the
information matrix's log det, so a graph's results are those it gets
alone, and a graph that fails leaves the batch without stopping the
others.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse import csc_matrix

from .errors import (
    CovarianceError,
    DivergenceError,
    InputError,
    MismatchError,
    RankDeficientError,
)
from .graph import (
    PriorGraph,
    _as_dict,
    _floats,
    check_spd,
    check_spd_batch,
    default_sigma,
    load_prior_graph,
    sigma_matrix,
)
from .laplacian import _anchored_pattern, _spd_factor
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
        regions = np.tile(default_sigma(), (len(true_graph.ids), 1, 1))
        region_degeneracy = {} if region_degeneracy is None else region_degeneracy
        if not isinstance(region_degeneracy, dict):
            raise InputError("region degeneracy must map vertices to covariances, "
                             f"got {type(region_degeneracy).__name__}")
        for v, mat in region_degeneracy.items():
            if v not in true_graph.index:
                raise InputError(f"degeneracy entry for unknown vertex {v!r}")
            mat = _floats(mat, f"degeneracy of {v!r}")
            if mat.shape != (3, 3):
                raise CovarianceError(
                    f"degeneracy of {v!r}: covariance must be 3x3, got {mat.shape}")
            regions[true_graph.index[v]] = mat
        # (V,3,3) degeneracy by true_graph.index, as PriorGraph.region_covs
        self.region_covs = check_spd_batch(
            regions, lambda k: f"degeneracy of {true_graph.ids[k]!r}")
        if loop_closure_covariance is None:
            loop_closure_covariance = np.diag(DEFAULT_LOOP_SIGMA)
        self.loop_closure_covariance = check_spd(
            _floats(loop_closure_covariance, "loop closure covariance"), "loop closure")

    def degeneracy(self, v) -> np.ndarray:
        return self.region_covs[self.true_graph.index[v]]

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
    """Ground truth, measurements and estimates of one executed route.

    The measurements are stacked in ``route_edges`` order: the P-1
    odometry rows (i, i+1) first, then the loop closures (i, j), i < j, i
    the earliest pose at the vertex.  The graphs that ``simulate_walks``
    gives for one route share its read-only ``poses_true``, ``ends`` and
    ``covs``.
    """

    poses_true: np.ndarray  # (P,3)
    vertex_of_pose: list
    ends: np.ndarray  # (K,2) pose indices
    z: np.ndarray  # (K,3)
    covs: np.ndarray  # (K,3,3)
    estimates: np.ndarray = field(default=None)

    @property
    def pose_count(self) -> int:
        return len(self.poses_true)

    @property
    def edge_count(self) -> int:
        return len(self.ends)

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


def route_edges(route, world: WorldModel):
    """Seed-free edges of the pose graph of a vertex ``route``, one pose per
    entry: (K,2) ends (i, j) and (K,3,3) covariances, odometry then loops.
    Odometry takes 0.5 * (D_u + D_v) of its regions; a revisit closes a loop
    against the earliest pose at its vertex, with the loop covariance."""
    at = np.array([world.true_graph.index[v] for v in route], dtype=np.intp)
    _, first, seen = np.unique(at, return_index=True, return_inverse=True)
    earliest, poses = first[seen], np.arange(len(at))
    closing = poses[earliest < poses]
    ends = np.concatenate([np.stack([poses[:-1], poses[1:]], 1),
                           np.stack([earliest[closing], closing], 1)])
    covs = np.concatenate([
        0.5 * (world.region_covs[at[:-1]] + world.region_covs[at[1:]]),
        np.broadcast_to(world.loop_closure_covariance, (len(closing), 3, 3)),
    ])
    return ends, covs


def simulate_walks(route, world: WorldModel, seeds) -> list:
    """One ``SimPoseGraph`` of a vertex ``route`` per seed of ``seeds``,
    estimates dead-reckoned.  The steps are validated, and the true poses
    (heading along the motion in), true motions and noise factors computed,
    once per route.  A measurement is its true motion plus Cholesky-factored
    noise, angle wrapped; a seed draws its noise in one ``standard_normal``
    call, three values per measurement in stream order (per step its
    odometry, then its loop closure), none at the noise floor."""
    route = list(route)
    if not route:
        raise InputError("route is empty")
    g = world.true_graph
    for k, (u, v) in enumerate(zip(route[:-1], route[1:])):
        if not g.has_edge(u, v):
            raise MismatchError(f"route step {k}: world has no edge ({u!r}, {v!r})")
    seeds = [_check_seed(seed) for seed in seeds]
    if route[0] not in g.index:
        raise MismatchError(f"start vertex {route[0]!r} absent from world")
    poses = np.zeros((len(route), 3))
    poses[:, :2] = g.positions[[g.index[v] for v in route]]
    step = np.diff(poses[:, :2], axis=0)
    poses[1:, 2] = np.arctan2(step[:, 1], step[:, 0])
    poses[0, 2] = poses[1, 2] if len(route) > 1 else 0.0
    ends, covs = route_edges(route, world)
    motion = between(poses[ends[:, 0]], poses[ends[:, 1]])
    stream = np.argsort(ends[:, 1], kind="stable")  # odometry before loop per step
    noisy = stream[np.trace(covs, axis1=1, axis2=2)[stream] > NOISE_FLOOR_TRACE]
    chol = np.linalg.cholesky(covs[noisy])
    noise = np.zeros((len(seeds), len(ends), 3))
    for s, seed in enumerate(seeds):
        draws = np.random.default_rng(seed).standard_normal((len(noisy), 3))
        noise[s, noisy] = (chol @ draws[..., None])[..., 0]
    z = motion + noise
    z[..., 2] = wrap_angle(z[..., 2])
    est = _dead_reckoned(poses[0], z[:, :len(route) - 1])
    for shared in (poses, ends, covs):
        shared.setflags(write=False)
    return [SimPoseGraph(poses, list(route), ends, zs, covs, e) for zs, e in zip(z, est)]


def simulate_walk(route, world: WorldModel, seed) -> SimPoseGraph:
    """``simulate_walks`` on a batch of one seed."""
    return simulate_walks(route, world, [seed])[0]


def _dead_reckoned(anchor, odometry) -> np.ndarray:
    """(S,P,3) estimates of S graphs from their (S,P-1,3) ``odometry``
    measurements, composed outward from the ``anchor`` pose, one
    ``compose`` per step for all graphs at once."""
    est = np.empty((len(odometry), odometry.shape[1] + 1, 3))
    est[:, 0] = anchor
    for k in range(odometry.shape[1]):
        est[:, k + 1] = compose(est[:, k], odometry[:, k])
    return est


def dead_reckon(pg: SimPoseGraph) -> np.ndarray:
    """Initial estimates: compose odometry outward from the anchor."""
    return _dead_reckoned(pg.poses_true[0], pg.z[None, :pg.pose_count - 1])[0]


# -- Gauss-Newton optimization ------------------------------------------


def _normal_pattern(ends, n: int):
    """Pattern of the anchored normal equations of the edges ``ends`` over
    n non-anchor poses, which holds for every estimate: the
    ``_anchored_pattern`` of 3x3 blocks, then the (K,2) mask of free
    (non-anchor) ends and the gradient row of each of their entries."""
    free = ends > 0
    grad_rows = (3 * (ends[..., None] - 1) + np.arange(3))[free].ravel()
    return (*_anchored_pattern(ends, n, 3), free, grad_rows)


def _matrix(data, pattern):
    """The CSC matrix of one graph's slot ``data`` on ``pattern``, sharing
    its ``indices`` and ``indptr``."""
    indices, indptr = pattern[2:4]
    dim = len(indptr) - 1
    return csc_matrix((data, indices, indptr), shape=(dim, dim))


def _route_of(pgs):
    """The (K,2) ``ends`` and pose count that the pose graphs ``pgs`` share,
    none for no graph; an ``InputError`` if they measure more than one
    route."""
    ends, poses = (pgs[0].ends, pgs[0].pose_count) if pgs else (None, 0)
    for pg in pgs[1:]:
        if pg.pose_count != poses or not np.array_equal(pg.ends, ends):
            raise InputError("a batch takes the pose graphs of one route")
    return ends, poses


def _stack_fields(pgs, *fields):
    """Each named field of the pose graphs ``pgs``, stacked along a new
    first axis."""
    return [np.stack([getattr(pg, name) for pg in pgs]) for name in fields]


def _objective(est, ends, z, covs) -> np.ndarray:
    """Each graph's sum of e^T cov^-1 e at its estimates, for S graphs of
    one route: (S,P,3) ``est``, (S,K,3) ``z`` and (S,K,3,3) ``covs``.  The
    terms are added in edge order from 0.0, as a per-edge loop would: a
    graph's terms fill its row after a leading 0.0, and
    ``np.add.accumulate`` adds along the row one term at a time
    (``np.sum`` adds pairwise, which changes the last bits)."""
    e = edge_residual(est[:, ends[:, 0]].reshape(-1, 3), est[:, ends[:, 1]].reshape(-1, 3),
                      z.reshape(-1, 3))[..., None]
    terms = np.zeros((len(est), len(ends) + 1))
    terms[:, 1:] = (_t(e) @ np.linalg.solve(covs.reshape(-1, 3, 3), e)).reshape(len(est), -1)
    return np.add.accumulate(terms, axis=1)[:, -1]


def _assemble(est, ends, z, w, pattern):
    """Gauss-Newton ``H`` entries and gradients, anchors removed, of S
    graphs of one route at their (S,P,3) ``est``, with (S,K,3) ``z``,
    (S,K,3,3) inverse covariances ``w`` and the route's ``_normal_pattern``:
    the (S,nnz) slot data of each graph's ``H`` and its (S,dim) gradient.

    Graph s owns the slots and rows offset by s times their count, so one
    ``np.bincount`` sums every graph's entries, and adds those of each
    slot in edge order from 0.0, as a per-edge loop into a dense ``H``
    would.
    """
    keep, slot, indices, indptr, free, grad_rows = pattern
    graphs, nnz, dim = len(est), len(indices), len(indptr) - 1
    xi, xj = est[:, ends[:, 0]].reshape(-1, 3), est[:, ends[:, 1]].reshape(-1, 3)
    z = z.reshape(-1, 3)
    e = edge_residual(xi, xj, z)[..., None]
    a, b = edge_jacobians(xi, xj, z)
    w = w.reshape(-1, 3, 3)
    wa, wb, we = w @ a, w @ b, w @ e
    at, bt = _t(a), _t(b)
    blocks = np.stack([at @ wa, bt @ wb, at @ wb, bt @ wa], 1)  # (S*K,4,3,3)
    offset = np.arange(graphs)[:, None]
    data = np.bincount((slot + offset * nnz).ravel(),
                       weights=blocks.reshape(graphs, -1, 4, 3, 3)[:, keep].ravel(),
                       minlength=graphs * nnz)
    g = np.stack([at @ we, bt @ we], 1)[..., 0]  # (S*K,2,3), rows i then j
    grad = np.bincount((grad_rows + offset * dim).ravel(),
                       weights=g.reshape(graphs, -1, 2, 3)[:, free].ravel(),
                       minlength=graphs * dim)
    return data.reshape(graphs, nnz), grad.reshape(graphs, dim)


def _one(outcome):
    """The outcome of a batch of one: its value, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def optimize_pose_graphs(pgs) -> list:
    """Anchored Gauss-Newton on each pose graph of ``pgs``, in lockstep;
    returns per graph its run info, or the error that stopped it.  The
    graphs measure one route (``simulate_walks``), or an ``InputError`` is
    raised.

    Each iteration assembles every running graph in one pass on the
    route's pattern, factors each graph's own matrix, and scores each
    round of the line searches in one objective call.  A graph leaves the
    batch when it converges or fails, and the others go on: each graph
    takes the steps, and ends with the estimates, info or error, that it
    would alone.  A graph's estimates are replaced unless it fails.

    Rejected full steps retry at half length up to 10 times; if even the
    smallest step raises the objective the graph fails with a
    ``DivergenceError``, and singular normal equations fail it with a
    ``RankDeficientError``.  ``grad_norm`` is the gradient norm at the last
    linearization, the one before the last step.
    """
    ends, poses = _route_of(pgs)
    for pg in pgs:
        if pg.estimates is None:
            pg.estimates = dead_reckon(pg)
    if poses < 2 or not len(ends):
        return [{"iterations": 0, "converged": True, "objective": 0.0, "grad_norm": 0.0}
                for _ in pgs]
    pattern = _normal_pattern(ends, poses - 1)
    est, z, covs = _stack_fields(pgs, "estimates", "z", "covs")
    w = np.linalg.inv(covs)
    f_cur = _objective(est, ends, z, covs)
    outcomes = [{"iterations": 0, "converged": False, "objective": float(f)} for f in f_cur]
    active = np.arange(len(pgs))
    for it in range(1, _GN_MAX_ITERS + 1):
        running = np.array([isinstance(outcomes[k], dict) and not outcomes[k]["converged"]
                            for k in active])
        active, f_cur = active[running], f_cur[running]
        if not len(active):
            break
        z_run, covs_run = z[active], covs[active]
        data, grad = _assemble(est[active], ends, z_run, w[active], pattern)
        step = np.zeros_like(grad)  # a graph that fails here keeps still
        for b, k in enumerate(active):
            outcomes[k]["grad_norm"] = float(np.linalg.norm(grad[b]))
            try:
                lu, _ = _spd_factor(_matrix(data[b], pattern),
                                    "normal equations singular; graph likely disconnected")
            except RankDeficientError as err:
                outcomes[k] = err
                continue
            step[b] = -lu.solve(grad[b])
        alpha = np.ones(len(active))
        searching = np.array([isinstance(outcomes[k], dict) for k in active])
        for _ in range(11):
            trial = est[active]
            upd = alpha[:, None, None] * step.reshape(len(active), -1, 3)
            trial[:, 1:, :2] += upd[..., :2]
            trial[:, 1:, 2] = wrap_angle(trial[:, 1:, 2] + upd[..., 2])
            f_new = _objective(trial, ends, z_run, covs_run)
            searching &= ~(f_new <= f_cur + 1e-12)
            if not searching.any():
                break
            alpha[searching] *= 0.5
        est[active] = trial
        for b, k in enumerate(active):
            if not isinstance(outcomes[k], dict):
                continue
            if searching[b]:
                outcomes[k] = DivergenceError(
                    f"objective rose from {f_cur[b]:.6g} with no damping recovery")
                continue
            step_norm = float(np.linalg.norm(alpha[b] * step[b]))
            outcomes[k].update(iterations=it, objective=float(f_new[b]))
            if step_norm < _GN_STEP_TOL:
                outcomes[k]["converged"] = True
        f_cur = f_new
    for pg, outcome, mine in zip(pgs, outcomes, est):
        if isinstance(outcome, dict):
            pg.estimates = mine
    return outcomes


def optimize_pose_graph(pg: SimPoseGraph) -> dict:
    """``optimize_pose_graphs`` on a batch of one: replaces pg.estimates
    and returns the run info, or raises the error that stopped the run."""
    return _one(optimize_pose_graphs([pg])[0])


# -- information and error metrics --------------------------------------


def log_dopt_fims(pgs) -> list:
    """log D-opt of the Gauss-Newton information at each pose graph's
    current estimates, all assembled in one pass; per graph the value, or
    the error that prevented it.  The graphs measure one route, or an
    ``InputError`` is raised.

    The information is 1/2 of the summed J^T W J with the anchor removed;
    the value is (1/dim) log det of it, 0 for a single pose.
    """
    outcomes = [0.0 if pg.estimates is not None else
                InputError("optimize or dead-reckon before evaluating the FIM")
                for pg in pgs]
    ends, poses = _route_of(pgs)
    busy = [k for k, pg in enumerate(pgs) if pg.estimates is not None]
    if not busy or poses < 2:
        return outcomes
    pattern = _normal_pattern(ends, poses - 1)
    est, z, covs = _stack_fields([pgs[k] for k in busy], "estimates", "z", "covs")
    data, _ = _assemble(est, ends, z, np.linalg.inv(covs), pattern)
    for b, k in enumerate(busy):
        try:
            _, logdet = _spd_factor(_matrix(0.5 * data[b], pattern),
                                    "information matrix is rank-deficient")
        except RankDeficientError as err:
            outcomes[k] = err
            continue
        outcomes[k] = logdet / (3 * (poses - 1))
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
