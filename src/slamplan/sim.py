"""Graph-world execution of a plan with noisy measurements and SE(2)
pose-graph optimization.

The simulator runs at region granularity: one pose per walk step, placed
at the true vertex position with heading along the direction of motion.
Odometry between consecutive poses is the true relative motion corrupted
by zero-mean Gaussian noise whose covariance averages the two endpoint
regions' degeneracy matrices.  Revisiting a vertex closes a loop against
the earliest pose recorded there.  Optimization is Gauss-Newton with
step-halving damping on the anchored graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    DivergenceError,
    InputError,
    MismatchError,
    RankDeficientError,
)
from .graph import (
    PriorGraph,
    check_spd,
    default_sigma,
    load_prior_graph,
    sigma_matrix,
)
from .se2 import (
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
        missing = [v for v in prior.ids if v not in self.true_graph.index]
        if missing:
            raise MismatchError(f"prior vertex {missing[0]!r} absent from world")

    def hidden_edges(self, prior: PriorGraph) -> list:
        """World edges joining prior vertices that the prior graph lacks."""
        out = []
        for u, v, length in self.true_graph.edges:
            if u in prior.index and v in prior.index and not prior.has_edge(u, v):
                out.append((u, v, length))
        return out

    def to_dict(self) -> dict:
        return {
            "graph": self.true_graph.to_dict(),
            "region_degeneracy": {
                str(v): np.diag(m).tolist() for v, m in self.region_degeneracy.items()
            },
            "loop_closure_sigma": np.diag(self.loop_closure_covariance).tolist(),
        }


def load_world(document, covariance_entries: str = "variance") -> WorldModel:
    """Parse a world document: prior-graph schema under ``graph`` plus
    optional degeneracy and loop-closure noise entries (diagonal form)."""
    if not isinstance(document, dict):
        text = str(document)
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read {text}: {exc}") from None
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from None
    try:
        graph_doc = document["graph"]
    except (KeyError, TypeError):
        raise InputError("world document missing key 'graph'") from None
    graph = load_prior_graph(graph_doc, covariance_entries)
    default = document.get("default_degeneracy")
    degeneracy = {}
    if default is not None:
        base = sigma_matrix(default, covariance_entries)
        degeneracy = {v: base for v in graph.ids}
    by_key = {}  # JSON object keys are strings, so ids 1 and "1" share one
    for v in graph.ids:
        by_key.setdefault(str(v), []).append(v)
    for key, diag in (document.get("region_degeneracy") or {}).items():
        if key not in by_key:
            raise InputError(f"degeneracy entry for unknown vertex {key!r}")
        if len(by_key[key]) > 1:
            first, second = by_key[key][:2]
            raise InputError(
                f"degeneracy entry {key!r} matches both vertex ids {first!r} and {second!r}"
            )
        degeneracy[by_key[key][0]] = sigma_matrix(diag, covariance_entries)
    loop_sigma = document.get("loop_closure_sigma")
    loop_cov = None if loop_sigma is None else sigma_matrix(loop_sigma, covariance_entries)
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
        return {
            "ape_rmse": self.ape_rmse,
            "total_distance": self.total_distance,
            "pose_count": self.pose_count,
            "mean_degree": self.mean_degree,
            "dopt_predicted": self.dopt_predicted,
            "dopt_fim": self.dopt_fim,
            "assumption_ok": self.assumption_ok,
        }


def _sample(rng, cov: np.ndarray) -> np.ndarray:
    if np.trace(cov) <= NOISE_FLOOR_TRACE:
        return np.zeros(3)
    return np.linalg.cholesky(cov) @ rng.standard_normal(3)


def _true_poses(world: WorldModel, route) -> np.ndarray:
    # Heading is the direction of arrival; the first pose turns toward its
    # first motion so a pure chain has constant heading on straight runs.
    g = world.true_graph
    pos = np.array([g.position(v) for v in route])
    poses = np.zeros((len(route), 3))
    poses[:, :2] = pos
    if len(route) > 1:
        head = np.arctan2(np.diff(pos[:, 1]), np.diff(pos[:, 0]))
        poses[1:, 2] = head
        poses[0, 2] = head[0]
    return poses


def simulate_walk(route, world: WorldModel, seed) -> SimPoseGraph:
    """Execute a vertex route step by step; the workhorse behind
    simulate_execution and the mission loop."""
    g = world.true_graph
    for k, (u, v) in enumerate(zip(route[:-1], route[1:])):
        if not g.has_edge(u, v):
            raise MismatchError(f"route step {k}: world has no edge ({u!r}, {v!r})")
    rng = np.random.default_rng(seed)
    poses = _true_poses(world, route)
    odometry = []
    loops = []
    first_at = {}
    for k, v in enumerate(route):
        if k > 0:
            u = route[k - 1]
            cov = 0.5 * (world.degeneracy(u) + world.degeneracy(v))
            z = between(poses[k - 1], poses[k]) + _sample(rng, cov)
            z[2] = wrap_angle(z[2])
            odometry.append((k - 1, k, z, cov))
        if v in first_at:
            cov = world.loop_closure_covariance
            i = first_at[v]
            z = between(poses[i], poses[k]) + _sample(rng, cov)
            z[2] = wrap_angle(z[2])
            loops.append((i, k, z, cov))
        else:
            first_at[v] = k
    pg = SimPoseGraph(poses, list(route), odometry, loops)
    pg.estimates = dead_reckon(pg)
    return pg


def simulate_execution(plan, world: WorldModel, seed) -> SimPoseGraph:
    """Run a plan's walk through the world with seeded noise."""
    return simulate_walk(plan.walk.vertices, world, seed)


def dead_reckon(pg: SimPoseGraph) -> np.ndarray:
    """Initial estimates: compose odometry outward from the anchor."""
    est = np.zeros_like(pg.poses_true)
    est[0] = pg.poses_true[0]
    for i, j, z, _ in pg.odometry:
        est[j] = compose(est[i], z)
    return est


# -- Gauss-Newton optimization ------------------------------------------


def _objective(est, edges) -> float:
    total = 0.0
    for i, j, z, cov in edges:
        e = edge_residual(est[i], est[j], z)
        total += float(e @ np.linalg.solve(cov, e))
    return total


def _assemble(est, edges, dim):
    h = np.zeros((dim, dim))
    grad = np.zeros(dim)
    for i, j, z, cov in edges:
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


def optimize_pose_graph(pg: SimPoseGraph, max_iters: int = 100,
                        tol: float = 1e-10) -> dict:
    """Anchored Gauss-Newton; mutates pg.estimates, returns run info.

    Rejected full steps retry at half length up to 10 times; if even the
    smallest step raises the objective the run is reported as divergent.
    """
    if pg.estimates is None:
        pg.estimates = dead_reckon(pg)
    est = pg.estimates.copy()
    edges = list(pg.all_edges())
    dim = 3 * (pg.pose_count - 1)
    if dim == 0 or not edges:
        pg.estimates = est
        return {"iterations": 0, "converged": True, "objective": 0.0,
                "grad_norm": 0.0}
    f_cur = _objective(est, edges)
    info = {"iterations": 0, "converged": False, "objective": f_cur,
            "grad_norm": np.inf}
    for it in range(1, max_iters + 1):
        h, grad = _assemble(est, edges, dim)
        info["grad_norm"] = float(np.linalg.norm(grad))
        try:
            step = -cho_solve(cho_factor(h, check_finite=False), grad,
                              check_finite=False)
        except np.linalg.LinAlgError:
            raise RankDeficientError("normal equations singular; graph "
                                     "likely disconnected") from None
        alpha = 1.0
        for _ in range(11):
            trial = est.copy()
            upd = alpha * step.reshape(-1, 3)
            trial[1:, :2] += upd[:, :2]
            trial[1:, 2] = wrap_angle(trial[1:, 2] + upd[:, 2])
            f_new = _objective(trial, edges)
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
        if step_norm < tol:
            info["converged"] = True
            break
    h, grad = _assemble(est, edges, dim)
    info["grad_norm"] = float(np.linalg.norm(grad))
    pg.estimates = est
    return info


# -- information and error metrics --------------------------------------


def fim(pg: SimPoseGraph, half: bool = True):
    """Gauss-Newton Hessian at the current estimates, anchor removed.

    Returns (H, dopt) with dopt = det(H)^(1/dim).  ``half`` keeps the 1/2
    in front of the sum; dropping it rescales values, never rankings.
    """
    if pg.estimates is None:
        raise InputError("optimize or dead-reckon before evaluating the FIM")
    dim = 3 * (pg.pose_count - 1)
    if dim == 0:
        return np.zeros((0, 0)), 1.0
    h, _ = _assemble(pg.estimates, list(pg.all_edges()), dim)
    if half:
        h = 0.5 * h
    sign, logdet = np.linalg.slogdet(h)
    if sign <= 0:
        raise RankDeficientError("information matrix is rank-deficient")
    return h, float(np.exp(logdet / dim))


def log_dopt_fim(pg: SimPoseGraph, half: bool = True) -> float:
    dim = 3 * (pg.pose_count - 1)
    if dim == 0:
        return 0.0
    h, _ = _assemble(pg.estimates, list(pg.all_edges()), dim)
    if half:
        h = 0.5 * h
    sign, logdet = np.linalg.slogdet(h)
    if sign <= 0:
        raise RankDeficientError("information matrix is rank-deficient")
    return float(logdet / dim)


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
