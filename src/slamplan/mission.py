"""Hierarchical mission execution over a live prior graph.

The executor follows a plan step by step: visit steps send the robot to
the next unvisited goal along the current shortest path (already-visited
goals are skipped), loop-close steps detour to the target vertex and
back.  As regions are covered the prior graph is updated online: region
degeneracy matrices are re-estimated from nearby pose-graph edge
covariances, hidden world connectivity is revealed once both endpoints
have been seen, and edge covariances track their endpoint regions.  A
revealed or tracked edge takes ``PriorGraph.pair_covs`` of its endpoints,
the one endpoint-mean rule the planner's candidates use too.  The
covariance updates are array operations over the prior's stacked (V,3,3)
and (E,3,3) covariances that write, in one validated batch each, only the
rows whose value is not already current.

The shortest-path closure is cached per topology, so it is rebuilt only
after connectivity is revealed.  After every loop-closing action the
planner is re-run over the remaining vertices and the better of {existing
remainder, fresh plan} is kept, scored by remaining quality per meter:
both are scored as a vertex sequence, a length and loop factors, and the
log-det is ``log_det_from_scratch``, the planner's oracle path.
Between loop closures, a cheaper fix-up re-solves the segment up to the
next loop anchor as a small TSP whenever an edge has been revealed since
the last fix-up or plan load: the TSP reads closure distances alone, which
covariance writes leave unchanged.

Updates become visible at step boundaries: one goto follows one frozen
shortest path even if coverage during it reveals new edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graph import PriorGraph, metric_closure
from .laplacian import log_det_from_scratch
from .loops import abstract_pose_graph
from .planner import STRATEGIES, compute_plan
from .sim import (
    MissionMetrics,
    RouteRunner,
    SimPoseGraph,
    WorldModel,
    ape_rmse,
    log_dopt_fim,
    optimize_pose_graph,
)
from .tsp import TourCosts, Walk, solve_fixed_end_tsp, solve_open_tsp

_SCORE_TIE = 1e-9
_DEGENERACY_WINDOW = 5  # pose-graph edges averaged per covered region


def _write_changed(stored, setter, rows, new) -> bool:
    """Write ``new`` to the ``rows`` of a covariance array whose stored value
    is not already close to it; returns whether any were.  Close is
    ``np.isclose``: every entry within 1e-15 + 1e-5 * |new|."""
    rows = np.asarray(rows, dtype=np.intp)
    stale = ~np.isclose(stored[rows], new, atol=1e-15).all(axis=(1, 2))
    if stale.any():
        setter(rows[stale], new[stale])
    return bool(stale.any())


@dataclass
class MissionConfig:
    strategy: str = "slam_aware"
    replanning: bool = True
    subpath_optimization: bool = True
    pruning: bool = True


@dataclass
class MissionLog:
    seed: int
    strategy: str
    events: list = field(default_factory=list)
    plans: list = field(default_factory=list)
    pose_graph: SimPoseGraph = None
    prior: PriorGraph = None
    optimizer_info: dict = field(default_factory=dict)


class Mission:
    """Mutable mission state; ``run()`` drives it to completion."""

    def __init__(self, prior: PriorGraph, world: WorldModel,
                 config: MissionConfig | None = None, seed: int = 0):
        self.config = config or MissionConfig()
        if self.config.strategy not in STRATEGIES:
            raise InputError(f"unknown strategy {self.config.strategy!r}")
        world.check_prior(prior)
        self.world = world
        self.prior = prior.copy()
        self.seed = seed
        self.runner = RouteRunner(world, self.prior.start, seed)
        self.current = self.prior.start
        self.visited = {self.current}
        self.performed = []  # (anchor, target, gamma) of executed loop actions
        self.steps = deque()
        self.log = MissionLog(seed=seed, strategy=self.config.strategy)
        self._closure = None
        self._subpath_topology = None  # topology at the last fix-up or plan load

    # -- bookkeeping ----------------------------------------------------

    def closure(self):
        if self._closure is None or not self._closure.fresh():
            self._closure = metric_closure(self.prior)
        return self._closure

    def _emit(self, event, **fields):
        rec = {"event": event}
        rec.update(fields)
        self.log.events.append(rec)

    def _load_program(self, plan):
        self.steps = deque()
        self._subpath_topology = self.prior.topology_revision
        by_pos = {}
        for a in plan.actions:
            by_pos.setdefault(a.position, []).append(a)
        for idx, v in enumerate(plan.tsp_walk.vertices):
            if idx > 0:
                self.steps.append(("visit", v))
            for a in by_pos.get(idx, ()):
                self.steps.append(("loop", a))

    # -- online prior updates -------------------------------------------

    def degeneracy_update(self, vertex):
        """Refresh region matrices from nearby pose-graph edge covariances.

        The covered vertex averages its nearest edges; vertices not yet
        visited fall back to the average over all edges.  Edge covariances
        then track their endpoint regions.  Each of the three steps is one
        batched write of the rows whose value is not already current; when
        none is, nothing is written and no event is emitted.
        """
        edges = self.runner.odometry + self.runner.loops
        if not edges:
            return
        prior = self.prior
        at = prior.positions[[prior.index[v] for v in self.runner.route]]
        ends = np.array([(i, j) for i, j, _, _ in edges])
        mids = 0.5 * (at[ends[:, 0]] + at[ends[:, 1]])
        covs = np.stack([c for _, _, _, c in edges])
        vi = prior.index[vertex]
        d2 = np.sum((mids - prior.positions[vi]) ** 2, axis=1)
        take = np.argsort(d2, kind="stable")[:_DEGENERACY_WINDOW]
        changed = _write_changed(prior.region_covs, prior.set_region_covs,
                                 [vi], covs[take].mean(axis=0)[None])
        unvisited = [prior.index[v] for v in prior.ids if v not in self.visited]
        changed |= _write_changed(
            prior.region_covs, prior.set_region_covs, unvisited,
            np.broadcast_to(covs.mean(axis=0), (len(unvisited), 3, 3)))
        means = prior.pair_covs(prior.edge_ends[:, 0], prior.edge_ends[:, 1])
        changed |= _write_changed(prior.edge_covs, prior.set_edge_covs,
                                  np.arange(len(means)), means)
        if changed:
            self._emit("degeneracy_update", vertex=vertex)

    def connectivity_update(self):
        """Reveal hidden world edges whose endpoints are both visited."""
        prior = self.prior
        added = []
        for u, v, length in self.world.hidden_edges(prior):
            if u in self.visited and v in self.visited:
                cov = prior.pair_covs(prior.index[u], prior.index[v])
                prior.add_edge(u, v, length=length, cov=cov)
                added.append([u, v])
        if added:
            self._emit("connectivity_update", edges=added)
        return added

    # -- movement -------------------------------------------------------

    def _arrive(self, v):
        if v not in self.visited:
            self.visited.add(v)
            self._emit("visit", vertex=v)
            self.degeneracy_update(v)
            self.connectivity_update()

    def _goto(self, v):
        """Move along the current shortest path; covers en-route vertices."""
        if v == self.current:
            return
        path = self.closure().path(self.current, v)
        for nxt in path[1:]:
            self.runner.move(nxt)
            self.current = nxt
            self._arrive(nxt)

    # -- replanning and sub-path fix-up ---------------------------------

    def _project_remaining(self, steps, closure):
        """Geometric projection of a step list from the current vertex.

        Returns (vertex sequence, length, loop factors).  Visited goals
        are dropped, matching the skip rule; loop steps expand to
        anchor -> target -> anchor under the current closure.
        """
        seq = [self.current]
        length = 0.0
        factors = []
        cur = self.current
        for kind, arg in steps:
            if kind == "visit":
                if arg in self.visited or arg == cur:
                    continue
                seq.extend(closure.path(cur, arg)[1:])
                length += closure.dist(cur, arg)
                cur = arg
            else:
                if cur != arg.anchor:
                    seq.extend(closure.path(cur, arg.anchor)[1:])
                    length += closure.dist(cur, arg.anchor)
                    cur = arg.anchor
                seq.extend(closure.path(cur, arg.target)[1:])
                seq.extend(closure.path(arg.target, cur)[1:])
                length += 2.0 * closure.dist(cur, arg.target)
                factors.append((arg.anchor, arg.target, arg.gamma))
        return seq, length, factors

    def _combined_log_dopt(self, extra_seq, extra_factors):
        """log D-opt of the abstracted Laplacian over executed + projected
        coverage, including performed and pending loop factors.

        ``apg.factor`` would cover the walk factors alone, so the log-det
        comes from ``log_det_from_scratch`` over walk and loop factors.  An
        abstracted walk is connected and its weights are positive, so the
        Laplacian is positive-definite.
        """
        seq = self.runner.route + list(extra_seq[1:])
        apg = abstract_pose_graph(Walk(seq, 0.0), self.prior)
        if apg.n == 0:
            return 0.0
        factors = list(apg.weighted_edges)
        for anchor, target, gamma in self.performed + list(extra_factors):
            i, j = apg.vertex_to_pose[anchor], apg.vertex_to_pose[target]
            factors.append((max(i, j), min(i, j), gamma))
        return log_det_from_scratch(apg.n, factors) / apg.n

    def _remaining_score(self, seq, length, factors):
        """Remaining-quality-per-meter score used to pick between plans:
        ``seq`` and ``length`` are the remaining walk from the current
        vertex, ``factors`` its (anchor, target, gamma) loop factors."""
        log_dopt = self._combined_log_dopt(seq, factors)
        total = self.runner.distance + length
        if total <= 0.0:
            return log_dopt
        return log_dopt - float(np.log(total))

    def replan(self):
        """Re-run the planner over unvisited vertices; keep the better of
        the fresh plan and the existing remainder (ties keep existing)."""
        closure = self.closure()
        unvisited = [v for v in self.prior.ids if v not in self.visited]
        if not unvisited:
            self._emit("replan_rejected", reason="complete")
            return None
        outcome = compute_plan(
            self.prior,
            strategy=self.config.strategy,
            pruning=self.config.pruning,
            closure=closure,
            include=set(unvisited),
            start=self.current,
        )
        plan = outcome.plan
        existing = self._remaining_score(*self._project_remaining(self.steps, closure))
        fresh = self._remaining_score(
            plan.walk.vertices, plan.walk.length,
            [(a.anchor, a.target, a.gamma) for a in plan.actions])
        if fresh > existing + _SCORE_TIE:
            self._load_program(plan)
            self.log.plans.append(plan)
            self._emit("replan_accepted", score=fresh, previous=existing)
            return plan
        self._emit("replan_rejected", score=fresh, previous=existing)
        return None

    def optimize_subpath(self):
        """Re-solve the segment up to the next loop anchor as a small TSP;
        adopt the new order only if strictly shorter."""
        closure = self.closure()
        prefix = []
        loop_step = None
        for kind, arg in self.steps:
            if kind == "loop":
                loop_step = arg
                break
            prefix.append(arg)
        goals = []
        for v in prefix:
            if v not in self.visited and v not in goals and v != self.current:
                goals.append(v)
        end = loop_step.anchor if loop_step is not None else None
        pool = set(goals) | {self.current}
        if end is not None:
            pool.add(end)
        if len(pool) < 3 or (end is not None and len(pool - {self.current, end}) == 0):
            return False
        costs = TourCosts(closure, include=pool, start=self.current)
        old_order = [self.current] + [v for v in goals if v != end]
        if end is not None:
            old_order.append(end)
        old_len = sum(
            closure.dist(a, b) for a, b in zip(old_order[:-1], old_order[1:])
        )
        if end is None:
            tour = solve_open_tsp(costs)
        else:
            tour = solve_fixed_end_tsp(costs, end)
        if tour.length < old_len - _SCORE_TIE:
            rebuilt = deque(("visit", v) for v in tour.order[1:])
            drop = len(prefix) + (0 if loop_step is None else 1)
            rest = list(self.steps)[drop:]
            if loop_step is not None:
                rebuilt.append(("loop", loop_step))
            rebuilt.extend(rest)
            self.steps = rebuilt
            self._emit("subpath_optimized", saved=old_len - tour.length)
            return True
        return False

    # -- main loop ------------------------------------------------------

    def run(self):
        closure = self.closure()
        outcome = compute_plan(
            self.prior,
            strategy=self.config.strategy,
            pruning=self.config.pruning,
            closure=closure,
        )
        self.log.plans.append(outcome.plan)
        self._load_program(outcome.plan)
        self._emit("visit", vertex=self.current)
        while self.steps:
            if (
                self.config.subpath_optimization
                and self.prior.topology_revision != self._subpath_topology
            ):
                self._subpath_topology = self.prior.topology_revision
                self.optimize_subpath()
            kind, arg = self.steps.popleft()
            if kind == "visit":
                if arg in self.visited:
                    if arg != self.current:
                        self._emit("skip", vertex=arg)
                    continue
                self._goto(arg)
            else:
                self._goto(arg.anchor)
                one_way = self.closure().dist(self.current, arg.target)
                self._goto(arg.target)
                self._goto(arg.anchor)
                self.performed.append((arg.anchor, arg.target, arg.gamma))
                self._emit(
                    "loop_close",
                    anchor=arg.anchor,
                    target=arg.target,
                    distance=one_way,
                    omega_planned=arg.omega,
                )
                if self.config.replanning:
                    self.replan()
        return self.finish()

    def finish(self):
        pg = self.runner.pose_graph()
        info = optimize_pose_graph(pg)
        self.log.pose_graph = pg
        self.log.prior = self.prior
        self.log.optimizer_info = info
        metrics = MissionMetrics(
            ape_rmse=ape_rmse(pg.estimates, pg.poses_true),
            total_distance=self.runner.distance,
            pose_count=pg.pose_count,
            mean_degree=pg.mean_degree(),
            dopt_predicted=float(np.exp(self._combined_log_dopt([self.current], []))),
            dopt_fim=float(np.exp(log_dopt_fim(pg))),
            assumption_ok=all(p.assumption_ok for p in self.log.plans),
        )
        return self.log, metrics


def run_mission(prior: PriorGraph, world: WorldModel,
                config: MissionConfig | None = None, seed: int = 0):
    """Plan, execute, update online, and score one exploration mission."""
    return Mission(prior, world, config, seed).run()
