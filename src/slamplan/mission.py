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
and (E,3,3) covariances: each visit makes at most two validated writes,
one of region rows and one of edge rows, and each writes only the rows
whose value is not already current.  The world's hidden edges are listed
once per mission; a visit walks only the ones still pending.

The shortest-path closure is cached per topology, so it is rebuilt only
after connectivity is revealed.  After every loop-closing action the
planner is re-run over the remaining vertices and the better of {existing
remainder, fresh plan} is kept, scored by remaining quality per meter:
both are scored as a vertex sequence, a length and loop factors, and the
log D-opt is ``loops.log_dopt_from_scratch``, the planner's oracle path.
The fresh plan's tour polishes the remainder's own order of unvisited
vertices instead of eight fresh restarts, so it is never longer than the
remainder; the mission's first plan keeps the eight restarts.
Between loop closures, a cheaper fix-up re-solves the segment up to the
next loop anchor as a small TSP whenever an edge has been revealed since
the last fix-up or plan load: the TSP reads closure distances alone, which
covariance writes leave unchanged.

Updates become visible at step boundaries: one goto follows one frozen
shortest path even if coverage during it reveals new edges.

No decision reads a measured value.  Plans, replans, online updates and
fix-ups read covariances, the route and the closure, never a noisy
measurement ``z``, so the seed moves only the noise draws and what is
computed from them: the Gauss-Newton solve, APE and the FIM's D-opt.
Every seed executes the same route, events and plans, and
``replay_mission`` scores a mission's route under other seeds without
deciding it again, all seeds' pose graphs as one lockstep batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graph import PriorGraph, entries_close, metric_closure
from .loops import abstract_pose_graph, log_dopt_from_scratch
from .planner import STRATEGIES, compute_plan
from .sim import (
    MissionMetrics,
    RouteRunner,
    SimPoseGraph,
    WorldModel,
    ape_rmse,
    log_dopt_fim,
    log_dopt_fims,
    optimize_pose_graph,
    optimize_pose_graphs,
    simulate_walk,
)
from .tsp import TourCosts, Walk, solve_fixed_end_tsp, solve_open_tsp

_SCORE_TIE = 1e-9
_DEGENERACY_WINDOW = 5  # pose-graph edges averaged per covered region


def _write_changed(stored, setter, rows, new) -> bool:
    """Write ``new`` to the ``rows`` of a covariance array whose stored value
    is not already close to it, in one validated ``setter`` call; returns
    whether any were.  Close is ``graph.entries_close``, which on the
    finite stored rows equals ``np.isclose``: every entry within
    1e-15 + 1e-5 * |new|."""
    rows = np.asarray(rows, dtype=np.intp)
    stale = ~entries_close(stored[rows], new, 1e-15).all(axis=(1, 2))
    if not stale.any():
        return False
    setter(rows[stale], new[stale])
    return True


@dataclass
class MissionConfig:
    strategy: str = "slam_aware"
    replanning: bool = True
    subpath_optimization: bool = True


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
        self._pending = world.hidden_edges(self.prior)  # hidden edges not yet revealed

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

        The covered vertex averages its nearest edges; the other vertices
        not yet visited fall back to the average over all edges.  Edge
        covariances then track their endpoint regions.  The region rows are
        disjoint, so both go in one batched write, and the edge rows in a
        second; each writes only the rows whose value is not already
        current.  When none is, nothing is written and no event is emitted.
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
        rows = [vi] + [i for i, v in enumerate(prior.ids)
                       if i != vi and v not in self.visited]
        new = np.empty((len(rows), 3, 3))
        new[0] = covs[take].mean(axis=0)
        new[1:] = covs.mean(axis=0)
        changed = _write_changed(prior.region_covs, prior.set_region_covs, rows, new)
        means = prior.pair_covs(prior.edge_ends[:, 0], prior.edge_ends[:, 1])
        changed |= _write_changed(prior.edge_covs, prior.set_edge_covs,
                                  np.arange(len(means)), means)
        if changed:
            self._emit("degeneracy_update", vertex=vertex)

    def connectivity_update(self):
        """Reveal, in world-edge order, the pending hidden edges whose
        endpoints are both visited, and drop them from the pending list."""
        prior = self.prior
        added = []
        pending = []
        for u, v, length in self._pending:
            if u in self.visited and v in self.visited:
                cov = prior.pair_covs(prior.index[u], prior.index[v])
                prior.add_edge(u, v, length=length, cov=cov)
                added.append([u, v])
            else:
                pending.append((u, v, length))
        self._pending = pending
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

        ``apg.factor`` would cover the walk factors alone, so the score is
        ``log_dopt_from_scratch`` over walk and loop factors.  An abstracted
        walk is connected and its weights are positive, so the Laplacian is
        positive-definite.
        """
        seq = self.runner.route + list(extra_seq[1:])
        apg = abstract_pose_graph(Walk(seq, 0.0), self.prior)
        pose = apg.vertex_to_pose
        return log_dopt_from_scratch(apg, [
            (pose[anchor], pose[target], gamma)
            for anchor, target, gamma in self.performed + list(extra_factors)])

    def _remaining_score(self, seq, length, factors):
        """Remaining-quality-per-meter score used to pick between plans:
        ``seq`` and ``length`` are the remaining walk from the current
        vertex, ``factors`` its (anchor, target, gamma) loop factors."""
        log_dopt = self._combined_log_dopt(seq, factors)
        total = self.runner.distance + length
        if total <= 0.0:
            return log_dopt
        return log_dopt - float(np.log(total))

    def _remaining_order(self):
        """The current vertex, then the unvisited vertices in order of first
        appearance in the steps, loop anchors and targets included."""
        ahead = (v for kind, arg in self.steps
                 for v in ((arg,) if kind == "visit" else (arg.anchor, arg.target)))
        return list(dict.fromkeys(
            [self.current, *(v for v in ahead if v not in self.visited)]))

    def replan(self):
        """Re-run the planner over unvisited vertices, its tour polished from
        the remainder's order (``_remaining_order``); keep the better of the
        fresh plan and the existing remainder (ties keep existing)."""
        closure = self.closure()
        unvisited = [v for v in self.prior.ids if v not in self.visited]
        if not unvisited:
            self._emit("replan_rejected", reason="complete")
            return None
        outcome = compute_plan(
            self.prior,
            strategy=self.config.strategy,
            closure=closure,
            include=set(unvisited),
            start=self.current,
            order=self._remaining_order(),
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
        if len(pool) < 3:
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
        info, metrics = score_pose_graph(
            pg,
            self.runner.distance,
            float(np.exp(self._combined_log_dopt([self.current], []))),
            all(p.assumption_ok for p in self.log.plans),
        )
        self.log.pose_graph = pg
        self.log.prior = self.prior
        self.log.optimizer_info = info
        return self.log, metrics


def _metrics(pg: SimPoseGraph, log_dopt: float, total_distance: float,
             dopt_predicted: float, assumption_ok: bool) -> MissionMetrics:
    """A mission's metrics: APE measured on the optimized ``pg``, the FIM's
    D-opt from its ``log_dopt``, and the mission's decisions passed in."""
    return MissionMetrics(
        ape_rmse=ape_rmse(pg.estimates, pg.poses_true),
        total_distance=total_distance,
        pose_count=pg.pose_count,
        mean_degree=pg.mean_degree(),
        dopt_predicted=dopt_predicted,
        dopt_fim=float(np.exp(log_dopt)),
        assumption_ok=assumption_ok,
    )


def score_pose_graph(pg: SimPoseGraph, total_distance: float, dopt_predicted: float,
                     assumption_ok: bool) -> tuple[dict, MissionMetrics]:
    """Optimize an executed route's pose graph and score it: returns the
    optimizer's run info and the mission's metrics.  APE and the FIM's
    D-opt are measured on ``pg``; distance, predicted D-opt and the detour
    audit are the mission's decisions, passed in."""
    info = optimize_pose_graph(pg)
    return info, _metrics(pg, log_dopt_fim(pg), total_distance, dopt_predicted,
                          assumption_ok)


def score_pose_graphs(pgs, total_distance: float, dopt_predicted: float,
                      assumption_ok: bool) -> list:
    """``score_pose_graph``'s metrics of each pose graph of ``pgs``, all
    optimized in one lockstep batch and measured in one more: per graph its
    ``MissionMetrics``, or the error that stopped its optimization or its
    measurement.  A graph that fails does not stop the others."""
    runs = optimize_pose_graphs(pgs)
    fims = log_dopt_fims(pgs)
    scored = []
    for pg, run, fim in zip(pgs, runs, fims):
        if isinstance(run, Exception):
            scored.append(run)
        elif isinstance(fim, Exception):
            scored.append(fim)
        else:
            scored.append(_metrics(pg, fim, total_distance, dopt_predicted, assumption_ok))
    return scored


def run_mission(prior: PriorGraph, world: WorldModel,
                config: MissionConfig | None = None, seed: int = 0):
    """Plan, execute, update online, and score one exploration mission."""
    return Mission(prior, world, config, seed).run()


def replay_mission(route, world: WorldModel, seeds, decided: MissionMetrics) -> list:
    """The metrics ``run_mission`` gives under each of ``seeds`` for a
    mission that executed ``route`` and scored ``decided`` under another
    seed: per seed its ``MissionMetrics``, or the error that stopped its
    scoring.

    No decision reads a measurement, so the mission would execute the same
    route under every seed, and ``simulate_walk`` draws that route's noise
    exactly as the mission's own runner does; only the measured fields
    differ from ``decided``.  The seeds' pose graphs share the route, so
    ``score_pose_graphs`` scores them as one batch.
    """
    return score_pose_graphs([simulate_walk(route, world, seed) for seed in seeds],
                             decided.total_distance, decided.dopt_predicted,
                             decided.assumption_ok)
