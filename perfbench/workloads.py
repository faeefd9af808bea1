"""Workload inputs, operations and output checks.

Each workload builds a fixed pool of inputs from the workload seed; one
operation is one public-API call on one pool entry.  ``run`` is the only
timed part.  ``check`` validates the output, returns the digest of its
deterministic bytes and the quality figures the end-to-end metrics average.
Importing this module imports slamplan, so the import is part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slamplan import bench, mission, planner
from slamplan.bench import GridGraphSpec, _connected, gen_grid_graph
from slamplan.graph import DEFAULT_SIGMA_DIAG, PriorGraph, load_prior_graph
from slamplan.loops import score_from_scratch
from slamplan.sim import WorldModel, load_world

# Largest accepted |incremental log objective - score_from_scratch|.
SCORE_DRIFT_TOL = 1e-9
# Relative tolerance between a walk's stored length and its summed edges.
LENGTH_RTOL = 1e-9

ENVS = Path(planner.__file__).resolve().parent / "envs"


@dataclass
class Checked:
    digest: str
    problems: list
    quality: dict = field(default_factory=dict)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _instance_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def check_plan(graph: PriorGraph, outcome) -> list:
    """Problems with one slam_aware plan over every vertex of ``graph``."""
    plan = outcome.plan
    walk = plan.walk.vertices
    problems = []
    if walk[0] != graph.start:
        problems.append(f"walk starts at {walk[0]!r}, not {graph.start!r}")
    steps = list(zip(walk[:-1], walk[1:]))
    missing = [(a, b) for a, b in steps if not graph.has_edge(a, b)]
    if missing:
        problems.append(f"walk step {missing[0]!r} is not a prior edge")
        return problems
    uncovered = set(graph.ids) - set(walk)
    if uncovered:
        problems.append(f"{len(uncovered)} vertices not covered")
    summed = sum(graph.edge_length(a, b) for a, b in steps)
    if not math.isclose(summed, plan.walk.length, rel_tol=LENGTH_RTOL):
        problems.append(f"walk length {plan.walk.length} != summed edges {summed}")
    if not plan.assumption_ok:
        problems.append("plan exceeds twice the base tour")
    drift = score_drift(outcome.apg, outcome.greedy)
    if not drift <= SCORE_DRIFT_TOL:
        problems.append(f"score drift {drift:.3g} above {SCORE_DRIFT_TOL}")
    return problems


def score_drift(apg, greedy) -> float:
    """|incremental log objective - dense from-scratch score| of one greedy run."""
    oracle = score_from_scratch(apg, greedy.selected, greedy.plan.d_tsp)
    return abs(greedy.log_objective - oracle)


class PlanGrid20:
    """compute_plan(slam_aware, pruning) on jittered 20x20 grid graphs."""

    name = "plan-grid20"
    pool_size = 8
    trace_ops = 3
    units = 1  # work units per operation: one plan

    def __init__(self, seed: int):
        self.graphs = [
            gen_grid_graph(GridGraphSpec(width=20.0, height=20.0, seed=s))
            for s in _instance_seeds(seed, self.pool_size)
        ]

    def run(self, k: int, workers: int):
        return planner.compute_plan(self.graphs[k], strategy="slam_aware",
                                    pruning=True)

    def check(self, k: int, outcome) -> Checked:
        plan = outcome.plan
        return Checked(
            _sha(json.dumps(plan.to_dict(), sort_keys=True)),
            check_plan(self.graphs[k], outcome),
            {"distance_m": plan.base_distance, "dopt_per_m": plan.objective},
        )


def grid_world(seed: int):
    """(prior, world) pair on a 12x12 grid: the world keeps every generated
    edge and draws a log-normal degeneracy per region and axis; the prior
    hides about 5% of the edges, each a non-bridge when removed."""
    rng = np.random.default_rng(seed)
    true = gen_grid_graph(GridGraphSpec(width=12.0, height=12.0,
                                        seed=int(rng.integers(0, 2**31))))
    base = np.asarray(DEFAULT_SIGMA_DIAG)
    degeneracy = {
        v: np.diag(base * np.exp(rng.normal(0.0, 0.5, size=3)))
        for v in true.ids
    }
    world = WorldModel(true, degeneracy)
    kept = [(u, v) for u, v, _ in true.edges]
    target = int(round(0.05 * len(kept)))
    hidden = set()
    for k in rng.permutation(len(kept)):
        if len(hidden) == target:
            break
        trial = [e for e in kept if e not in hidden and e != kept[k]]
        if _connected(true.ids, trial):
            hidden.add(kept[k])
    vertices = [(v, *true.position(v)) for v in true.ids]
    edges = [(u, v, true.edge_length(u, v), None) for u, v in kept
             if (u, v) not in hidden]
    return PriorGraph(vertices, edges, true.start), world


def check_mission(prior: PriorGraph, log, metrics) -> list:
    problems = []
    visited = set(log.pose_graph.vertex_of_pose)
    unvisited = [v for v in prior.ids if v not in visited]
    if unvisited:
        problems.append(f"{len(unvisited)} prior vertices never visited")
    values = metrics.to_dict()
    bad = [k for k, x in values.items()
           if not isinstance(x, bool) and not math.isfinite(x)]
    if bad:
        problems.append(f"non-finite mission metrics {bad}")
    if not metrics.assumption_ok:
        problems.append("a mission plan exceeds twice its base tour")
    return problems


class MissionGrid12:
    """run_mission(MissionConfig()) on fixed 12x12 grid worlds.

    The worlds come from generator seeds 0..pool_size-1 and the workload
    seed draws each mission's noise seed.  The noise changes measurements,
    optimizer iterations and APE but not the route, so every seed times the
    same missions: mission time differs by tens of percent between worlds,
    and seeded worlds made the run-to-run spread of op_s too wide to bound.
    """

    name = "mission-grid12"
    pool_size = 6
    trace_ops = 3
    units = 1  # one mission

    def __init__(self, seed: int):
        self.pool = [
            (*grid_world(world), noise)
            for world, noise in enumerate(_instance_seeds(seed, self.pool_size))
        ]

    def run(self, k: int, workers: int):
        prior, world, mission_seed = self.pool[k]
        return mission.run_mission(prior, world, mission.MissionConfig(),
                                   mission_seed)

    def check(self, k: int, result) -> Checked:
        log, metrics = result
        events = "".join(json.dumps(e, sort_keys=True) + "\n" for e in log.events)
        return Checked(
            _sha(events),
            check_mission(self.pool[k][0], log, metrics),
            {"distance_m": metrics.total_distance,
             "dopt_per_m": metrics.dopt_predicted / metrics.total_distance,
             "ape_rmse_m": metrics.ape_rmse},
        )


class CompareEnv1:
    """compare_strategies on the bundled env1 prior and world."""

    name = "compare-env1"
    pool_size = 10
    trace_ops = 2
    seeds_per_op = 10
    units = 2 * seeds_per_op  # missions: each seed runs both strategies

    def __init__(self, seed: int):
        self.prior = load_prior_graph(str(ENVS / "env1.json"))
        self.world = load_world(str(ENVS / "env1_world.json"))
        rng = np.random.default_rng(seed)
        self.pool = [
            sorted(int(s) for s in rng.choice(10**6, self.seeds_per_op, replace=False))
            for _ in range(self.pool_size)
        ]

    def run(self, k: int, workers: int):
        return bench.compare_strategies(self.prior, self.world, self.pool[k],
                                        workers=workers)

    def check(self, k: int, result) -> Checked:
        problems = []
        if not result.summary["assumption_ok_all"]:
            problems.append("a plan exceeds twice its base tour")
        if len(result.rows) != self.units:
            problems.append(f"{len(result.rows)} rows for {self.units} missions")
        bad = [r for r in result.rows if not all(
            math.isfinite(r[c]) for c in ("ape_rmse", "d_total", "dopt_predicted",
                                          "dopt_fim"))]
        if bad:
            problems.append(f"non-finite metrics for seed {bad[0]['seed']}")
        aware = [r for r in result.rows if r["strategy"] == "slam_aware"]
        return Checked(
            _sha(result.to_csv()),
            problems,
            {"distance_m": float(np.mean([r["d_total"] for r in aware])),
             "dopt_per_m": float(np.mean([r["dopt_predicted"] / r["d_total"]
                                          for r in aware])),
             "ape_rmse_m": float(np.mean([r["ape_rmse"] for r in aware]))},
        )


WORKLOADS = {w.name: w for w in (PlanGrid20, MissionGrid12, CompareEnv1)}
