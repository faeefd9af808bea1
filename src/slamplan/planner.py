"""End-to-end plan computation over a prior graph.

Two-stage pipeline: a coverage tour on the metric closure expanded into a
walk, then loop-edge selection over the walk's abstracted pose graph.  The
``tsp_only`` strategy stops after stage one; ``slam_aware`` adds the
greedy loop selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import PriorGraph, metric_closure
from .loops import (
    GreedyResult,
    Plan,
    abstract_pose_graph,
    enumerate_candidates,
    greedy_select,
    insert_loop_edges,
)
from .tsp import TourCosts, Tour, expand_to_walk, solve_open_tsp

STRATEGIES = ("tsp_only", "slam_aware")


@dataclass
class PlanningOutcome:
    """Plan plus the intermediate artifacts benchmarks need."""

    plan: Plan
    tour: Tour
    apg: object
    closure: object
    greedy: GreedyResult | None


def compute_plan(
    graph: PriorGraph,
    strategy: str = "slam_aware",
    pruning: bool = True,
    closure=None,
    include=None,
    start=None,
    order=None,
) -> PlanningOutcome:
    """Plan coverage of ``include`` (default: all vertices) from ``start``.

    ``closure`` may be supplied to reuse a cached all-pairs table; it must
    be of ``graph`` and fresh, or MismatchError is raised.  The coverage
    tour polishes ``order``, every tour vertex once with the start first,
    if given (a replan passes the remainder it would replace); otherwise,
    as in a first plan, it polishes eight nearest-neighbor restarts.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if closure is None:
        closure = metric_closure(graph)
    closure.check_serves(graph)
    costs = TourCosts(closure, include=include, start=start)
    tour = solve_open_tsp(costs, order)
    walk = expand_to_walk(closure, tour.order)
    apg = abstract_pose_graph(walk, graph)
    if strategy == "tsp_only":
        plan = insert_loop_edges(apg, walk, [], closure)
        return PlanningOutcome(plan, tour, apg, closure, None)
    cands = enumerate_candidates(apg, closure)
    result = greedy_select(apg, cands, walk, closure, pruning=pruning)
    return PlanningOutcome(result.plan, tour, apg, closure, result)


def plan_exploration(graph: PriorGraph, strategy: str = "slam_aware") -> Plan:
    return compute_plan(graph, strategy).plan
