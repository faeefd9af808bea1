"""Exploration planning over prior topo-metric graphs.

Plans balance travel distance against pose-graph estimation quality
(D-optimality of the weighted reduced Laplacian) by committing to
loop-closing detours on top of a coverage tour, and a graph-world
simulator executes plans with noisy measurements and SE(2) pose-graph
optimization to check the predictions.
"""

from .errors import (
    CovarianceError,
    DisconnectedError,
    DivergenceError,
    InputError,
    MismatchError,
    RankDeficientError,
    SlamplanError,
)
from .graph import MetricClosure, PriorGraph, load_prior_graph, metric_closure
from .kernels import BACKEND
from .laplacian import LaplacianFactor, information_weights, reduced_laplacian
from .loops import (
    AbstractedPoseGraph,
    LoopEdgeCandidate,
    Plan,
    abstract_pose_graph,
    enumerate_candidates,
    greedy_select,
    insert_loop_edges,
)
from .mission import Mission, MissionConfig, run_mission
from .planner import compute_plan, plan_exploration
from .sim import (
    MissionMetrics,
    SimPoseGraph,
    WorldModel,
    ape_rmse,
    load_world,
    log_dopt_fim,
    optimize_pose_graph,
)
from .tsp import (
    TourCosts,
    Walk,
    expand_to_walk,
    solve_fixed_end_tsp,
    solve_open_tsp,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractedPoseGraph",
    "BACKEND",
    "CovarianceError",
    "DisconnectedError",
    "DivergenceError",
    "InputError",
    "LaplacianFactor",
    "LoopEdgeCandidate",
    "MetricClosure",
    "Mission",
    "MissionConfig",
    "MissionMetrics",
    "MismatchError",
    "Plan",
    "PriorGraph",
    "RankDeficientError",
    "SimPoseGraph",
    "SlamplanError",
    "TourCosts",
    "Walk",
    "WorldModel",
    "abstract_pose_graph",
    "ape_rmse",
    "compute_plan",
    "enumerate_candidates",
    "expand_to_walk",
    "greedy_select",
    "information_weights",
    "insert_loop_edges",
    "load_prior_graph",
    "load_world",
    "log_dopt_fim",
    "metric_closure",
    "optimize_pose_graph",
    "plan_exploration",
    "reduced_laplacian",
    "run_mission",
    "solve_fixed_end_tsp",
    "solve_open_tsp",
]
