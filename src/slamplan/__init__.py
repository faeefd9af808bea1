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
    SizeLimitError,
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
    brute_force_select,
    enumerate_candidates,
    greedy_select,
    insert_loop_edges,
    omega_max,
    prune_candidates,
    selection_delta,
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
    simulate_execution,
)
from .tsp import (
    TourCosts,
    Walk,
    expand_to_walk,
    solve_fixed_end_tsp,
    solve_open_tsp,
    solve_open_tsp_exact,
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
    "SizeLimitError",
    "SlamplanError",
    "TourCosts",
    "Walk",
    "WorldModel",
    "abstract_pose_graph",
    "ape_rmse",
    "brute_force_select",
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
    "omega_max",
    "optimize_pose_graph",
    "plan_exploration",
    "prune_candidates",
    "reduced_laplacian",
    "run_mission",
    "selection_delta",
    "simulate_execution",
    "solve_fixed_end_tsp",
    "solve_open_tsp",
    "solve_open_tsp_exact",
]
