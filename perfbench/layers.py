"""Where the traced run wraps slamplan, and the per-layer metrics it yields.

Every wrapped name is one through which a layer calls another: planner ->
tsp/loops/graph, loops -> laplacian, mission -> planner/graph/tsp/sim,
bench -> mission.  Span names are ``<layer>.<function>``, the layer being
the package module that owns the function.  Time metrics are seconds per
operation of the workload, ``.calls`` metrics are calls per operation.
"""

from __future__ import annotations

from slamplan import bench, laplacian, mission, planner

LAYERS = ("graph", "tsp", "laplacian", "loops", "planner", "mission", "sim", "bench")

TIMED = (
    "tsp.solve_open_tsp", "tsp.solve_fixed_end_tsp", "loops.greedy_select",
    "laplacian.quad_form_batch", "laplacian.rank_one_update",
    "loops.abstract_pose_graph", "loops.enumerate_candidates",
    "planner.compute_plan", "graph.metric_closure", "mission.degeneracy_update",
    "mission.connectivity_update", "mission.replan", "mission.optimize_subpath",
    "sim.optimize_pose_graph", "sim.log_dopt_fim", "bench.compare_strategies",
)
CALLED = (
    "tsp.solve_open_tsp", "tsp.solve_fixed_end_tsp", "laplacian.rank_one_update",
    "mission.degeneracy_update", "mission.connectivity_update", "mission.replan",
    "mission.optimize_subpath",
)
SELF_TIMED = ("planner.compute_plan", "mission.run")


def install(tracer) -> list:
    """Wrap the layer boundaries; returns the list that collects each greedy
    run as (apg, result), for the score-drift audit after the traced phase."""
    greedy_runs = []

    def rebuilt(counters, args, result):
        counters["mission.closure_rebuilds"] += 1

    def tour(counters, args, result):
        counters["tsp.tour_length_sum"] += result.length

    def greedy(counters, args, result):
        apg, cands = args[0], args[1]
        counters["loops.calls"] += 1
        counters["loops.candidates_sum"] += len(cands)
        counters["loops.survivors_sum"] += result.trace.after_prop1
        counters["loops.iterations_sum"] += len(result.trace.per_iteration)
        counters["loops.selected_sum"] += len(result.selected)
        counters["laplacian.incidence_bytes"] = max(
            counters["laplacian.incidence_bytes"], 8.0 * apg.n * len(cands))
        greedy_runs.append((apg, result))

    def columns(counters, args, result):
        counters["laplacian.columns_sum"] += args[1].shape[1]

    def accepted(key):
        def hook(counters, args, result):
            counters[key] += bool(result)  # a Plan from replan, a bool from subpath
        return hook

    def visits(counters, args, result):
        counters["mission.missions"] += 1
        counters["mission.visits"] += sum(
            e["event"] == "visit" for e in result[0].events)

    def optimized(counters, args, result):
        counters["sim.optimize_calls"] += 1
        counters["sim.gn_iterations_sum"] += result["iterations"]
        counters["sim.pose_count_sum"] += args[0].pose_count

    t = tracer
    for module in (planner, mission):
        t.install(module, "compute_plan", "planner.compute_plan")
        t.install(module, "solve_open_tsp", "tsp.solve_open_tsp", tour)
    t.install(planner, "metric_closure", "graph.metric_closure")
    t.install(mission, "metric_closure", "graph.metric_closure", rebuilt)
    t.install(mission, "solve_fixed_end_tsp", "tsp.solve_fixed_end_tsp")
    t.install(planner, "expand_to_walk", "tsp.expand_to_walk")
    t.install(planner, "abstract_pose_graph", "loops.abstract_pose_graph")
    t.install(planner, "enumerate_candidates", "loops.enumerate_candidates")
    t.install(planner, "greedy_select", "loops.greedy_select", greedy)
    t.install(planner, "insert_loop_edges", "loops.insert_loop_edges")
    factor = laplacian.LaplacianFactor
    t.install(factor, "quad_form_batch", "laplacian.quad_form_batch", columns)
    t.install(factor, "rank_one_update", "laplacian.rank_one_update")
    for module in (mission, bench):
        t.install(module, "run_mission", "mission.run_mission", visits)
    m = mission.Mission
    t.install(m, "run", "mission.run")
    t.install(m, "degeneracy_update", "mission.degeneracy_update")
    t.install(m, "connectivity_update", "mission.connectivity_update")
    t.install(m, "replan", "mission.replan", accepted("mission.replans_accepted"))
    t.install(m, "optimize_subpath", "mission.optimize_subpath",
              accepted("mission.subpaths_accepted"))
    t.install(mission, "optimize_pose_graph", "sim.optimize_pose_graph", optimized)
    t.install(mission, "log_dopt_fim", "sim.log_dopt_fim")
    t.install(bench, "compare_strategies", "bench.compare_strategies")
    return greedy_runs


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer, ops: int, score_drift: float) -> dict:
    """Per-layer metrics of a traced phase of ``ops`` operations.  A layer
    the workload never reaches reports 0."""
    d = tracer.durations()
    c = tracer.counters
    out = {}
    for layer in LAYERS:
        own = sum(row[1] for name, row in d.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = _ratio(own, ops)
    for name in TIMED:
        out[f"{name}.s"] = _ratio(d[name][0], ops)
    for name in CALLED:
        out[f"{name}.calls"] = _ratio(d[name][2], ops)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = _ratio(d[name][1], ops)
    out["tsp.tour_length_m"] = _ratio(c["tsp.tour_length_sum"],
                                      d["tsp.solve_open_tsp"][2])
    greedy = c["loops.calls"]
    out["loops.candidates"] = _ratio(c["loops.candidates_sum"], greedy)
    out["loops.survivors"] = _ratio(c["loops.survivors_sum"], greedy)
    out["loops.survivor_ratio"] = _ratio(c["loops.survivors_sum"],
                                         c["loops.candidates_sum"])
    out["loops.greedy_iterations"] = _ratio(c["loops.iterations_sum"], greedy)
    out["loops.selected"] = _ratio(c["loops.selected_sum"], greedy)
    out["loops.score_drift"] = score_drift
    out["laplacian.quad_form_columns"] = _ratio(c["laplacian.columns_sum"], ops)
    out["laplacian.incidence_bytes"] = c["laplacian.incidence_bytes"]
    missions = c["mission.missions"]
    out["mission.closure_rebuilds"] = _ratio(c["mission.closure_rebuilds"], missions)
    out["mission.closure_rebuilds_per_visit"] = _ratio(
        c["mission.closure_rebuilds"], c["mission.visits"])
    out["mission.replan_accept_ratio"] = _ratio(c["mission.replans_accepted"],
                                                d["mission.replan"][2])
    out["mission.subpath_accept_ratio"] = _ratio(c["mission.subpaths_accepted"],
                                                 d["mission.optimize_subpath"][2])
    out["sim.gn_iterations"] = _ratio(c["sim.gn_iterations_sum"], c["sim.optimize_calls"])
    out["sim.pose_count"] = _ratio(c["sim.pose_count_sum"], c["sim.optimize_calls"])
    return out
