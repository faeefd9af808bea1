from collections import Counter, deque
from math import fsum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import slamplan.mission as mission_mod
from slamplan import tsp
from slamplan.errors import DisconnectedError, InputError, MismatchError
from slamplan.graph import PriorGraph, load_prior_graph, metric_closure
from slamplan.loops import LoopAction, Plan
from slamplan.mission import Mission, MissionConfig, run_mission
from slamplan.sim import WorldModel, load_world, optimize_pose_graph, simulate_walk
from slamplan.tsp import Walk

from conftest import simulate_walk_per_step


def diagm(x, theta_scale=0.01):
    return np.diag([x, x, x * theta_scale])


def chain_graph(n, length=1.0, ids=None):
    ids = ids or list(range(n))
    doc = {
        "vertices": [
            {"id": ids[k], "x": k * length, "y": 0.0} for k in range(n)
        ],
        "edges": [
            {"u": ids[k], "v": ids[k + 1], "length": length}
            for k in range(n - 1)
        ],
        "start": ids[0],
    }
    return load_prior_graph(doc)


def matched_world(g):
    """World whose degeneracy equals the prior's default region matrices,
    so online updates are all no-ops."""
    deg = {v: np.diag([0.1, 0.1, 0.001]) for v in g.ids}
    return WorldModel(g, deg)


def test_pure_traversal_events_only_visits():
    g = chain_graph(3, ids=["a", "b", "c"])
    world = matched_world(g)
    log, metrics = run_mission(g, world, MissionConfig(), seed=0)
    assert [e["event"] for e in log.events] == ["visit"] * 3
    assert [e["vertex"] for e in log.events] == ["a", "b", "c"]
    assert metrics.total_distance == pytest.approx(2.0)
    assert metrics.pose_count == 3
    assert metrics.assumption_ok


def shortcut_prior_and_world():
    """A prior whose tour takes the a-c shortcut, and a world without it."""
    vertices = [{"id": v, "x": x, "y": 0.0} for v, x in (("a", 0.0), ("b", 10.0), ("c", 1.0))]
    edges = [("a", "b", 10.0), ("b", "c", 1.0), ("a", "c", 1.0)]
    doc = {"vertices": vertices, "start": "a",
           "edges": [{"u": u, "v": v, "length": d} for u, v, d in edges]}
    world = dict(doc, edges=doc["edges"][:2])
    return load_prior_graph(doc), WorldModel(load_prior_graph(world))


def test_prior_edge_absent_from_world_fails_before_moving():
    prior, world = shortcut_prior_and_world()
    with pytest.raises(MismatchError, match=r"^prior edge \('a', 'c'\) absent from world$"):
        Mission(prior, world)
    # a prior vertex the world lacks is named before any edge
    vertices = [{"id": v, "x": 0.0, "y": 0.0} for v in ("a", "b", "c", "d")]
    edges = [{"u": "a", "v": "d", "length": 1.0}, {"u": "d", "v": "b", "length": 1.0},
             {"u": "b", "v": "c", "length": 1.0}]
    lacking = load_prior_graph({"vertices": vertices, "edges": edges, "start": "a"})
    with pytest.raises(MismatchError, match="prior vertex 'd' absent from world"):
        Mission(lacking, world)


def test_unknown_strategy_rejected():
    g = chain_graph(3)
    with pytest.raises(InputError):
        Mission(g, matched_world(g), MissionConfig(strategy="bogus"))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_run_mission_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    g = chain_graph(3)
    with pytest.raises(InputError, match=f"seed must be a non-negative integer, got {seed!r}"):
        run_mission(g, matched_world(g), MissionConfig(), seed=seed)
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        simulate_walk([0, 1], matched_world(g), seed=seed)


def test_mission_checks_its_seed_before_any_planning(monkeypatch):
    # no runner checks the seed as the mission starts moving, so the
    # mission checks it itself, before any plan is computed
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was computed before the seed was checked")

    monkeypatch.setattr(mission_mod, "compute_plan", no_plan)
    g = chain_graph(3)
    with pytest.raises(InputError, match=r"^seed must be a non-negative integer, got -1$"):
        Mission(g, matched_world(g), MissionConfig(), seed=-1)
    with pytest.raises(InputError, match=r"^seed must be a non-negative integer, got -1$"):
        run_mission(g, matched_world(g), MissionConfig(), seed=-1)
    with pytest.raises(AssertionError, match="before the seed was checked"):
        run_mission(g, matched_world(g), MissionConfig(), seed=0)


def test_coverage_each_vertex_visited_once():
    from slamplan.bench import GridGraphSpec, gen_grid_graph

    for seed in (0, 1):
        g = gen_grid_graph(GridGraphSpec(width=4, height=4, seed=seed))
        world = WorldModel(g)
        log, _ = run_mission(g, world, MissionConfig(), seed=seed)
        visits = Counter(
            e["vertex"] for e in log.events if e["event"] == "visit"
        )
        assert set(visits) == set(g.ids)
        assert all(c == 1 for c in visits.values())


def test_skip_rule_on_passthrough(monkeypatch):
    g = chain_graph(3, ids=["a", "b", "c"])
    world = matched_world(g)
    fake = Plan(
        walk=Walk(["a", "b", "c", "b"], 3.0),
        tsp_walk=Walk(["a", "c", "b"], 3.0),
        actions=[],
        objective=1.0,
        log_objective=0.0,
        base_distance=3.0,
        d_tsp=3.0,
        assumption_ok=True,
    )

    class Fake:
        plan = fake

    import slamplan.mission as mission_mod

    monkeypatch.setattr(mission_mod, "compute_plan", lambda *a, **k: Fake())
    cfg = MissionConfig(replanning=False, subpath_optimization=False)
    log, metrics = run_mission(g, world, cfg, seed=0)
    kinds = [(e["event"], e.get("vertex")) for e in log.events]
    assert kinds == [
        ("visit", "a"), ("visit", "b"), ("visit", "c"), ("skip", "b")
    ]
    # walking a -> c covered b en route; the b goal was skipped, not re-run
    assert metrics.total_distance == pytest.approx(2.0)


def test_loop_actions_execute_in_order(monkeypatch):
    g = chain_graph(4)
    world = matched_world(g)
    actions = [
        LoopAction(2, 0, 2.0, 1.0, 2, 0, position=2),
        LoopAction(3, 1, 2.0, 1.0, 3, 1, position=3),
    ]
    fake = Plan(
        walk=Walk([0, 1, 2, 3], 3.0),
        tsp_walk=Walk([0, 1, 2, 3], 3.0),
        actions=actions,
        objective=1.0,
        log_objective=0.0,
        base_distance=11.0,
        d_tsp=3.0,
        assumption_ok=False,
    )

    class Fake:
        plan = fake

    import slamplan.mission as mission_mod

    monkeypatch.setattr(mission_mod, "compute_plan", lambda *a, **k: Fake())
    cfg = MissionConfig(replanning=False, subpath_optimization=False)
    log, metrics = run_mission(g, world, cfg, seed=0)
    closes = [
        (e["anchor"], e["target"])
        for e in log.events
        if e["event"] == "loop_close"
    ]
    assert closes == [(2, 0), (3, 1)]
    assert metrics.total_distance == pytest.approx(3.0 + 4.0 + 4.0)
    assert not metrics.assumption_ok


def test_degeneracy_average_of_all_edges_when_few():
    # three pose edges and a window of five: the covered vertex averages
    # every edge covariance
    g = chain_graph(4, ids=["a", "b", "c", "d"])
    deg = {"a": diagm(0.2), "b": diagm(0.4), "c": diagm(0.6), "d": diagm(0.8)}
    world = WorldModel(g, deg)
    mission = Mission(g, world, MissionConfig(), seed=0)
    log, _ = mission.run()
    edge_covs = [
        0.5 * (deg["a"] + deg["b"]),
        0.5 * (deg["b"] + deg["c"]),
        0.5 * (deg["c"] + deg["d"]),
    ]
    expect = np.mean(edge_covs, axis=0)
    assert np.allclose(mission.prior.region_covs[mission.prior.index["d"]], expect, atol=1e-12)
    assert any(e["event"] == "degeneracy_update" for e in log.events)


def test_degeneracy_window_takes_nearest_five():
    n = 9
    g = chain_graph(n)
    deg = {k: diagm(0.1 * (k + 1)) for k in range(n)}
    world = WorldModel(g, deg)
    mission = Mission(g, world, MissionConfig(), seed=0)
    mission.run()
    # the five edge midpoints nearest the last vertex are edges 3-4 .. 7-8
    edge_cov = lambda i: 0.5 * (deg[i] + deg[i + 1])
    expect = np.mean([edge_cov(i) for i in range(3, 8)], axis=0)
    assert np.allclose(mission.prior.region_covs[n - 1], expect, atol=1e-12)


def test_degeneracy_fallback_for_unvisited():
    g = chain_graph(4, ids=["a", "b", "c", "d"])
    deg = {"a": diagm(0.2), "b": diagm(0.4), "c": diagm(0.6), "d": diagm(0.8)}
    world = WorldModel(g, deg)
    mission = Mission(g, world, MissionConfig(), seed=0)
    mission.route.append("b")
    mission.current = "b"
    mission.visited.add("b")
    mission.degeneracy_update("b")
    only_edge = 0.5 * (deg["a"] + deg["b"])
    regions = mission.prior.region_covs
    assert np.allclose(regions[1], only_edge)
    for k in (2, 3):
        assert np.allclose(regions[k], only_edge)
    # edge covariances track endpoint regions
    expect_ab = 0.5 * (regions[0] + regions[1])
    assert np.allclose(mission.prior.edge_covs[mission.prior.edge_row("a", "b")],
                       expect_ab)


def test_degeneracy_uniform_world_noop():
    g = chain_graph(4)
    world = matched_world(g)
    log, _ = run_mission(g, world, MissionConfig(), seed=0)
    assert not any(e["event"] == "degeneracy_update" for e in log.events)


def test_connectivity_no_hidden_edges_noop():
    g = chain_graph(3)
    world = matched_world(g)
    mission = Mission(g, world, MissionConfig(), seed=0)
    log, _ = mission.run()
    assert not any(e["event"] == "connectivity_update" for e in log.events)
    assert len(mission.prior.edges) == len(g.edges)


def test_connectivity_reveal_shortens_paths():
    prior = chain_graph(3, ids=["a", "b", "c"])
    world_graph = load_prior_graph({
        "vertices": [
            {"id": "a", "x": 0.0, "y": 0.0},
            {"id": "b", "x": 1.0, "y": 0.0},
            {"id": "c", "x": 2.0, "y": 0.0},
        ],
        "edges": [
            {"u": "a", "v": "b", "length": 1.0},
            {"u": "b", "v": "c", "length": 1.0},
            {"u": "a", "v": "c", "length": 1.2},
        ],
        "start": "a",
    })
    deg = {v: np.diag([0.1, 0.1, 0.001]) for v in prior.ids}
    world = WorldModel(world_graph, deg)
    before = metric_closure(prior).dist("a", "c")
    mission = Mission(prior, world, MissionConfig(), seed=0)
    log, _ = mission.run()
    reveals = [e for e in log.events if e["event"] == "connectivity_update"]
    assert len(reveals) == 1
    assert reveals[0]["edges"] == [["a", "c"]]
    assert mission.prior.has_edge("a", "c")
    after = metric_closure(mission.prior).dist("a", "c")
    assert after == pytest.approx(1.2)
    assert after < before
    # a revealed edge's covariance is the endpoint mean of its regions
    mission = Mission(prior, world, MissionConfig(), seed=0)
    mission.prior.set_region_covs([0, 2], np.stack([diagm(0.3), diagm(0.9)]))
    mission.visited.update(["b", "c"])
    assert mission.connectivity_update() == [["a", "c"]]
    index = mission.prior.index
    expect = mission.prior.pair_covs(index["a"], index["c"])
    assert np.array_equal(mission.prior.edge_covs[mission.prior.edge_row("a", "c")],
                          expect)
    assert np.allclose(expect, diagm(0.6))


def test_connectivity_reveals_pending_edges_in_world_order(monkeypatch):
    # visiting d makes both hidden edges revealable at once; the world lists
    # b-d before a-d, and that order, not the sorted one, is kept
    prior = chain_graph(4, ids=["a", "b", "c", "d"])
    world_graph = load_prior_graph({
        "vertices": [{"id": v, "x": float(k), "y": 0.0}
                     for k, v in enumerate("abcd")],
        "edges": [{"u": u, "v": v} for u, v in ("ab", "bc", "cd", "bd", "ad")],
        "start": "a",
    })
    world = matched_world(world_graph)
    listed = []
    hidden_edges = WorldModel.hidden_edges
    monkeypatch.setattr(WorldModel, "hidden_edges",
                        lambda self, g: listed.append(g) or hidden_edges(self, g))
    mission = Mission(prior, world, MissionConfig(), seed=0)
    log, _ = mission.run()
    reveals = [e["edges"] for e in log.events if e["event"] == "connectivity_update"]
    assert reveals == [[["b", "d"], ["a", "d"]]]
    assert [(u, v) for u, v, _ in mission.prior.edges[3:]] == [("b", "d"), ("a", "d")]
    assert mission.prior.edge_length("a", "d") == pytest.approx(3.0)
    assert mission.connectivity_update() == []
    assert len(listed) == 1


def test_replan_with_everything_visited():
    g = chain_graph(3)
    world = matched_world(g)
    mission = Mission(g, world, MissionConfig(), seed=0)
    mission.run()
    out = mission.replan()
    assert out is None
    assert mission.log.events[-1] == {
        "event": "replan_rejected", "reason": "complete"
    }


def test_replan_tie_keeps_existing():
    g = chain_graph(4, ids=["a", "b", "c", "d"])
    world = matched_world(g)
    mission = Mission(g, world, MissionConfig(), seed=0)
    mission.steps = deque([("visit", "b"), ("visit", "c"), ("visit", "d")])
    out = mission.replan()
    assert out is None
    assert mission.log.events[-1]["event"] == "replan_rejected"
    assert list(mission.steps) == [
        ("visit", "b"), ("visit", "c"), ("visit", "d")
    ]


def test_replan_adopts_shorter_remainder():
    g = chain_graph(4, ids=["a", "b", "c", "d"])
    world = matched_world(g)
    mission = Mission(g, world, MissionConfig(), seed=0)
    # a deliberately bad remainder: run to the far end first
    mission.steps = deque([("visit", "d"), ("visit", "c"), ("visit", "b")])
    out = mission.replan()
    assert out is not None
    assert mission.log.events[-1]["event"] == "replan_accepted"
    assert [v for k, v in mission.steps if k == "visit"] == ["b", "c", "d"]
    ev = mission.log.events[-1]
    assert ev["score"] > ev["previous"]


def test_subpath_reorders_bad_segment():
    doc = {
        "vertices": [
            {"id": 0, "x": 0.0, "y": 0.0},
            {"id": 1, "x": 1.0, "y": 0.0},
            {"id": 2, "x": 1.0, "y": 1.0},
            {"id": 3, "x": 0.0, "y": 1.0},
        ],
        "edges": [
            {"u": 0, "v": 1, "length": 1.0},
            {"u": 1, "v": 2, "length": 1.0},
            {"u": 2, "v": 3, "length": 1.0},
            {"u": 0, "v": 3, "length": 1.0},
        ],
        "start": 0,
    }
    g = load_prior_graph(doc)
    world = matched_world(g)
    mission = Mission(g, world, MissionConfig(), seed=0)
    mission.steps = deque([("visit", 2), ("visit", 1), ("visit", 3)])
    assert mission.optimize_subpath()
    ev = mission.log.events[-1]
    assert ev["event"] == "subpath_optimized"
    assert ev["saved"] > 0
    goals = [v for k, v in mission.steps if k == "visit"]
    assert sorted(goals) == [1, 2, 3]
    new_len = sum(
        metric_closure(g).dist(a, b)
        for a, b in zip([0] + goals[:-1], goals)
    )
    assert new_len < 5.0


def test_remaining_order_lists_unvisited_vertices_by_first_appearance():
    # The order a replan polishes: the current vertex, then each unvisited
    # vertex where the steps first reach it, a loop's anchor and target
    # included; visited vertices and repeats are dropped.
    g = chain_graph(8)
    mission = Mission(g, matched_world(g), MissionConfig(), seed=0)
    mission.visited.add(3)
    loop = lambda anchor, target: LoopAction(anchor, target, 1.0, 1.0, 0, 0, position=0)  # noqa: E731
    mission.steps = deque([
        ("visit", 4), ("visit", 2), ("visit", 3), ("visit", 4), ("loop", loop(5, 3)),
        ("visit", 7), ("visit", 6), ("loop", loop(7, 1)), ("visit", 6),
    ])
    # 5 is reached only as an anchor and 1 only as a target
    assert mission._remaining_order() == [0, 4, 2, 5, 7, 6, 1]
    # the fix-up reorders the goals before the first anchor: 0 -> 2 -> 4 -> 5
    assert mission.optimize_subpath()
    assert list(mission.steps)[:3] == [("visit", 2), ("visit", 4), ("visit", 5)]
    order = mission._remaining_order()
    assert order == [0, 2, 4, 5, 7, 6, 1]
    assert set(order[1:]) == set(g.ids) - mission.visited
    mission.replan()  # the order is the tour's vertex set, the start first


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.sampled_from([5.0, 6.0, 7.0]))
def test_replan_tours_are_no_longer_than_the_remainder_they_polish(seed, size):
    # Every fresh replan tour, accepted or rejected, is polished from the
    # remainder's own order, which covers every unvisited vertex with the
    # current vertex first; so, summed exactly, it is no longer than it.
    import slamplan.mission as mission_mod

    solves = []  # per replan: closure, vertex set, remainder order, fresh tour order
    plan = mission_mod.compute_plan

    def recorded(graph, **kwargs):
        outcome = plan(graph, **kwargs)
        if kwargs.get("order") is not None:
            solves.append((kwargs["closure"], kwargs["include"] | {kwargs["start"]},
                           kwargs["order"], outcome.tour.order))
        return outcome

    prior, world = _lognormal_grid_world(seed, size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission_mod, "compute_plan", recorded)
        run_mission(prior, world, MissionConfig(), seed=0)
    assume(solves)  # a mission that closes no loop never replans
    for closure, vertices, remainder, tour in solves:
        assert set(remainder) == vertices and remainder[0] == tour[0]
        assert sorted(tour) == sorted(remainder)
        legs = lambda order: fsum(closure.dist(a, b) for a, b in zip(order, order[1:]))  # noqa: E731
        assert legs(tour) <= legs(remainder)


@pytest.mark.parametrize("name", ["env1", "grid8-3", "grid8-4"])  # env2 closes no loop
def test_nearest_neighbor_seeds_are_built_by_first_plans_and_fixups_only(monkeypatch, name):
    # A mission builds the eight nearest-neighbor seeds for its first plan
    # and for each fix-up solve; a replan polishes the remainder instead.
    import slamplan.mission as mission_mod

    where = []
    in_replan = []
    build = tsp._nn_seeds
    monkeypatch.setattr(tsp, "_nn_seeds", lambda *a: where.append(bool(in_replan)) or build(*a))
    replan = Mission.replan

    def flagged(self):
        in_replan.append(True)
        try:
            return replan(self)
        finally:
            in_replan.pop()

    monkeypatch.setattr(Mission, "replan", flagged)
    fixups = []
    for solver in ("solve_open_tsp", "solve_fixed_end_tsp"):
        solve = getattr(mission_mod, solver)
        monkeypatch.setattr(mission_mod, solver,
                            lambda *a, solve=solve: fixups.append(1) or solve(*a))
    prior, world = _lockstep_instance(name)
    log, _ = run_mission(prior, world, MissionConfig(), seed=2)
    assert any(e["event"].startswith("replan") for e in log.events)
    assert not any(where)
    assert len(where) == 1 + len(fixups)


def test_subpath_single_goal_unchanged():
    g = chain_graph(3, ids=["a", "b", "c"])
    world = matched_world(g)
    mission = Mission(g, world, MissionConfig(), seed=0)
    mission.steps = deque([("visit", "b")])
    assert not mission.optimize_subpath()
    assert list(mission.steps) == [("visit", "b")]


def test_event_log_reproducible():
    from slamplan.bench import GridGraphSpec, gen_grid_graph

    g = gen_grid_graph(GridGraphSpec(width=4, height=4, seed=2))
    world = WorldModel(g)
    log1, m1 = run_mission(g, world, MissionConfig(), seed=7)
    log2, m2 = run_mission(g, world, MissionConfig(), seed=7)
    assert log1.events == log2.events
    assert m1.to_dict() == m2.to_dict()
    log3, m3 = run_mission(g, world, MissionConfig(), seed=8)
    assert m3.ape_rmse != m1.ape_rmse


def test_metrics_fields_consistent():
    from slamplan.bench import GridGraphSpec, gen_grid_graph

    g = gen_grid_graph(GridGraphSpec(width=4, height=4, seed=3))
    world = WorldModel(g)
    log, m = run_mission(g, world, MissionConfig(), seed=1)
    pg = log.pose_graph
    assert m.pose_count == pg.pose_count == len(pg.vertex_of_pose)
    assert m.mean_degree == pytest.approx(2.0 * pg.edge_count / pg.pose_count)
    assert m.ape_rmse >= 0.0
    assert m.dopt_predicted > 0.0 and m.dopt_fim > 0.0
    assert log.optimizer_info["converged"]


@pytest.mark.parametrize("replanning", [True, False], ids=["replan", "no-replan"])
@pytest.mark.parametrize("strategy", ["tsp_only", "slam_aware"])
@pytest.mark.parametrize("env", ["env1", "env2"])
def test_mission_pose_graph_replays_through_simulate_walk(env, strategy, replanning):
    # the mission measures with the same generator as simulate_walk, so
    # replaying its executed route with its seed gives the same bits
    envs = Path(__file__).resolve().parents[1] / "src" / "slamplan" / "envs"
    prior = load_prior_graph(str(envs / f"{env}.json"))
    world = load_world(str(envs / f"{env}_world.json"))
    cfg = MissionConfig(strategy=strategy, replanning=replanning)
    log, _ = run_mission(prior, world, cfg, seed=5)
    pg = log.pose_graph
    replay = simulate_walk(pg.vertex_of_pose, world, seed=5)
    optimize_pose_graph(replay)
    assert pg.edge_count > pg.pose_count - 1  # a loop closure
    assert replay.vertex_of_pose == pg.vertex_of_pose
    assert np.array_equal(replay.poses_true, pg.poses_true)
    assert np.array_equal(replay.estimates, pg.estimates)
    assert np.array_equal(replay.ends, pg.ends)
    assert np.array_equal(replay.z, pg.z)
    assert np.array_equal(replay.covs, pg.covs)


class _Recorded(Mission):
    """Mission that notes, per arrival, how many covariance rows
    ``set_region_covs`` and ``set_edge_covs`` wrote."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows_written = []
        self._rows = 0
        for name in ("set_region_covs", "set_edge_covs"):
            setattr(self.prior, name, self._counted(getattr(self.prior, name)))

    def _counted(self, setter):
        def write(idx, mats):
            setter(idx, mats)
            self._rows += len(idx)
        return write

    def _arrive(self, v):
        before = self._rows
        super()._arrive(v)
        self.rows_written.append(self._rows - before)


class _PerItemReference(_Recorded):
    """The per-region, per-edge degeneracy update that the batched one
    replaced: one ``np.allclose`` and one validated write per item."""

    def degeneracy_update(self, vertex):
        pg = simulate_walk_per_step(self.route, self.world, self.seed)
        if not pg.edge_count:
            return
        route = self.route
        mids = np.array([
            0.5 * (self.prior.position(route[i]) + self.prior.position(route[j]))
            for i, j in pg.ends.tolist()
        ])
        covs = pg.covs
        target = self.prior.position(vertex)
        d2 = np.sum((mids - target) ** 2, axis=1)
        take = np.argsort(d2, kind="stable")[:5]
        changed = self._set_region(vertex, covs[take].mean(axis=0))
        overall = covs.mean(axis=0)
        for v in self.prior.ids:
            if v not in self.visited:
                changed |= self._set_region(v, overall)
        for row, (u, v, _) in enumerate(self.prior.edges):
            regions, index = self.prior.region_covs, self.prior.index
            mean = 0.5 * (regions[index[u]] + regions[index[v]])
            if not np.allclose(self.prior.edge_covs[row], mean, atol=1e-15):
                self.prior.set_edge_covs([row], mean[None])
                changed = True
        if changed:
            self._emit("degeneracy_update", vertex=vertex)

    def _set_region(self, vertex, mat) -> bool:
        k = self.prior.index[vertex]
        if np.allclose(self.prior.region_covs[k], mat, atol=1e-15):
            return False
        self.prior.set_region_covs([k], mat[None])
        return True


def _lognormal_grid_world(seed, size=8.0):
    """Grid world, 8x8 by default, with a log-normal degeneracy per region
    and axis, and a prior that hides a few non-bridge edges of it."""
    from slamplan.bench import GridGraphSpec, gen_grid_graph

    rng = np.random.default_rng(seed)
    true = gen_grid_graph(GridGraphSpec(width=size, height=size, seed=seed))
    deg = {v: np.diag([0.1, 0.1, 0.001] * np.exp(rng.normal(0.0, 0.5, size=3)))
           for v in true.ids}
    vertices = [(v, *true.position(v)) for v in true.ids]
    kept = list(true.edges)
    for hide in [true.edges[k] for k in rng.permutation(len(kept))]:
        if len(kept) == len(true.edges) - 4:
            break
        trial = [e for e in kept if e != hide]
        try:
            PriorGraph(vertices, [(u, v, x, None) for u, v, x in trial], true.start)
        except DisconnectedError:
            continue
        kept = trial
    prior = PriorGraph(vertices, [(u, v, x, None) for u, v, x in kept], true.start)
    return prior, WorldModel(true, deg)


def _lockstep_instance(name):
    if name.startswith("grid8-"):
        return _lognormal_grid_world(int(name.split("-")[1]))
    envs = Path(__file__).resolve().parents[1] / "src" / "slamplan" / "envs"
    return (load_prior_graph(str(envs / f"{name}.json")),
            load_world(str(envs / f"{name}_world.json")))


@pytest.mark.parametrize("name", ["env1", "env2", "grid8-3", "grid8-4"])
def test_batched_degeneracy_update_matches_per_item_reference(monkeypatch, name):
    import slamplan.mission as mission_mod

    prior, world = _lockstep_instance(name)
    rebuilt_at = []  # the prior's topology revision at each closure rebuild
    build = mission_mod.metric_closure
    monkeypatch.setattr(mission_mod, "metric_closure",
                        lambda g: rebuilt_at.append(g.topology_revision) or build(g))
    runs = []
    for cls in (_PerItemReference, _Recorded):
        rebuilt_at.clear()
        mission = cls(prior, world, MissionConfig(), seed=2)
        log, _ = mission.run()
        runs.append((mission, log, list(rebuilt_at)))
    (ref, ref_log, _), (got, log, rebuilds) = runs
    assert np.array_equal(got.prior.region_covs, ref.prior.region_covs)
    assert np.array_equal(got.prior.edge_covs, ref.prior.edge_covs)
    assert np.array_equal(got.prior.edge_ends, ref.prior.edge_ends)
    assert log.events == ref_log.events
    assert [p.to_dict() for p in log.plans] == [p.to_dict() for p in ref_log.plans]
    assert got.rows_written == ref.rows_written
    assert any(got.rows_written)
    assert any(e["event"] == "degeneracy_update" for e in log.events)
    # one closure per topology: built at the start, then only after a
    # reveal; reveals on one frozen goto path share the next rebuild
    reveals = sum(e["event"] == "connectivity_update" for e in log.events)
    assert rebuilds[0] == 0 and rebuilds == sorted(set(rebuilds))
    assert len(rebuilds) <= 1 + reveals


class _CallCounted(_Recorded):
    """Mission that counts, per arrival, the calls of each covariance
    setter."""

    def __init__(self, *args, **kwargs):
        self.calls = [Counter()]  # before the first arrival, then one per arrival
        super().__init__(*args, **kwargs)

    def _counted(self, setter):
        write = super()._counted(setter)

        def call(idx, mats):
            self.calls[-1][setter.__name__] += 1
            write(idx, mats)
        return call

    def _arrive(self, v):
        self.calls.append(Counter())
        super()._arrive(v)


@pytest.mark.parametrize("name", ["env1", "env2", "grid8-3", "grid8-4"])
def test_each_arrival_writes_regions_and_edges_at_most_once(name):
    prior, world = _lockstep_instance(name)
    mission = _CallCounted(prior, world, MissionConfig(), seed=2)
    mission.run()
    for setter in ("set_region_covs", "set_edge_covs"):
        assert max(calls[setter] for calls in mission.calls) == 1


class _Pops(deque):
    """Step queue that logs each step the run loop takes off it."""

    def __init__(self, steps, trace):
        super().__init__(steps)
        self.trace = trace

    def popleft(self):
        self.trace.append("step")
        return super().popleft()


class _Traced(_Recorded):
    """Mission that logs, in order, the steps it takes, its covariance
    writes, the edges it reveals, the plans it loads and its fix-ups."""

    def __init__(self, *args, **kwargs):
        self.trace = []
        super().__init__(*args, **kwargs)

    steps = property(
        lambda self: self._steps,
        lambda self, steps: setattr(self, "_steps", _Pops(steps, self.trace)))

    def _load_program(self, plan):
        self.trace.append("load")
        super()._load_program(plan)

    def degeneracy_update(self, vertex):
        before = self._rows
        super().degeneracy_update(vertex)
        if self._rows != before:
            self.trace.append("write")

    def connectivity_update(self):
        added = super().connectivity_update()
        if added:
            self.trace.append("reveal")
        return added

    def optimize_subpath(self):
        self.trace.append("fixup")
        return super().optimize_subpath()


@pytest.mark.parametrize("name", ["env1", "env2", "grid8-3", "grid8-4"])
def test_subpath_fixup_runs_once_per_revealed_topology(monkeypatch, name):
    import slamplan.mission as mission_mod

    prior, world = _lockstep_instance(name)
    rebuilds = []
    build = mission_mod.metric_closure
    monkeypatch.setattr(mission_mod, "metric_closure",
                        lambda g: rebuilds.append(g.topology_revision) or build(g))
    mission = _Traced(prior, world, MissionConfig(), seed=2)
    mission.run()
    trace = mission.trace
    revealed = False  # an edge was revealed since the last fix-up or plan load
    for entry in trace:
        if entry == "reveal":
            revealed = True
        elif entry == "load":
            revealed = False
        elif entry == "fixup":
            # covariance writes alone never start a fix-up, and one fix-up
            # answers all the reveals before it
            assert revealed
            revealed = False
        elif entry == "step":
            # a reveal is fixed up at the next step boundary
            assert not revealed
    fixups = trace.count("fixup")
    assert trace.count("write") > fixups
    assert fixups <= len(rebuilds) - 1


@pytest.mark.parametrize("replanning", [True, False], ids=["replan", "no-replan"])
@pytest.mark.parametrize("strategy", ["tsp_only", "slam_aware"])
@pytest.mark.parametrize("name", ["env1", "env2", "grid8-3", "grid8-4"])
def test_no_mission_decision_reads_a_measurement(name, strategy, replanning):
    # compare_strategies runs each strategy's mission on one seed and
    # replays its route for the others: sound only while the seed moves
    # the noise draws and nothing that the mission decides
    prior, world = _lockstep_instance(name)
    cfg = MissionConfig(strategy=strategy, replanning=replanning)
    decided, apes = [], set()
    for seed in (0, 7, 123):
        log, m = run_mission(prior, world, cfg, seed)
        decided.append((log.events, [p.to_dict() for p in log.plans],
                        log.pose_graph.vertex_of_pose, m.total_distance,
                        m.dopt_predicted))
        apes.add(m.ape_rmse)
    assert len(apes) == 3  # the seeds do draw different noise
    assert decided[1] == decided[0]
    assert decided[2] == decided[0]
