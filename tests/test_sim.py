import copy
import functools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csc_matrix

import slamplan.sim as sim_mod
from slamplan.bench import GridGraphSpec, gen_grid_graph
from slamplan.errors import (
    CovarianceError,
    DivergenceError,
    InputError,
    MismatchError,
    RankDeficientError,
)
from slamplan.graph import DEFAULT_SIGMA_DIAG, load_prior_graph, metric_closure
from slamplan.laplacian import _spd_factor
from slamplan.mission import MissionConfig, run_mission, score_pose_graph, score_pose_graphs
from slamplan.planner import plan_exploration
from slamplan.se2 import compose, edge_residual
from slamplan.sim import (
    DEFAULT_LOOP_SIGMA,
    WorldModel,
    ape_rmse,
    dead_reckon,
    load_world,
    log_dopt_fim,
    optimize_pose_graph,
    simulate_walk,
    simulate_walks,
)

from conftest import (
    dense_information,
    log_dopt_fim_per_graph,
    objective_per_graph,
    optimize_pose_graph_per_graph,
    random_connected_graph,
    simulate_walk_per_step,
)


def path3_graph():
    doc = {
        "vertices": [
            {"id": "a", "x": 0.0, "y": 0.0},
            {"id": "b", "x": 1.0, "y": 0.0},
            {"id": "c", "x": 2.0, "y": 0.0},
        ],
        "edges": [
            {"u": "a", "v": "b", "length": 1.0},
            {"u": "b", "v": "c", "length": 1.0},
        ],
        "start": "a",
    }
    return load_prior_graph(doc)


def noiseless_world(g):
    tiny = {v: np.eye(3) * 1e-12 for v in g.ids}
    return WorldModel(g, tiny, np.eye(3) * 1e-12)


def test_load_world_document(tmp_path):
    g = path3_graph()
    doc = {
        "graph": g.to_dict(),
        "region_degeneracy": {"a": [0.2, 0.2, 0.002]},
        "default_degeneracy": [0.05, 0.05, 0.0005],
        "loop_closure_sigma": [0.02, 0.02, 0.0002],
    }
    p = tmp_path / "world.json"
    p.write_text(json.dumps(doc))
    w = load_world(str(p))
    assert np.allclose(np.diag(w.degeneracy("a")), [0.2, 0.2, 0.002])
    assert np.allclose(np.diag(w.degeneracy("b")), [0.05, 0.05, 0.0005])
    assert np.allclose(
        np.diag(w.loop_closure_covariance), [0.02, 0.02, 0.0002]
    )
    with pytest.raises(InputError):
        load_world({"graph": g.to_dict(), "region_degeneracy": {"zz": [1, 1, 1]}})
    with pytest.raises(InputError):
        load_world({})


def test_load_world_rejects_ambiguous_degeneracy_key():
    # JSON object keys are strings, so "1" could mean vertex 1 or "1".
    doc = {
        "vertices": [{"id": 1, "x": 0, "y": 0}, {"id": "1", "x": 1, "y": 0}],
        "edges": [{"u": 1, "v": "1"}],
        "start": 1,
    }
    with pytest.raises(InputError, match=r"vertex ids 1 and '1'"):
        load_world({"graph": doc, "region_degeneracy": {"1": [0.2, 0.2, 0.002]}})
    w = load_world({"graph": doc})
    assert set(w.true_graph.ids) == {1, "1"}


@pytest.mark.parametrize("key, value, match", [
    ("region_degeneracy", [1], r"'region_degeneracy' must be an object, got list"),
    ("region_degeneracy", "x", r"'region_degeneracy' must be an object, got str"),
    ("region_degeneracy", {"b": ["x", 0.1, 0.001]},
     r"vertex 'b' degeneracy entries must be numbers"),
    ("region_degeneracy", {"b": [0.1, 0.1]}, r"vertex 'b' degeneracy must have 3 entries"),
    ("default_degeneracy", [0.1, "wide", 0.001], r"default_degeneracy entries must be numbers"),
    ("loop_closure_sigma", "tight", r"loop_closure_sigma entries must be numbers"),
], ids=["region-list", "region-text", "region-entry-text", "region-entry-short",
        "default-text", "loop-text"])
def test_load_world_bad_entry_names_offender(key, value, match):
    doc = {"graph": path3_graph().to_dict(), key: value}
    with pytest.raises(InputError, match=match):
        load_world(doc)


def test_world_defaults():
    g = path3_graph()
    w = WorldModel(g)
    assert np.allclose(np.diag(w.degeneracy("b")), [0.1, 0.1, 0.001])
    assert np.allclose(np.diag(w.loop_closure_covariance), DEFAULT_LOOP_SIGMA)
    assert w.hidden_edges(g) == []


def test_walk_needs_world_edges():
    g = path3_graph()
    w = WorldModel(g)
    # one message, indexed by the step, however far along the route it is
    for route, k in ((["a", "c"], 0), (["a", "b", "a", "c"], 2)):
        with pytest.raises(MismatchError,
                           match=rf"^route step {k}: world has no edge \('a', 'c'\)$"):
            simulate_walk(route, w, seed=0)


def test_walk_rejects_empty_route_and_unknown_start():
    w = WorldModel(path3_graph())
    with pytest.raises(InputError, match="route is empty"):
        simulate_walk([], w, seed=0)
    with pytest.raises(MismatchError, match="start vertex 'zz'"):
        simulate_walk(["zz"], w, seed=0)


def test_walks_name_the_first_bad_seed():
    w = WorldModel(path3_graph())
    for seeds, bad in (([0, -1, 2.0], "-1"), ([3, True], "True"), ([np.int64(4), "5"], "'5'")):
        with pytest.raises(InputError,
                           match=rf"^seed must be a non-negative integer, got {bad}$"):
            simulate_walks(["a", "b"], w, seeds)
    assert simulate_walks(["a", "b"], w, []) == []


def test_world_degeneracy_error_names_first_bad_vertex_in_id_order():
    g = path3_graph()
    bad = {"c": -np.eye(3), "b": np.diag([0.1, 0.1, np.nan]), "a": np.eye(3)}
    with pytest.raises(CovarianceError,
                       match=r"^degeneracy of 'b': covariance has non-finite entries$"):
        WorldModel(g, bad)
    with pytest.raises(CovarianceError,
                       match=r"^degeneracy of 'c': covariance must be 3x3, got \(2, 2\)$"):
        WorldModel(g, {"c": np.eye(2)})
    w = WorldModel(g, {"c": 2.0 * np.eye(3)})
    assert w.region_covs.shape == (3, 3, 3)
    assert np.array_equal(w.degeneracy("c"), 2.0 * np.eye(3))
    assert np.array_equal(w.region_covs[g.index["a"]], np.diag(DEFAULT_SIGMA_DIAG))


@functools.lru_cache(maxsize=None)
def _walk_world(name):
    """A world for random walks: a bundled environment, or a 4x4 grid whose
    covariances are turned by random rotations, so that no noise factor is
    diagonal, and whose regions 0, 1, 4 and 5 sit at the noise floor, so
    the odometry among them draws no noise."""
    if name != "grid4":
        envs = Path(__file__).resolve().parents[1] / "src" / "slamplan" / "envs"
        return load_world(str(envs / f"{name}_world.json"))
    g = gen_grid_graph(GridGraphSpec(width=4, height=4, vertex_removal=0.0,
                                     edge_removal=0.0, seed=2))
    rng = np.random.default_rng(2)

    def turned(diag):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        return q @ np.diag(diag) @ q.T

    deg = {v: turned(DEFAULT_SIGMA_DIAG) for v in g.ids}
    deg.update({v: np.eye(3) * 1e-12 for v in (0, 1, 4, 5)})
    return WorldModel(g, deg, turned(DEFAULT_LOOP_SIGMA))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(["env1", "env2", "grid4"]), start=st.integers(0, 10**6),
       turns=st.lists(st.integers(0, 7), max_size=60),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
@example(name="grid4", start=0, turns=[], seeds=[7])  # a one-vertex route
@example(name="grid4", start=0, turns=[0] * 12, seeds=[1, 2])  # back and forth
@example(name="env1", start=3, turns=[0, 0, 1, 0, 0, 1] * 4, seeds=[0, 0, 5])
def test_simulate_walks_match_per_step_reference(name, start, turns, seeds):
    # a random walk, each turn picking a neighbor by index: one batched
    # generator gives every seed the per-step sampler's edges and bits
    world = _walk_world(name)
    g = world.true_graph
    nbrs = {v: [] for v in g.ids}
    for u, v, _ in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    route = [g.ids[start % len(g.ids)]]
    for turn in turns:
        route.append(nbrs[route[-1]][turn % len(nbrs[route[-1]])])
    got = simulate_walks(route, world, seeds)
    assert len(got) == len(seeds)
    for seed, pg in zip(seeds, got):
        want = simulate_walk_per_step(route, world, seed)
        assert pg.vertex_of_pose == route
        assert _bits(pg.poses_true) == _bits(want.poses_true)
        assert _bits(pg.estimates) == _bits(want.estimates)
        for edges, want_edges in ((pg.odometry, want.odometry), (pg.loops, want.loops)):
            assert [(i, j) for i, j, _, _ in edges] == [(i, j) for i, j, _, _ in want_edges]
            for (_, _, z, cov), (_, _, wz, wcov) in zip(edges, want_edges):
                assert _bits(z) == _bits(wz)
                assert _bits(cov) == _bits(wcov)


def test_true_poses_arrival_heading():
    g = path3_graph()
    w = noiseless_world(g)
    pg = simulate_walk(["a", "b", "c", "b"], w, seed=0)
    assert np.allclose(pg.poses_true[0], [0.0, 0.0, 0.0])
    assert np.allclose(pg.poses_true[1], [1.0, 0.0, 0.0])
    assert np.allclose(pg.poses_true[2], [2.0, 0.0, 0.0])
    # the return step arrives heading along -x
    assert np.allclose(pg.poses_true[3], [1.0, 0.0, np.pi])


def test_loop_closure_targets_earliest_pose():
    g = path3_graph()
    w = noiseless_world(g)
    pg = simulate_walk(["a", "b", "c", "b", "a", "b"], w, seed=0)
    loop_pairs = [(i, j) for i, j, _, _ in pg.loops]
    assert loop_pairs == [(1, 3), (0, 4), (1, 5)]
    assert len(pg.odometry) == 5


def test_noiseless_measurements_exact():
    g = path3_graph()
    w = noiseless_world(g)
    pg = simulate_walk(["a", "b", "c", "b", "a"], w, seed=123)
    est = dead_reckon(pg)
    assert np.allclose(est, pg.poses_true, atol=1e-12)
    info = optimize_pose_graph(pg)
    assert info["converged"]
    assert np.allclose(pg.estimates[:, :2], pg.poses_true[:, :2], atol=1e-8)
    assert ape_rmse(pg.estimates, pg.poses_true) < 1e-6


def test_same_seed_bitwise_identical():
    g = path3_graph()
    w = WorldModel(g)
    pg1 = simulate_walk(["a", "b", "c", "b", "a"], w, seed=42)
    pg2 = simulate_walk(["a", "b", "c", "b", "a"], w, seed=42)
    for (i1, j1, z1, c1), (i2, j2, z2, c2) in zip(
        list(pg1.all_edges()), list(pg2.all_edges())
    ):
        assert (i1, j1) == (i2, j2)
        assert np.array_equal(z1, z2)
        assert np.array_equal(c1, c2)
    pg3 = simulate_walk(["a", "b", "c", "b", "a"], w, seed=43)
    assert not np.array_equal(pg3.odometry[0][2], pg1.odometry[0][2])


def test_plan_detour_produces_one_loop_edge():
    g = path3_graph()
    plan = plan_exploration(g, strategy="tsp_only")
    assert plan.walk.vertices == ["a", "b", "c"]
    from slamplan.loops import LoopEdgeCandidate, abstract_pose_graph, insert_loop_edges
    from slamplan.tsp import Walk

    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    plan2 = insert_loop_edges(
        apg, Walk(["a", "b", "c"], 2.0), [LoopEdgeCandidate(2, 0, 2.0, 1.0)], mc
    )
    w = noiseless_world(g)
    pg = simulate_walk(plan2.walk.vertices, w, seed=0)
    # detour c -> b -> a -> b -> c revisits three vertices
    assert len(pg.loops) == 4
    assert pg.pose_count == 7


def test_dead_reckon_is_chain_composition():
    g = path3_graph()
    w = WorldModel(g)
    pg = simulate_walk(["a", "b", "c"], w, seed=5)
    est = dead_reckon(pg)
    cur = pg.poses_true[0]
    for k, (_, _, z, _) in enumerate(pg.odometry, start=1):
        cur = compose(cur, z)
        assert np.allclose(est[k], cur, atol=1e-12)


def test_optimizer_chain_equals_dead_reckoning():
    g = path3_graph()
    w = WorldModel(g)
    pg = simulate_walk(["a", "b", "c"], w, seed=9)
    dr = dead_reckon(pg)
    info = optimize_pose_graph(pg)
    assert info["converged"]
    assert np.allclose(pg.estimates[:, :2], dr[:, :2], atol=1e-8)


def test_optimizer_descends_with_loop():
    g = path3_graph()
    w = WorldModel(g)
    pg = simulate_walk(["a", "b", "c", "b", "a"], w, seed=31)
    before = objective_per_graph(dead_reckon(pg), sim_mod._stack_edges(pg))
    info = optimize_pose_graph(pg)
    assert info["objective"] <= before + 1e-12
    assert info["converged"]
    assert info["grad_norm"] < 1e-6


def test_fim_single_edge_half_jtj():
    g = path3_graph()
    w = noiseless_world(g)
    pg = simulate_walk(["a", "b"], w, seed=0)
    pg.odometry = [(0, 1, np.array([0.0, 0.0, 0.0]), np.eye(3))]
    pg.estimates = np.zeros((2, 3))
    from slamplan.se2 import edge_jacobians

    _, b = edge_jacobians(np.zeros(3), np.zeros(3), np.zeros(3))
    expect = np.log(np.linalg.det(0.5 * b.T @ b)) / 3
    assert log_dopt_fim(pg) == pytest.approx(expect, abs=1e-12)
    pg.estimates = None
    with pytest.raises(InputError):
        log_dopt_fim(pg)
    assert log_dopt_fim(simulate_walk(["a"], w, seed=0)) == 0.0


def test_edgeless_pose_graph_keeps_its_outcome():
    # a route whose steps carry no measurement: nothing to optimize, and an
    # information matrix of zeros
    pg = simulate_walk(["a", "b", "c"], WorldModel(path3_graph()), seed=0)
    pg.odometry = []
    info = optimize_pose_graph(pg)
    assert info == {"iterations": 0, "converged": True, "objective": 0.0,
                    "grad_norm": 0.0}
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        log_dopt_fim(pg)


def test_unreached_pose_makes_normal_equations_singular():
    # the last step carries no measurement, so no edge reaches pose 2
    pg = simulate_walk(["a", "b", "c"], WorldModel(path3_graph()), seed=0)
    pg.odometry = pg.odometry[:1]
    with pytest.raises(RankDeficientError, match="normal equations singular"):
        optimize_pose_graph(copy.deepcopy(pg))
    with pytest.raises(RankDeficientError, match="rank-deficient"):
        log_dopt_fim(pg)


def test_fim_monotone_under_edge_duplication():
    g = path3_graph()
    w = WorldModel(g)
    pg = simulate_walk(["a", "b", "c", "b"], w, seed=3)
    optimize_pose_graph(pg)
    before = log_dopt_fim(pg)
    pg.loops.append(pg.loops[0])
    after = log_dopt_fim(pg)
    assert after > before


def test_fim_and_laplacian_dopt_comonotone(rng):
    # nested-graph sweep: append measurement edges one at a time and
    # track both surrogate and exact information measures
    g = random_connected_graph(rng, 6, extra_edge_prob=0.6, unit_lengths=False)
    w = WorldModel(g)
    from slamplan.tsp import TourCosts, expand_to_walk, solve_open_tsp

    mc = metric_closure(g)
    tour = solve_open_tsp(TourCosts(mc))
    walk = expand_to_walk(mc, tour.order)
    pg = simulate_walk(walk.vertices, w, seed=1)
    optimize_pose_graph(pg)

    from slamplan.loops import abstract_pose_graph

    apg = abstract_pose_graph(walk, g)
    factor = apg.factor.copy()
    prev_fim = log_dopt_fim(pg)
    prev_lap = factor.log_dopt()
    pose_pairs = [(i, j) for i in range(1, pg.pose_count) for j in range(i)]
    for i, j in pose_pairs[:6]:
        z = np.zeros(3)
        pg.loops.append((j, i, z, np.diag([0.1, 0.1, 0.001])))
        cur_fim = log_dopt_fim(pg)
        vi = apg.vertex_to_pose[pg.vertex_of_pose[i]]
        vj = apg.vertex_to_pose[pg.vertex_of_pose[j]]
        if vi != vj:
            factor.rank_one_update(46.4159, vi, vj)
        cur_lap = factor.log_dopt()
        assert cur_fim >= prev_fim - 1e-12
        assert cur_lap >= prev_lap - 1e-12
        prev_fim, prev_lap = cur_fim, cur_lap


def test_ape_examples():
    truth = np.zeros((4, 3))
    truth[:, 0] = np.arange(4)
    assert ape_rmse(truth, truth) == 0.0
    offset = truth.copy()
    offset[:, 0] += 1.0
    assert ape_rmse(offset, truth) == pytest.approx(1.0)
    two = np.zeros((2, 3))
    est = two.copy()
    est[1, 1] = 2.0
    assert ape_rmse(est, two) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(MismatchError):
        ape_rmse(np.zeros((3, 3)), np.zeros((4, 3)))


# -- lockstep oracle: the per-edge Gauss-Newton loops -----------------------


def _reference_objective(est, edges) -> float:
    total = 0.0
    for i, j, z, cov in edges:
        e = edge_residual(est[i], est[j], z)
        total += float(e @ np.linalg.solve(cov, e))
    return total


def _on_pattern(h, grad, pattern):
    """The dense ``h`` as a CSC matrix on the batched path's ``pattern``, so
    that SuperLU factors the same structure, and ``grad``."""
    indices, indptr = pattern[2], pattern[3]
    cols = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return csc_matrix((h[indices, cols], indices, indptr), shape=h.shape), grad


def _batch_of_one(pg, est=None):
    """The joint estimates and ``_Batch`` of ``pg`` alone, at ``est`` (its
    estimates by default)."""
    run = copy.copy(pg)
    if est is not None:
        run.estimates = est
    joint, parts = sim_mod._stack_batch([run])
    return joint, sim_mod._Batch(parts)


def _assembled(pg, est=None):
    """The batched path's ``H``, as a CSC matrix, and gradient of ``pg``
    alone at ``est`` (its estimates by default)."""
    joint, batch = _batch_of_one(pg, est)
    data, grad = sim_mod._assemble(joint, batch)
    return batch.matrix(0, data), grad


def _mission_pose_graph(name):
    """Optimized pose graph of one mission: ``env-strategy`` on a bundled
    environment, or ``grid-seed`` on a 6x6 grid world with log-normal
    degeneracy; ``-full`` turns every covariance by a random rotation so
    that none is diagonal."""
    kind, arg = name.split("-")[:2]
    if kind == "grid":
        seed = int(arg)
        g = gen_grid_graph(GridGraphSpec(width=6.0, height=6.0, seed=seed))
        rng = np.random.default_rng(seed)
        world = WorldModel(g, {v: np.diag(DEFAULT_SIGMA_DIAG
                                          * np.exp(rng.normal(0.0, 0.5, 3)))
                               for v in g.ids})
        log, _ = run_mission(g, world, MissionConfig(), seed=seed)
    else:
        envs = Path(__file__).resolve().parents[1] / "src" / "slamplan" / "envs"
        prior = load_prior_graph(str(envs / f"{kind}.json"))
        world = load_world(str(envs / f"{kind}_world.json"))
        log, _ = run_mission(prior, world, MissionConfig(strategy=arg), seed=4)
    pg = log.pose_graph
    if name.endswith("-full"):
        rng = np.random.default_rng(7)
        turned = []
        for i, j, z, cov in pg.loops:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            turned.append((i, j, z, q @ cov @ q.T))
        pg.loops = turned
    return pg


_ORACLE_GRAPHS = ["env1-tsp_only", "env1-slam_aware", "env2-tsp_only",
                  "env2-slam_aware", "grid-1", "grid-2", "grid-2-full"]


@pytest.mark.parametrize("name", _ORACLE_GRAPHS)
def test_batched_gauss_newton_matches_per_edge_loops(name):
    pg = _mission_pose_graph(name)
    assert pg.loops
    edges = list(pg.all_edges())
    for est in (dead_reckon(pg), pg.estimates):
        assert (sim_mod._objective(*_batch_of_one(pg, est)).tolist()
                == [_reference_objective(est, edges)])
        h, grad = _assembled(pg, est)
        ref_h, ref_grad = dense_information(pg, est)
        np.testing.assert_array_equal(h.toarray(), ref_h)
        np.testing.assert_array_equal(grad, ref_grad)
    run, ref = copy.deepcopy(pg), copy.deepcopy(pg)
    run.estimates = ref.estimates = None
    got = (optimize_pose_graph(run), run.estimates, log_dopt_fim(run))
    # per-edge loops over the run's own edges in the per-graph oracle; only
    # the CSC pattern, which SuperLU's ordering reads, comes from the
    # batched path
    ref_edges = list(ref.all_edges())

    def dense(est, _, pattern):
        return _on_pattern(*dense_information(ref, est), pattern)

    want = (optimize_pose_graph_per_graph(
                ref, lambda est, _: _reference_objective(est, ref_edges), dense),
            ref.estimates, log_dopt_fim_per_graph(ref, dense))
    (info, est, fim), (ref_info, ref_est, ref_fim) = got, want
    assert info == ref_info and info["iterations"] > 0
    np.testing.assert_array_equal(est, ref_est)
    assert fim == ref_fim


def test_simulator_calls_no_lapack(monkeypatch):
    # Mission metrics take no bit from the BLAS thread count: the simulator
    # factors no dense matrix larger than the per-edge 3x3 stacks.
    def refuse_above_3x3(fn):
        def call(a, *args, **kwargs):
            if max(np.shape(a)[-2:], default=0) > 3:
                raise AssertionError(f"LAPACK call on a {np.shape(a)} array")
            return fn(a, *args, **kwargs)
        return call

    def refuse(*args, **kwargs):
        raise AssertionError("dense Cholesky call in the simulator")

    g = gen_grid_graph(GridGraphSpec(width=6.0, height=6.0, seed=1))
    plan = plan_exploration(g)
    pg = simulate_walk(plan.walk.vertices, WorldModel(g), seed=1)
    assert pg.loops and 3 * (pg.pose_count - 1) > 3
    for name in ("cholesky", "slogdet", "det", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse_above_3x3(getattr(np.linalg, name)))
    for name in ("cho_factor", "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
        monkeypatch.setattr(sim_mod, name, refuse, raising=False)
    assert optimize_pose_graph(pg)["converged"]
    assert np.isfinite(log_dopt_fim(pg))


def _random_walk_pose_graph(seed, n, steps, turned):
    """Seeded random walk of ``steps`` steps on a random connected world of
    ``n`` vertices with log-normal degeneracy; ``turned`` turns every loop
    covariance by a random rotation so that none is diagonal."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edge_prob=0.3, unit_lengths=False)
    world = WorldModel(g, {v: np.diag(DEFAULT_SIGMA_DIAG * np.exp(rng.normal(0.0, 0.5, 3)))
                           for v in g.ids})
    nbrs = {v: [] for v in g.ids}
    for u, v, _ in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    walk = [g.start]
    for _ in range(steps):
        walk.append(nbrs[walk[-1]][int(rng.integers(len(nbrs[walk[-1]])))])
    pg = simulate_walk(walk, world, seed=seed)
    if turned:
        turned_loops = []
        for i, j, z, cov in pg.loops:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            turned_loops.append((i, j, z, q @ cov @ q.T))
        pg.loops = turned_loops
    return pg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), steps=st.integers(1, 60),
       turned=st.booleans())
def test_sparse_normal_equations_match_dense_oracle(seed, n, steps, turned):
    # Every pose with two edges sums two blocks into its diagonal, so a slot
    # that kept only one contribution moves both the step and the log det.
    pg = _random_walk_pose_graph(seed, n, steps, turned)
    dim = 3 * (pg.pose_count - 1)
    h, grad = _assembled(pg)
    lu, _ = _spd_factor(h, "singular")
    ref_h, ref_grad = dense_information(pg)
    want = np.linalg.solve(ref_h, ref_grad)
    assert np.linalg.norm(lu.solve(grad) - want) <= 1e-10 * np.linalg.norm(want)
    _, logdet = np.linalg.slogdet(0.5 * ref_h)
    assert log_dopt_fim(pg) == pytest.approx(logdet / dim, rel=0.0, abs=1e-11)


# -- lockstep batches against the per-graph oracle --------------------------


@functools.lru_cache(maxsize=None)
def _executed_route(env, strategy):
    """The route that a seed-0 mission executes on a bundled environment,
    and the environment's world."""
    envs = Path(__file__).resolve().parents[1] / "src" / "slamplan" / "envs"
    prior = load_prior_graph(str(envs / f"{env}.json"))
    world = load_world(str(envs / f"{env}_world.json"))
    log, _ = run_mission(prior, world, MissionConfig(strategy=strategy), seed=0)
    return log.pose_graph.vertex_of_pose, world


def _replayed(name, seed):
    return simulate_walk(*_executed_route(*name), seed=seed)


def _per_graph(pg):
    """The per-graph oracle on ``pg``: its run info or error, its estimates
    after the run, and its log D-opt or error."""
    try:
        info = optimize_pose_graph_per_graph(pg)
    except (DivergenceError, RankDeficientError) as err:
        info = err
    try:
        fim = log_dopt_fim_per_graph(pg)
    except RankDeficientError as err:
        fim = err
    return info, pg.estimates, fim


def _same_outcome(got, want):
    """Bit for bit: floats by ``repr``, which tells every double apart,
    signed zeros included, and errors by type and message."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return repr(got) == repr(want)


def _check_against_oracle(pgs):
    want = [_per_graph(copy.deepcopy(pg)) for pg in pgs]
    infos = sim_mod.optimize_pose_graphs(pgs)
    fims = sim_mod.log_dopt_fims(pgs)
    for pg, info, fim, (ref_info, ref_est, ref_fim) in zip(pgs, infos, fims, want):
        assert _same_outcome(info, ref_info)
        assert pg.estimates.tobytes() == ref_est.tobytes()
        assert _same_outcome(fim, ref_fim)
    return want


_ROUTES = [("env1", "slam_aware"), ("env1", "tsp_only"),
           ("env2", "slam_aware"), ("env2", "tsp_only")]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["one-route", "mixed", "one"]), data=st.data())
def test_lockstep_batches_match_the_per_graph_oracle(kind, data):
    # one route under distinct seeds shares one pattern; env1 and env2
    # routes differ in pose and edge counts, so their objective rows are
    # padded; a batch of one is what a mission's finish runs
    seed = st.integers(0, 2**32 - 1)
    if kind == "one-route":
        name = data.draw(st.sampled_from(_ROUTES))
        drawn = [(name, s) for s in data.draw(
            st.lists(seed, min_size=2, max_size=9, unique=True))]
    elif kind == "mixed":
        names = [data.draw(st.sampled_from(_ROUTES[:2])),
                 data.draw(st.sampled_from(_ROUTES[2:])),
                 *data.draw(st.lists(st.sampled_from(_ROUTES), max_size=7))]
        drawn = [(name, data.draw(seed)) for name in data.draw(st.permutations(names))]
    else:
        drawn = [(data.draw(st.sampled_from(_ROUTES)), data.draw(seed))]
    for info, _, fim in _check_against_oracle([_replayed(*d) for d in drawn]):
        assert info["iterations"] > 0 and np.isfinite(fim)


def test_failing_graphs_leave_the_rest_of_their_batch_alone():
    pgs = [_replayed(("env1", "tsp_only"), seed) for seed in range(5)]
    # A loop covariance with a skew-symmetric part: the objective reads only
    # its symmetric part, the gradient and the normal matrix all of it, so
    # near the optimum no step along the Gauss-Newton direction descends.
    i, j, z, cov = pgs[1].loops[0]
    skew = 10.0 * cov[0, 0] * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    pgs[1].loops[0] = (i, j, z, cov + skew)
    # no edge reaches the last pose
    last = pgs[3].pose_count - 1
    pgs[3].odometry = pgs[3].odometry[:-1]
    pgs[3].loops = [e for e in pgs[3].loops if last not in e[:2]]
    scored, alone = copy.deepcopy(pgs), copy.deepcopy(pgs)
    want = _check_against_oracle(pgs)
    assert [type(info) for info, _, _ in want] == [dict, DivergenceError, dict,
                                                   RankDeficientError, dict]
    # the mission's batched scoring seam: errors in their slots, the other
    # graphs scored as one at a time
    got = score_pose_graphs(scored, 1.0, 2.0, True)
    for k, outcome in enumerate(got):
        if k in (1, 3):
            assert _same_outcome(outcome, want[k][0])
        else:
            assert repr(outcome) == repr(score_pose_graph(alone[k], 1.0, 2.0, True)[1])


def test_fim_batch_records_each_graph_error():
    ok, unset, edgeless = (_replayed(("env2", "tsp_only"), 3) for _ in range(3))
    unset.estimates = None
    edgeless.odometry, edgeless.loops = [], []
    got = sim_mod.log_dopt_fims([ok, unset, edgeless])
    assert got[0] == log_dopt_fim_per_graph(ok)
    assert isinstance(got[1], InputError) and "optimize or dead-reckon" in str(got[1])
    assert isinstance(got[2], RankDeficientError) and "rank-deficient" in str(got[2])
