import csv
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slamplan import bench, mission
from slamplan.bench import (
    TIMING_COLUMNS,
    ComparisonResult,
    GridGraphSpec,
    PruneReport,
    bench_prune,
    compare_strategies,
    gen_grid_graph,
    prune_report_csv,
)
from slamplan.errors import DivergenceError, InputError
from slamplan.graph import load_prior_graph, metric_closure
from slamplan.loops import (
    abstract_pose_graph,
    enumerate_candidates,
    exact_prune_test,
)
from slamplan.sim import WorldModel, load_world, simulate_walk
from slamplan.tsp import TourCosts, expand_to_walk, solve_open_tsp

from conftest import compare_per_pair


def test_spec_from_dict_rejects_unknown_keys():
    spec = GridGraphSpec.from_dict({"width": 5, "height": 4, "seed": 3})
    assert spec.width == 5 and spec.height == 4 and spec.seed == 3
    with pytest.raises(InputError, match="bogus"):
        GridGraphSpec.from_dict({"bogus": 1})


def test_grid_defaults_vertex_count_range():
    for seed in range(5):
        g = gen_grid_graph(GridGraphSpec(seed=seed))
        assert 85 <= len(g) <= 105
        metric_closure(g)  # connected or this raises


def test_exact_grid_without_removal():
    spec = GridGraphSpec(
        width=10.0, height=10.0, vertex_removal=0.0, edge_removal=0.0,
        position_noise_sigma=0.0,
    )
    g = gen_grid_graph(spec)
    assert len(g) == 100
    assert len(g.edges) == 2 * 10 * 9
    xs = sorted({p[0] for p in g.positions})
    assert xs == [float(k) for k in range(10)]


def test_grid_same_seed_identical():
    a = gen_grid_graph(GridGraphSpec(seed=11))
    b = gen_grid_graph(GridGraphSpec(seed=11))
    assert list(a.ids) == list(b.ids)
    assert a.edges == b.edges
    assert np.array_equal(a.positions, b.positions)
    c = gen_grid_graph(GridGraphSpec(seed=12))
    assert list(c.ids) != list(a.ids) or not np.array_equal(
        c.positions, a.positions
    )


def test_grid_too_small_rejected():
    with pytest.raises(InputError):
        gen_grid_graph(GridGraphSpec(width=1.0, height=1.0))


@pytest.mark.parametrize("key", ["width", "height", "cell", "seed"])
def test_spec_value_beyond_float_range_rejected(key):
    with pytest.raises(InputError, match=f"^grid spec '{key}' must be a finite number, got 1000"):
        GridGraphSpec.from_dict({key: 10**400})


# The 1e9 x 1e9 grid, which a regression would try to build, is tested in a
# subprocess in test_cli.py.
@pytest.mark.parametrize("spec, match", [
    (GridGraphSpec(width=101, height=100), "grid of 101x100 cells is above the 10000-cell limit"),
    (GridGraphSpec(width=1e308, cell=1e-10),
     "grid of 1e+308 x 10.0 in cells of 1e-10 has no finite cell count"),
    (GridGraphSpec(width=10**400), "in cells of 1.0 has no finite cell count"),
], ids=["101x100", "infinite-ratio", "huge-int-width"])
def test_grid_above_cell_limit_rejected(spec, match):
    with pytest.raises(InputError, match=re.escape(match)):
        gen_grid_graph(spec)


def test_grid_at_cell_limit_builds():
    g = gen_grid_graph(GridGraphSpec(width=100, height=100))
    assert 9000 <= len(g) <= 9600


def test_bench_prune_small_graph():
    g = gen_grid_graph(GridGraphSpec(width=2, height=2, vertex_removal=0.0,
                                     edge_removal=0.0))
    report = bench_prune(g)
    assert report.num_vertices == 4
    assert report.num_candidates <= 3
    assert report.after_prop1 <= report.after_omega_max <= report.num_candidates


@pytest.mark.parametrize("seed,counts", [(0, (4371, 1257, 342)),
                                         (1, (4369, 1191, 263))])
def test_bench_prune_counts_are_the_exact_prune_test(seed, counts):
    # The greedy's first sweep counts bound survivors; the report counts
    # those of the exact prune test on the same instance.
    g = gen_grid_graph(GridGraphSpec(width=10, height=10, seed=seed))
    report = bench_prune(g)
    closure = metric_closure(g)
    walk = expand_to_walk(closure, solve_open_tsp(TourCosts(closure)).order)
    apg = abstract_pose_graph(walk, g)
    cands = enumerate_candidates(apg, closure)
    cap, _, keep = exact_prune_test(apg.factor, walk.length, cands)
    assert report.num_candidates == len(cands)
    assert report.after_omega_max == int((cands.omega <= cap).sum())
    assert report.after_prop1 == int(keep.sum())
    assert (report.num_candidates, report.after_omega_max, report.after_prop1) == counts


def test_bench_prune_monotone_chain_and_csv():
    reports = [
        bench_prune(gen_grid_graph(GridGraphSpec(width=5, height=5, seed=s)))
        for s in range(3)
    ]
    for r in reports:
        assert r.after_prop1 <= r.after_omega_max <= r.num_candidates
        assert r.t_prune > 0 and r.t_no_prune > 0
    text = prune_report_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "vertices", "candidates", "after_omega_max", "after_prop1", "ratio",
        "selected", "per_iteration", "t_prune_s", "t_no_prune_s", "speedup",
    ]
    assert len(rows) == 4
    for col in TIMING_COLUMNS:
        assert col in rows[0]


def test_compare_needs_two_seeds(path3):
    world = WorldModel(path3)
    with pytest.raises(InputError):
        compare_strategies(path3, world, [0])


@pytest.mark.parametrize("seeds, match", [
    ([1, 1], r"at least 2 seeds, all distinct, got \[1, 1\]"),
    ([2, 1, 2], r"at least 2 seeds, all distinct, got \[1, 2, 2\]"),
    ([0, -3], "seed must be a non-negative integer, got -3"),
    ([0, 2.0], "seed must be a non-negative integer, got 2.0"),
], ids=["one-distinct", "repeated", "negative", "float"])
def test_compare_checks_seeds_before_any_mission(monkeypatch, path3, seeds, match):
    def no_mission(*args, **kwargs):
        raise AssertionError("a mission ran before the seeds were checked")

    monkeypatch.setattr(bench, "run_mission", no_mission)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", no_mission)
    with pytest.raises(InputError, match=match):
        compare_strategies(path3, WorldModel(path3), seeds)


@pytest.mark.parametrize("workers", [0, -2, True, False, 2.0, "2"])
def test_compare_checks_workers_before_any_mission(monkeypatch, path3, workers):
    def no_mission(*args, **kwargs):
        raise AssertionError("a mission ran before the worker count was checked")

    monkeypatch.setattr(bench, "run_mission", no_mission)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", no_mission)
    with pytest.raises(InputError, match=re.escape(
            f"workers must be a positive integer, got {workers!r}")):
        compare_strategies(path3, WorldModel(path3), [0, 1], workers=workers)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace the process pool with one that runs its jobs in-process and
    records its size and the job count of each ``map``."""
    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.record = [max_workers]
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            self.record.append(len(jobs))
            return map(fn, jobs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Pool)
    return pools


@pytest.mark.parametrize("workers, cores, seeds, pools", [
    (64, 2, range(10), [[2, 2]]),
    (64, 2, [0, 1], [[2, 2]]),
    (3, 2, range(10), [[2, 2]]),
    (None, 64, range(10), [[2, 2]]),
    (None, 2, range(10), [[2, 2]]),
    (1, 64, range(10), []),
], ids=["capped", "capped-two-seeds", "below-jobs", "default-capped",
        "default-cores", "one-in-process"])
def test_compare_pool_never_outnumbers_its_jobs(monkeypatch, recorded_pools,
                                                workers, cores, seeds, pools):
    # one pool makes one map of one job per strategy: its mission, then
    # one batch of replays over all other seeds; the pool is never larger
    # than the job count, whatever the seed count
    monkeypatch.setattr(bench, "_usable_cores", lambda: cores)
    g = gen_grid_graph(GridGraphSpec(width=4, height=4, seed=6))
    res = compare_strategies(g, WorldModel(g), seeds, workers=workers)
    assert recorded_pools == pools
    assert len(res.rows) == 2 * len(seeds)


def _compare_instance(name):
    if name == "grid4":
        g = gen_grid_graph(GridGraphSpec(width=4, height=4, seed=6))
        return g, WorldModel(g)
    envs = Path(__file__).resolve().parents[1] / "src" / "slamplan" / "envs"
    return (load_prior_graph(str(envs / f"{name}.json")),
            load_world(str(envs / f"{name}_world.json")))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(name=st.sampled_from(["env1", "grid4"]),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4, unique=True))
def test_compare_matches_one_mission_per_pair(name, seeds):
    prior, world = _compare_instance(name)
    want = compare_per_pair(prior, world, seeds).to_csv()
    for workers in (1, 2):
        assert compare_strategies(prior, world, seeds, workers=workers).to_csv() == want


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_matches_one_mission_per_pair_on_env2(workers):
    prior, world = _compare_instance("env2")
    seeds = [31, 2, 9]
    want = compare_per_pair(prior, world, seeds).to_csv()
    assert compare_strategies(prior, world, seeds, workers=workers).to_csv() == want


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad", [0, 5], ids=["mission-seed", "replayed-seed"])
def test_compare_raises_the_reference_exception(monkeypatch, workers, bad):
    # scoring diverges under one seed, whether its pose graph comes from the
    # mission (scored alone) or from a replay (scored in its strategy's
    # batch); the first error in job order is raised
    prior, world = _compare_instance("env1")
    score, score_batch = mission.score_pose_graph, mission.score_pose_graphs

    def drawn_under_bad(pg):
        odometry = slice(pg.pose_count - 1)
        drawn = simulate_walk(pg.vertex_of_pose, world, bad).z[odometry]
        return np.array_equal(pg.z[odometry], drawn)

    def diverge_under_bad(pg, *decided):
        if drawn_under_bad(pg):
            raise DivergenceError(f"seed {bad}, {pg.pose_count} poses")
        return score(pg, *decided)

    def diverge_under_bad_in_batch(pgs, *decided):
        return [DivergenceError(f"seed {bad}, {pg.pose_count} poses")
                if drawn_under_bad(pg) else scored
                for pg, scored in zip(pgs, score_batch(pgs, *decided))]

    monkeypatch.setattr(mission, "score_pose_graph", diverge_under_bad)
    monkeypatch.setattr(mission, "score_pose_graphs", diverge_under_bad_in_batch)
    seeds = [7, bad, 2, 11]
    with pytest.raises(DivergenceError) as want:
        compare_per_pair(prior, world, seeds)
    with pytest.raises(DivergenceError) as got:
        compare_strategies(prior, world, seeds, workers=workers)
    assert str(got.value) == str(want.value)


def test_compare_rows_sorted_and_summary(path3):
    from slamplan.bench import gen_grid_graph as gen

    g = gen(GridGraphSpec(width=4, height=4, seed=5))
    world = WorldModel(g)
    res = compare_strategies(g, world, [1, 0], workers=1)
    keys = [(r["seed"], r["strategy"]) for r in res.rows]
    assert keys == sorted(keys)
    assert res.summary["total_seeds"] == 2
    assert set(res.summary) >= {
        "mean_ape_slam_aware", "mean_ape_tsp_only", "std_ape_slam_aware",
        "std_ape_tsp_only", "mean_distance_slam_aware",
        "mean_distance_tsp_only", "improved_seeds", "distance_overhead",
        "assumption_ok_all",
    }
    text = res.to_csv()
    header = text.splitlines()[0].split(",")
    assert header == [
        "seed", "strategy", "n_pose", "k", "ape_rmse", "d_total",
        "dopt_predicted", "dopt_fim", "assumption_ok",
    ]


def test_compare_parallel_matches_serial(path3):
    from slamplan.bench import gen_grid_graph as gen

    g = gen(GridGraphSpec(width=4, height=4, seed=6))
    world = WorldModel(g)
    serial = compare_strategies(g, world, [0, 1], workers=1)
    parallel = compare_strategies(g, world, [0, 1], workers=2)
    assert serial.to_csv() == parallel.to_csv()


def test_compare_on_one_usable_core_builds_no_pool(monkeypatch):
    # The default worker count follows the affinity mask, as the tour's
    # threads do, so a process pinned to one core runs the missions in-process.
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool built with one usable core")

    monkeypatch.setattr(bench, "_usable_cores", lambda: 1)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
    g = gen_grid_graph(GridGraphSpec(width=4, height=4, seed=6))
    res = compare_strategies(g, WorldModel(g), [0, 1])
    assert len(res.rows) == 4


def test_prune_report_speedup_property():
    r = PruneReport(
        num_vertices=4, num_candidates=3, after_omega_max=2, after_prop1=1,
        ratio=1 / 3, selected=1, t_prune=0.5, t_no_prune=2.0,
    )
    assert r.speedup == pytest.approx(4.0)


def test_comparison_result_is_plain_data():
    res = ComparisonResult(rows=[], summary={"total_seeds": 2})
    assert "total_seeds" in res.to_csv()
