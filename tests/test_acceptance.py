"""Acceptance gate: one test per shipped guarantee.

Every test prints a single PASS/FAIL line with the measured numbers, then
asserts, so a plain pytest run doubles as the release report.
"""

import json
import time
from importlib import resources

import numpy as np
from numpy.random import default_rng

from slamplan.bench import (
    TIMING_COLUMNS,
    GridGraphSpec,
    bench_prune,
    compare_strategies,
    gen_grid_graph,
)
from slamplan.cli import main as cli_main
from slamplan.graph import load_prior_graph, metric_closure
from slamplan.loops import (
    abstract_pose_graph,
    enumerate_candidates,
    exact_prune_test,
    greedy_select,
    insert_loop_edges,
    log_gain_denominator,
    log_gain_numerator,
    score_from_scratch,
)
from slamplan.planner import compute_plan, plan_exploration
from slamplan.se2 import edge_jacobians, edge_residual
from slamplan.sim import (
    WorldModel,
    ape_rmse,
    load_world,
    log_dopt_fim,
    optimize_pose_graph,
    simulate_walk,
)
from slamplan.tsp import TourCosts, expand_to_walk, solve_open_tsp

from conftest import (
    brute_force_select,
    build_reduced_laplacian,
    dense_factor,
    incidence,
    random_connected_graph,
    solve_open_tsp_exact,
    spanning_tree_count,
)

ENVS = resources.files("slamplan") / "envs"


def _report(capsys, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _randomize_covs(rng, g):
    """Random diagonal covariances, drawn for the edges, then the regions."""
    d = rng.uniform(0.05, 1.5, size=(len(g.edges), 3))
    g.set_edge_covs(range(len(g.edges)), d[:, :, None] * np.eye(3))
    d = rng.uniform(0.05, 1.5, size=(len(g.ids), 3))
    g.set_region_covs(range(len(g.ids)), d[:, :, None] * np.eye(3))
    return g


def _instance(rng, n_lo, n_hi):
    """Random planning state: graph, closure, coverage walk, candidates."""
    n = int(rng.integers(n_lo, n_hi + 1))
    g = _randomize_covs(
        rng, random_connected_graph(rng, n, extra_edge_prob=0.35,
                                    unit_lengths=False)
    )
    mc = metric_closure(g)
    tour = solve_open_tsp(TourCosts(mc))
    walk = expand_to_walk(mc, tour.order)
    apg = abstract_pose_graph(walk, g)
    cands = enumerate_candidates(apg, mc)
    return g, mc, walk, apg, cands


def _env(name):
    return json.loads((ENVS / f"{name}.json").read_text())


def test_criterion_01_spanning_tree_determinant(capsys):
    rng = default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        edges = set()
        order = [int(v) for v in rng.permutation(n)]
        for a, b in zip(order[:-1], order[1:]):
            edges.add((min(a, b), max(a, b)))
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in edges and rng.random() < 0.3:
                    edges.add((i, j))
        edges = sorted(edges)
        lap = build_reduced_laplacian(n - 1, [(i, j, 1.0) for i, j in edges])
        det = float(np.linalg.det(lap))
        worst = max(worst, abs(det - spanning_tree_count(n, edges)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report(capsys, 1, "spanning-tree determinant oracle", ok,
            f"max |det - tree count| {worst:.2e} over 100 graphs, {elapsed:.2f}s")


def test_criterion_02_rank_one_logdet_identity(capsys):
    rng = default_rng(202)
    worst = 0.0
    for _ in range(1000):
        poses = int(rng.integers(3, 26))
        n = poses - 1
        factors = [(k + 1, k, float(rng.uniform(0.2, 5.0)))
                   for k in range(poses - 1)]
        for _ in range(int(rng.integers(0, 4))):
            i = int(rng.integers(1, poses))
            j = int(rng.integers(0, i))
            factors.append((i, j, float(rng.uniform(0.2, 5.0))))
        factor = dense_factor(build_reduced_laplacian(n, factors))
        i = int(rng.integers(1, poses))
        j = int(rng.integers(0, i))
        gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        b = incidence(n, i, j)
        dense = build_reduced_laplacian(n, factors) + gamma * np.outer(b, b)
        _, ref = np.linalg.slogdet(dense)
        upd = factor.copy()
        upd.rank_one_update(gamma, i, j)
        worst = max(worst, abs(upd.log_det - ref) / max(1.0, abs(ref)))
    ok = worst < 1e-9
    _report(capsys, 2, "rank-one log-det identity", ok,
            f"max relative error {worst:.2e} over 1000 triples")


def test_criterion_03_gain_factorization(capsys):
    rng = default_rng(303)
    worst, states = 0.0, 0
    while states < 200:
        g, mc, walk, apg, cands = _instance(rng, 4, 10)
        if len(cands) < 2:
            continue
        pick = rng.random(len(cands)) < 0.4
        rest = np.flatnonzero(~pick)
        if len(rest) == 0:
            continue
        z = cands.candidate(int(rest[int(rng.integers(len(rest)))]))
        subset = [cands.candidate(int(k)) for k in np.flatnonzero(pick)]
        factor = apg.factor.copy()
        d_cur = walk.length
        for c in subset:
            factor.rank_one_update(c.gamma, c.i, c.j)
            d_cur += 2.0 * c.omega
        q = factor.quad_form_batch(np.array([[z.i], [z.j]]))
        delta = np.exp(log_gain_numerator(factor, z.gamma, q)[0]
                       - log_gain_denominator(z.omega, d_cur))
        scratch = np.exp(score_from_scratch(apg, subset + [z], walk.length))
        factored = np.exp(score_from_scratch(apg, subset, walk.length)) * delta
        worst = max(worst, abs(scratch - factored) / abs(scratch))
        states += 1
    ok = worst < 1e-9
    _report(capsys, 3, "gain factorization vs from-scratch score", ok,
            f"max relative error {worst:.2e} over 200 states")


def test_criterion_04_pruning_soundness(capsys):
    rng = default_rng(404)
    checks, violations = 0, 0
    while checks < 10_000:
        g, mc, walk, apg, cands = _instance(rng, 5, 12)
        if len(cands) < 2:
            continue
        mask = exact_prune_test(apg.factor, walk.length, cands)[2]
        pruned = [cands.candidate(int(k)) for k in np.flatnonzero(~mask)]
        survivors = [cands.candidate(int(k)) for k in np.flatnonzero(mask)]
        if not pruned:
            continue
        m = min(len(survivors), 7)
        for code in range(1 << m):
            subset = [survivors[k] for k in range(m) if code >> k & 1]
            d_plan = walk.length + 2.0 * sum(c.omega for c in subset)
            if d_plan > 2.0 * walk.length:
                continue
            base = score_from_scratch(apg, subset, walk.length)
            for e in pruned:
                if score_from_scratch(apg, subset + [e], walk.length) > base + 1e-12:
                    violations += 1
                checks += 1
    ok = violations == 0
    _report(capsys, 4, "pruning never discards an improving candidate", ok,
            f"{violations} violations in {checks} subset checks")


def test_criterion_05_pruned_unpruned_equivalence(capsys):
    rng = default_rng(505)
    agree = 0
    for _ in range(50):
        g, mc, walk, apg, cands = _instance(rng, 5, 10)
        a = greedy_select(apg, cands, walk, mc, pruning=True)
        b = greedy_select(apg, cands, walk, mc, pruning=False)
        same_seq = [(c.i, c.j) for c in a.selected] == \
                   [(c.i, c.j) for c in b.selected]
        if same_seq and abs(a.log_objective - b.log_objective) < 1e-9:
            agree += 1
    ok = agree == 50
    _report(capsys, 5, "pruned and unpruned selections agree", ok,
            f"{agree}/50 identical sequences")


def test_criterion_06_pruning_benchmark(capsys):
    # Each 15x15 instance is timed 3 times, and the speedup is the median
    # over instances of each one's median: one timing each moved the figure
    # by a quarter between runs of the same code.
    t0 = time.perf_counter()
    ratios = {10: [], 15: []}
    speedups = []
    for size in (10, 15):
        for seed in range(5):
            graph = gen_grid_graph(GridGraphSpec(width=size, height=size, seed=seed))
            reps = [bench_prune(graph) for _ in range(3 if size == 15 else 1)]
            ratios[size].append(reps[0].ratio)
            if size == 15:
                speedups.append(np.median([r.speedup for r in reps]))
    elapsed = time.perf_counter() - t0
    mean10 = float(np.mean(ratios[10]))
    mean15 = float(np.mean(ratios[15]))
    speedup = float(np.median(speedups))
    ok = (max(ratios[10]) <= 0.15 and max(ratios[15]) <= 0.12
          and mean15 < mean10 and speedup >= 3.0 and elapsed < 120.0)
    _report(capsys, 6, "survivor ratios shrink and pruning pays", ok,
            f"10x10 {mean10:.1%}, 15x15 {mean15:.1%}, "
            f"speedup {speedup:.1f}x, {elapsed:.1f}s")


def test_criterion_07_greedy_vs_exhaustive(capsys):
    rng = default_rng(707)
    done, worst = 0, np.inf
    while done < 50:
        g, mc, walk, apg, cands = _instance(rng, 4, 7)
        if not 1 <= len(cands) <= 18:
            continue
        res = greedy_select(apg, cands, walk, mc)
        _, best, _ = brute_force_select(apg, cands, walk)
        worst = min(worst, np.exp(res.log_objective) / best)
        done += 1
    ok = worst >= 0.95
    _report(capsys, 7, "greedy within 5% of exhaustive optimum", ok,
            f"worst greedy/optimal ratio {worst:.4f} over 50 instances")


def test_criterion_08_tour_heuristic_vs_exact(capsys):
    rng = default_rng(808)
    equal = 0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 6)),
                                   extra_edge_prob=0.5, unit_lengths=False)
        costs = TourCosts(metric_closure(g))
        if solve_open_tsp(costs).length <= solve_open_tsp_exact(costs).length + 1e-9:
            equal += 1
    worst = 1.0
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(6, 13)),
                                   extra_edge_prob=0.4, unit_lengths=False)
        costs = TourCosts(metric_closure(g))
        worst = max(worst, solve_open_tsp(costs).length
                    / solve_open_tsp_exact(costs).length)
    ok = equal >= 90 and worst <= 1.3
    _report(capsys, 8, "tour heuristic vs exact solver", ok,
            f"exact on {equal}/100 small, worst ratio {worst:.3f} on 20 larger")


def test_criterion_09_simulator_stack(capsys):
    doc = {
        "vertices": [{"id": "a", "x": 0.0, "y": 0.0},
                     {"id": "b", "x": 1.0, "y": 0.0},
                     {"id": "c", "x": 2.0, "y": 0.0}],
        "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}],
        "start": "a",
    }
    g = load_prior_graph(doc)
    tiny = {v: np.eye(3) * 1e-12 for v in g.ids}
    world = WorldModel(g, tiny, np.eye(3) * 1e-12)
    pg = simulate_walk(["a", "b", "c", "b", "a"], world, seed=9)
    optimize_pose_graph(pg)
    ape = ape_rmse(pg.estimates, pg.poses_true)

    rng = default_rng(909)
    jac_err = 0.0
    h = 1e-6
    for _ in range(50):
        xi = np.append(rng.uniform(-2, 2, 2), rng.uniform(-0.8, 0.8))
        xj = np.append(rng.uniform(-2, 2, 2), rng.uniform(-0.8, 0.8))
        z = np.append(rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5))
        ja, jb = edge_jacobians(xi, xj, z)
        num_a, num_b = np.empty((3, 3)), np.empty((3, 3))
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = h
            num_a[:, k] = (edge_residual(xi + dp, xj, z)
                           - edge_residual(xi - dp, xj, z)) / (2 * h)
            num_b[:, k] = (edge_residual(xi, xj + dp, z)
                           - edge_residual(xi, xj - dp, z)) / (2 * h)
        jac_err = max(jac_err, np.abs(ja - num_a).max(),
                      np.abs(jb - num_b).max())

    rng = default_rng(7)
    tested = mono_bad = 0
    for _ in range(30):
        g2 = random_connected_graph(rng, int(rng.integers(5, 9)),
                                    extra_edge_prob=0.3, unit_lengths=False)
        out = compute_plan(g2)
        if out.greedy is None or not out.greedy.selected:
            continue
        apg, mc, sel = out.apg, out.closure, out.greedy.selected
        walk = expand_to_walk(mc, out.tour.order)
        world2 = WorldModel(g2)
        prev_lap = prev_fim = None
        for k in range(len(sel) + 1):
            lap = build_reduced_laplacian(
                apg.n,
                apg.weighted_edges + [(c.i, c.j, c.gamma) for c in sel[:k]],
            )
            _, logdet = np.linalg.slogdet(lap)
            ld_lap = logdet / apg.n
            plan_k = insert_loop_edges(apg, walk, sel[:k], mc)
            pg_k = simulate_walk(plan_k.walk.vertices, world2, seed=5)
            optimize_pose_graph(pg_k)
            ld_fim = log_dopt_fim(pg_k)
            if prev_lap is not None and not (ld_lap > prev_lap
                                             and ld_fim > prev_fim):
                mono_bad += 1
            prev_lap, prev_fim = ld_lap, ld_fim
        tested += 1
        if tested >= 7:
            break

    ok = ape < 1e-6 and jac_err < 1e-6 and mono_bad == 0 and tested >= 5
    _report(capsys, 9, "simulator exactness and information monotonicity", ok,
            f"noiseless APE {ape:.2e}, jacobian err {jac_err:.2e}, "
            f"loop actions raised both D-opts on {tested} instances")


def test_criterion_10_strategy_ordering(capsys):
    t0 = time.perf_counter()
    prior = load_prior_graph(_env("env1"))
    world = load_world(_env("env1_world"))
    s = compare_strategies(prior, world, range(20)).summary
    elapsed = time.perf_counter() - t0
    ok = (s["mean_ape_slam_aware"] < s["mean_ape_tsp_only"]
          and s["improved_seeds"] >= 15
          and s["distance_overhead"] <= 0.35
          and elapsed < 180.0)
    _report(capsys, 10, "planned loops beat bare coverage on env1", ok,
            f"APE {s['mean_ape_slam_aware']:.2f} vs {s['mean_ape_tsp_only']:.2f}, "
            f"improved {s['improved_seeds']}/20, "
            f"overhead {s['distance_overhead']:.1%}, {elapsed:.0f}s")


def test_criterion_11_detour_budget_audit(capsys):
    audited = violations = 0
    for size in (10, 15):
        for seed in range(5):
            g = gen_grid_graph(GridGraphSpec(width=size, height=size,
                                             seed=seed))
            audited += 1
            violations += not plan_exploration(g).assumption_ok
    for name in ("env1", "env2", "env3", "env4"):
        audited += 1
        violations += not plan_exploration(load_prior_graph(_env(name))).assumption_ok
    ok = violations == 0 and audited == 14
    _report(capsys, 11, "every plan stays within twice the base tour", ok,
            f"{audited - violations}/{audited} instances within budget")


def _strip_timing_columns(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = [k for k, col in enumerate(header) if col not in TIMING_COLUMNS]
    out = []
    for ln in lines:
        cells = ln.split(",")
        out.append(",".join(cells[k] for k in keep if k < len(cells)))
    return "\n".join(out)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    graph_p = tmp_path / "g.json"
    world_p = tmp_path / "w.json"
    spec_p = tmp_path / "s.json"
    graph_p.write_text(json.dumps(_env("env2")))
    world_p.write_text(json.dumps(_env("env2_world")))
    spec_p.write_text(json.dumps({"width": 5, "height": 5, "seed": 3}))
    runs = {
        "plan": ["plan", str(graph_p)],
        "simulate": ["simulate", str(graph_p), str(world_p), "--seed", "4"],
        "gen-graph": ["gen-graph", str(spec_p)],
        "bench-prune": ["bench-prune", str(spec_p)],
        "compare": ["compare", str(graph_p), str(world_p), "--seeds", "2"],
    }
    unstable = []
    for name, args in runs.items():
        outs = []
        for r in range(2):
            out = tmp_path / f"{name}.{r}"
            assert cli_main(args + ["--out", str(out)]) == 0
            text = out.read_text()
            if name == "bench-prune":
                text = _strip_timing_columns(text)
            outs.append(text)
        if outs[0] != outs[1]:
            unstable.append(name)
    ok = not unstable
    _report(capsys, 12, "CLI reruns are byte-identical", ok,
            "all 5 subcommands stable" if ok else f"unstable: {unstable}")
