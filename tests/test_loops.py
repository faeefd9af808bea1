import numpy as np
import pytest

from slamplan import loops
from slamplan.errors import MismatchError, SizeLimitError
from slamplan.graph import load_prior_graph, metric_closure
from slamplan.laplacian import incidence_column, information_weights
from slamplan.loops import (
    LoopEdgeCandidate,
    abstract_pose_graph,
    brute_force_select,
    enumerate_candidates,
    greedy_select,
    insert_loop_edges,
    omega_max,
    prune_candidates,
    prune_mask,
    quad_forms,
    score_from_scratch,
    selection_delta,
)
from slamplan.tsp import TourCosts, Walk, expand_to_walk, solve_open_tsp

from conftest import random_connected_graph


def unitize(g):
    """Identity covariances everywhere: every factor weight becomes 1."""
    eye = np.eye(3)
    for u, v, _ in g.edges:
        g.set_edge_cov(u, v, eye)
    for vid in g.ids:
        g.set_region_cov(vid, eye)
    return g


def randomize_covs(rng, g):
    for u, v, _ in g.edges:
        d = rng.uniform(0.05, 1.5, size=3)
        g.set_edge_cov(u, v, np.diag(d))
    for vid in g.ids:
        d = rng.uniform(0.05, 1.5, size=3)
        g.set_region_cov(vid, np.diag(d))
    return g


def pipeline(g):
    mc = metric_closure(g)
    tour = solve_open_tsp(TourCosts(mc))
    walk = expand_to_walk(mc, tour.order)
    apg = abstract_pose_graph(walk, g)
    cands = enumerate_candidates(apg, mc)
    return mc, walk, apg, cands


def random_instance(rng, n_lo=4, n_hi=10, randomized=True):
    n = int(rng.integers(n_lo, n_hi + 1))
    g = random_connected_graph(rng, n, extra_edge_prob=0.35,
                               unit_lengths=False)
    if randomized:
        randomize_covs(rng, g)
    else:
        unitize(g)
    return (g,) + pipeline(g)


def path3_unit():
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
    return unitize(load_prior_graph(doc))


def triangle_unit(ac_length=1.0):
    doc = {
        "vertices": [
            {"id": "a", "x": 0.0, "y": 0.0},
            {"id": "b", "x": 1.0, "y": 0.0},
            {"id": "c", "x": 0.5, "y": 0.9},
        ],
        "edges": [
            {"u": "a", "v": "b", "length": 1.0},
            {"u": "b", "v": "c", "length": 1.0},
            {"u": "a", "v": "c", "length": ac_length},
        ],
        "start": "a",
    }
    return unitize(load_prior_graph(doc))


# -- abstraction ---------------------------------------------------------


def test_abstract_path_walk():
    g = path3_unit()
    mc = metric_closure(g)
    walk = Walk(["a", "b", "c"], 2.0)
    apg = abstract_pose_graph(walk, g)
    assert apg.pose_to_vertex == ["a", "b", "c"]
    assert apg.n == 2
    assert apg.edges == {(1, 0), (2, 1)}
    assert np.exp(apg.factor.log_det) == pytest.approx(1.0)
    del mc


def test_abstract_triangle_walk_full_cover():
    g = triangle_unit()
    walk = Walk(["a", "b", "c", "a"], 3.0)
    apg = abstract_pose_graph(walk, g)
    assert apg.pose_count == 3
    assert len(apg.weighted_edges) == 3
    assert np.exp(apg.factor.log_det) == pytest.approx(3.0)


def test_abstract_dedups_revisits():
    g = path3_unit()
    walk = Walk(["a", "b", "a", "b", "c"], 4.0)
    apg = abstract_pose_graph(walk, g)
    assert apg.pose_to_vertex == ["a", "b", "c"]
    assert apg.edges == {(1, 0), (2, 1)}


# -- candidate enumeration ----------------------------------------------


def test_complete_cover_leaves_no_candidates():
    g = triangle_unit()
    mc = metric_closure(g)
    walk = Walk(["a", "b", "c", "a"], 3.0)
    apg = abstract_pose_graph(walk, g)
    cands = enumerate_candidates(apg, mc)
    assert len(cands) == 0


def test_path_walk_single_candidate():
    g = path3_unit()
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cands = enumerate_candidates(apg, mc)
    assert len(cands) == 1
    c = cands.candidate(0)
    assert (c.i, c.j) == (2, 0)
    assert c.omega == pytest.approx(2.0)


def test_candidate_count_identity(rng):
    for _ in range(15):
        g, mc, walk, apg, cands = random_instance(rng)
        p = apg.pose_count
        assert len(cands) == p * (p - 1) // 2 - len(apg.edges)
        # sorted lexicographically by (i, j)
        pairs = list(zip(cands.i.tolist(), cands.j.tolist()))
        assert pairs == sorted(pairs)


def test_candidates_reject_stale_closure():
    g = path3_unit()
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    g.set_region_cov("a", np.diag([2.0, 2.0, 0.02]))
    g.set_edge_cov("a", "b", np.diag([2.0, 2.0, 0.02]))
    assert mc.fresh()
    enumerate_candidates(apg, mc)
    g.add_edge("a", "c", length=2.0)
    with pytest.raises(MismatchError):
        enumerate_candidates(apg, mc)


def test_candidate_gamma_values():
    # a candidate's gamma is the information weight of the endpoint mean of
    # its two regions' matrices
    doc = {
        "vertices": [{"id": k, "x": k, "y": 0} for k in range(3)],
        "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2}],
        "start": 0,
    }
    g = load_prior_graph(doc)

    def gamma():
        mc = metric_closure(g)
        cands = enumerate_candidates(abstract_pose_graph(Walk([0, 1, 2], 2.0), g), mc)
        assert (cands.i.tolist(), cands.j.tolist()) == ([2], [0])
        assert cands.gamma[0] == information_weights(g.pair_covs([2], [0]))[0]
        return cands.gamma[0]

    # both regions at the default diag(0.1, 0.1, 0.001)
    assert gamma() == pytest.approx(46.4159, abs=1e-3)
    g.set_region_cov(2, np.diag([1.0, 1.0, 0.01]))
    assert gamma() == pytest.approx(8.44, abs=0.01)


# -- gain and pruning ----------------------------------------------------


def test_delta_vanishing_gamma():
    g = path3_unit()
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cand = LoopEdgeCandidate(2, 0, 1.5, 0.0)
    expect = 1.0 / (1.0 + 2.0 * 1.5 / 2.0)
    assert selection_delta(cand, apg.factor, 2.0) == pytest.approx(expect)


def test_delta_worked_three_pose_example():
    # Path walk over a triangle whose untraversed side has length 1:
    # q = 2, numerator sqrt(3), denominator 1 + 2*1/2 = 2.
    g = triangle_unit()
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cands = enumerate_candidates(apg, mc)
    assert len(cands) == 1
    c = cands.candidate(0)
    assert c.omega == pytest.approx(1.0)
    delta = selection_delta(c, apg.factor, 2.0)
    assert delta == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)
    # direct Eq-style check: 1.732 > 1.5, so the candidate survives
    mask = prune_mask(apg.factor, 2.0, cands)
    assert mask.tolist() == [True]
    assert len(prune_candidates(apg.factor, 2.0, cands)) == 1


def test_omega_max_cap():
    g = triangle_unit()
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cands = enumerate_candidates(apg, mc)
    cap = omega_max(apg.factor, 2.0, cands)
    assert cap == pytest.approx(2.0 * (np.sqrt(3.0) - 1.0), rel=1e-12)


def test_pruning_drops_distant_candidate():
    # Long untraversed side: the closure routes around it (omega 2), and
    # sqrt(3) <= 1 + 2/2 so the candidate is dropped.
    g = triangle_unit(ac_length=2.5)
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cands = enumerate_candidates(apg, mc)
    assert cands.candidate(0).omega == pytest.approx(2.0)
    assert prune_mask(apg.factor, 2.0, cands).tolist() == [False]


def test_delta_factorization(rng):
    checked = 0
    while checked < 60:
        g, mc, walk, apg, cands = random_instance(rng)
        if len(cands) == 0:
            continue
        pick = rng.uniform(size=len(cands)) < 0.3
        z_idx = int(rng.integers(len(cands)))
        pick[z_idx] = False
        subset_idx = np.flatnonzero(pick)
        subset = [cands.candidate(k) for k in subset_idx]
        z = cands.candidate(z_idx)
        factor = apg.factor.copy()
        for c in subset:
            factor.rank_one_update(c.gamma, incidence_column(apg.n, c.i, c.j))
        d_cur = walk.length + 2.0 * sum(c.omega for c in subset)
        delta = selection_delta(z, factor, d_cur)
        log_with = score_from_scratch(apg, subset + [z], walk.length)
        log_without = score_from_scratch(apg, subset, walk.length)
        assert log_with == pytest.approx(log_without + np.log(delta), abs=1e-9)
        checked += 1


def test_pruning_soundness_subsets(rng):
    checks = 0
    while checks < 2000:
        g, mc, walk, apg, cands = random_instance(rng, 4, 8)
        if len(cands) < 2:
            continue
        mask = prune_mask(apg.factor, walk.length, cands)
        pruned = [cands.candidate(k) for k in np.flatnonzero(~mask)]
        survivors = [cands.candidate(k) for k in np.flatnonzero(mask)]
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
                with_e = score_from_scratch(apg, subset + [e], walk.length)
                assert with_e <= base + 1e-12
                checks += 1


# -- greedy selection ----------------------------------------------------


def test_greedy_empty_candidates():
    g = triangle_unit()
    mc = metric_closure(g)
    walk = Walk(["a", "b", "c", "a"], 3.0)
    apg = abstract_pose_graph(walk, g)
    cands = enumerate_candidates(apg, mc)
    res = greedy_select(apg, cands, walk, mc)
    assert res.selected == []
    assert res.plan.objective == pytest.approx(apg.factor.dopt() / 3.0)
    assert res.plan.walk.vertices == walk.vertices


def test_greedy_single_beneficial_candidate():
    g = triangle_unit(ac_length=0.2)
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cands = enumerate_candidates(apg, mc)
    res = greedy_select(apg, cands, Walk(["a", "b", "c"], 2.0), mc)
    assert [(c.i, c.j) for c in res.selected] == [(2, 0)]
    expect = np.sqrt(3.0) / (2.0 + 2.0 * 0.2)
    assert res.plan.objective == pytest.approx(expect, rel=1e-9)


def test_greedy_incremental_consistency(rng):
    done = 0
    while done < 12:
        g, mc, walk, apg, cands = random_instance(rng)
        res = greedy_select(apg, cands, walk, mc)
        if not res.selected:
            continue
        log_j = apg.factor.log_dopt() - np.log(walk.length)
        for k, (_, _, log_delta) in enumerate(res.trace.selections):
            assert log_delta > 0.0
            log_j += log_delta
            oracle = score_from_scratch(apg, res.selected[: k + 1], walk.length)
            assert log_j == pytest.approx(oracle, abs=1e-9)
        assert log_j == pytest.approx(res.log_objective, abs=1e-12)
        assert len(res.selected) <= len(cands)
        done += 1


def test_greedy_pruning_equivalence(rng):
    for _ in range(50):
        g, mc, walk, apg, cands = random_instance(rng)
        with_p = greedy_select(apg, cands, walk, mc, pruning=True)
        without = greedy_select(apg, cands, walk, mc, pruning=False)
        seq_p = [(c.i, c.j) for c in with_p.selected]
        seq_n = [(c.i, c.j) for c in without.selected]
        assert seq_p == seq_n
        assert with_p.log_objective == pytest.approx(
            without.log_objective, abs=1e-12
        )


def test_greedy_trace_monotone_chain(rng):
    for _ in range(10):
        g, mc, walk, apg, cands = random_instance(rng)
        res = greedy_select(apg, cands, walk, mc)
        t = res.trace
        assert t.initial_candidates >= t.after_omega_max >= t.after_prop1 >= 0
        assert t.initial_candidates == len(cands)


def test_greedy_first_prune_is_prune_mask_and_omega_max(rng):
    # The greedy's first filtering pass, prune_mask and omega_max must be
    # one test: same survivors, same detour cap.
    checked = 0
    while checked < 40:
        g, mc, walk, apg, cands = random_instance(rng, 5, 12)
        if len(cands) < 2:
            continue
        trace = greedy_select(apg, cands, walk, mc).trace
        mask = prune_mask(apg.factor, walk.length, cands)
        cap = omega_max(apg.factor, walk.length, cands)
        assert trace.after_prop1 == int(mask.sum())
        assert trace.after_omega_max == int((cands.omega <= cap).sum())
        checked += 1


def test_quad_forms_chunked_match_one_batch(rng, monkeypatch):
    g, mc, walk, apg, cands = random_instance(rng, 9, 10)
    assert len(cands) > 7
    whole = apg.factor.quad_form_batch(cands.incidence_matrix(np.arange(len(cands))))
    monkeypatch.setattr(loops, "_CHUNK_ELEMENTS", 3 * apg.n)  # 3 columns per chunk
    np.testing.assert_allclose(quad_forms(apg.factor, cands), whole, rtol=1e-13)
    idx = np.arange(1, len(cands), 2)
    np.testing.assert_allclose(quad_forms(apg.factor, cands, idx), whole[idx],
                               rtol=1e-13)
    single = [apg.factor.quad_form(incidence_column(apg.n, c.i, c.j)) for c in cands]
    np.testing.assert_allclose(whole, single, rtol=1e-12)


def test_greedy_matches_brute_force(rng):
    done = 0
    while done < 25:
        g, mc, walk, apg, cands = random_instance(rng, 4, 8)
        if len(cands) > 14:
            continue
        res = greedy_select(apg, cands, walk, mc)
        _, best, best_log = brute_force_select(apg, cands, walk)
        assert res.plan.objective >= 0.95 * best - 1e-12
        done += 1


def test_brute_force_matches_independent_recompute(rng):
    while True:
        g, mc, walk, apg, cands = random_instance(rng, 5, 7)
        if 4 <= len(cands) <= 10:
            break
    chosen, best, best_log = brute_force_select(apg, cands, walk)
    # independent pass over every subset through the dense oracle
    m = len(cands)
    ref_log, ref_code = -np.inf, 0
    for code in range(1 << m):
        subset = [cands.candidate(k) for k in range(m) if code >> k & 1]
        s = score_from_scratch(apg, subset, walk.length)
        if s > ref_log:
            ref_log, ref_code = s, code
    assert best_log == pytest.approx(ref_log, abs=1e-9)
    assert sorted((c.i, c.j) for c in chosen) == sorted(
        (cands.candidate(k).i, cands.candidate(k).j)
        for k in range(m) if ref_code >> k & 1
    )


def test_brute_force_size_cap(rng):
    while True:
        g, mc, walk, apg, cands = random_instance(rng, 9, 12)
        if len(cands) > 20:
            break
    with pytest.raises(SizeLimitError):
        brute_force_select(apg, cands, walk)


# -- plan assembly -------------------------------------------------------


def test_insert_no_selection_returns_walk():
    g = path3_unit()
    mc = metric_closure(g)
    walk = Walk(["a", "b", "c"], 2.0)
    apg = abstract_pose_graph(walk, g)
    plan = insert_loop_edges(apg, walk, [], mc)
    assert plan.walk.vertices == walk.vertices
    assert plan.walk.length == pytest.approx(2.0)
    assert plan.actions == []
    assert plan.assumption_ok
    # a one-pose walk scores 1, from scratch as in the greedy
    one = Walk(["a"], 0.0)
    apg = abstract_pose_graph(one, g)
    assert insert_loop_edges(apg, one, [], mc).objective == 1.0
    res = greedy_select(apg, enumerate_candidates(apg, mc), one, mc)
    assert res.plan.objective == 1.0


def test_insert_detour_on_path():
    g = path3_unit()
    mc = metric_closure(g)
    walk = Walk(["a", "b", "c"], 2.0)
    apg = abstract_pose_graph(walk, g)
    cand = LoopEdgeCandidate(2, 0, 2.0, 1.0)
    plan = insert_loop_edges(apg, walk, [cand], mc)
    assert plan.walk.vertices == ["a", "b", "c", "b", "a", "b", "c"]
    assert plan.walk.length == pytest.approx(6.0)
    assert plan.actions[0].anchor == "c" and plan.actions[0].target == "a"
    # detour doubles the distance bookkeeping exactly
    assert plan.base_distance == pytest.approx(plan.d_tsp + 2.0 * 2.0)
    assert not plan.assumption_ok  # 6 > 2 * 2


def test_insert_shared_anchor_increasing_omega():
    doc = {
        "vertices": [{"id": k, "x": float(k), "y": 0.0} for k in range(4)],
        "edges": [
            {"u": 0, "v": 1, "length": 1.0},
            {"u": 1, "v": 2, "length": 1.0},
            {"u": 2, "v": 3, "length": 1.0},
        ],
        "start": 0,
    }
    g = unitize(load_prior_graph(doc))
    mc = metric_closure(g)
    walk = Walk([0, 1, 2, 3], 3.0)
    apg = abstract_pose_graph(walk, g)
    far = LoopEdgeCandidate(3, 0, 3.0, 1.0)
    near = LoopEdgeCandidate(3, 1, 2.0, 1.0)
    plan = insert_loop_edges(apg, walk, [far, near], mc)
    assert [a.target for a in plan.actions] == [1, 0]
    assert plan.walk.vertices == [
        0, 1, 2, 3, 2, 1, 2, 3, 2, 1, 0, 1, 2, 3
    ]
    assert plan.walk.length == pytest.approx(3.0 + 2.0 * (2.0 + 3.0))


def test_plan_document_schema():
    g = path3_unit()
    mc = metric_closure(g)
    walk = Walk(["a", "b", "c"], 2.0)
    apg = abstract_pose_graph(walk, g)
    plan = insert_loop_edges(apg, walk, [LoopEdgeCandidate(2, 0, 2.0, 1.0)], mc)
    doc = plan.to_dict()
    assert sorted(doc) == [
        "actions", "assumption_ok", "base_distance", "d_tsp", "objective", "walk"
    ]
    assert sorted(doc["actions"][0]) == ["anchor", "gamma", "omega", "target"]
