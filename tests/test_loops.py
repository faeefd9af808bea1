from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from slamplan import loops
from slamplan.bench import GridGraphSpec, gen_grid_graph
from slamplan.errors import MismatchError
from slamplan.graph import load_prior_graph, metric_closure
from slamplan.laplacian import LaplacianFactor, information_weights
from slamplan.loops import (
    GreedyTrace,
    LoopEdgeCandidate,
    abstract_pose_graph,
    enumerate_candidates,
    exact_prune_test,
    greedy_select,
    insert_loop_edges,
    log_gain_denominator,
    log_gain_numerator,
    path_resistance,
    prune_test,
    quad_forms,
    score_from_scratch,
)
from slamplan.mission import Mission, MissionConfig
from slamplan.planner import STRATEGIES, compute_plan
from slamplan.sim import WorldModel
from slamplan.tsp import TourCosts, Walk, expand_to_walk, solve_open_tsp

from conftest import (
    brute_force_select,
    build_reduced_laplacian,
    enumerate_candidates_per_pair,
    incidence,
    random_connected_graph,
)


def unitize(g):
    """Identity covariances everywhere: every factor weight becomes 1."""
    g.set_edge_covs(range(len(g.edges)), np.tile(np.eye(3), (len(g.edges), 1, 1)))
    g.set_region_covs(range(len(g.ids)), np.tile(np.eye(3), (len(g.ids), 1, 1)))
    return g


def randomize_covs(rng, g):
    """Random diagonal covariances, drawn for the edges, then the regions."""
    d = rng.uniform(0.05, 1.5, size=(len(g.edges), 3))
    g.set_edge_covs(range(len(g.edges)), d[:, :, None] * np.eye(3))
    d = rng.uniform(0.05, 1.5, size=(len(g.ids), 3))
    g.set_region_covs(range(len(g.ids)), d[:, :, None] * np.eye(3))
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
    g.set_region_covs([g.index["a"]], np.diag([2.0, 2.0, 0.02])[None])
    g.set_edge_covs([g.edge_row("a", "b")], np.diag([2.0, 2.0, 0.02])[None])
    assert mc.fresh()
    enumerate_candidates(apg, mc)
    g.add_edge("a", "c", length=2.0)
    with pytest.raises(MismatchError):
        enumerate_candidates(apg, mc)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_plan_rejects_a_stale_or_foreign_closure(strategy):
    g = gen_grid_graph(GridGraphSpec(width=5.0, height=5.0, seed=0))
    other = g.copy()
    mc = metric_closure(g)
    compute_plan(g, strategy, closure=mc)
    with pytest.raises(MismatchError):
        compute_plan(other, strategy, closure=mc)  # the closure of another graph
    u, v = g.ids[0], g.ids[-1]
    assert not g.has_edge(u, v)
    g.add_edge(u, v, length=1.0)
    with pytest.raises(MismatchError):
        compute_plan(g, strategy, closure=mc)  # predates the new edge


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
    g.set_region_covs([g.index[2]], np.diag([1.0, 1.0, 0.01])[None])
    assert gamma() == pytest.approx(8.44, abs=0.01)


def random_spd(rng, k):
    """``k`` random symmetric positive-definite 3x3 matrices."""
    m = rng.normal(size=(k, 3, 3))
    s = m @ m.transpose(0, 2, 1)
    return 0.5 * (s + s.transpose(0, 2, 1)) + 0.1 * np.eye(3)


def signed_zero_twins(rng):
    """A diagonal matrix and its copy with -0.0 off the diagonal: equal in
    value, different in bytes."""
    base = np.diag(rng.uniform(0.05, 1.5, size=3))
    twin = base.copy()
    twin[0, 1] = twin[1, 0] = -0.0
    assert np.array_equal(base, twin) and base.tobytes() != twin.tobytes()
    return np.stack([base, twin])


def prior_after_visits(rng, g, visits):
    """The prior of a mission on ``g`` after the robot has gone to
    ``visits`` random vertices, each arrival a ``degeneracy_update``: the
    visited regions hold their own matrices and the unvisited ones share
    one fallback."""
    world = WorldModel(g, dict(zip(g.ids, random_spd(rng, len(g.ids)))))
    mission = Mission(g, world, MissionConfig(), seed=int(rng.integers(1 << 16)))
    for v in rng.choice(len(g.ids), size=visits):
        mission._goto(g.ids[v])
    return mission.prior


def assert_same_candidates(got, want):
    for name in ("i", "j", "omega", "gamma"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       extra=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
       regions=st.sampled_from(["one", "few", "distinct", "signed-zero", "mission"]),
       prefix=st.one_of(st.none(), st.integers(1, 4)))
def test_candidates_match_the_per_candidate_oracle(seed, n, extra, regions, prefix):
    # Weights computed once per ordered pair of region-matrix groups and
    # gathered per candidate carry the bits of each candidate's own pair
    # covariance weight, whether the walk's regions share one matrix, a
    # few, none, differ only in the sign of a zero, or were written by a
    # mission.  A ``prefix`` of the walk cuts it short; one vertex leaves
    # a one-pose walk and no candidate.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edge_prob=extra, unit_lengths=False)
    if regions == "mission":
        g = prior_after_visits(rng, g, visits=min(n, 4))
    else:
        pool = {"one": lambda: random_spd(rng, 1),
                "few": lambda: random_spd(rng, 3),
                "distinct": lambda: random_spd(rng, n),
                "signed-zero": lambda: signed_zero_twins(rng)}[regions]()
        pick = np.arange(n) if regions == "distinct" else rng.integers(len(pool), size=n)
        g.set_region_covs(range(n), pool[pick])
    mc, walk, apg, cands = pipeline(g)
    if prefix is not None:
        apg = abstract_pose_graph(Walk(walk.vertices[:prefix], 0.0), g)
        cands = enumerate_candidates(apg, mc)
    assert_same_candidates(cands, enumerate_candidates_per_pair(apg, mc))
    if apg.pose_count == 1:
        assert len(cands) == 0


def _count_weights(monkeypatch) -> list:
    """Record the stack size of every ``information_weights`` call made by
    the loops module."""
    sizes = []

    def counted(covs):
        sizes.append(len(covs))
        return information_weights(covs)

    monkeypatch.setattr(loops, "information_weights", counted)
    return sizes


def test_one_region_matrix_gives_one_weight(monkeypatch):
    # A generated grid's regions all keep the default matrix, so its
    # thousands of candidates share one weight, computed once.
    g = gen_grid_graph(GridGraphSpec(width=10, height=10, seed=0))
    mc, walk, apg, _ = pipeline(g)
    sizes = _count_weights(monkeypatch)
    cands = enumerate_candidates(apg, mc)
    assert len(cands) > 4000 and sizes == [1]
    assert_same_candidates(cands, enumerate_candidates_per_pair(apg, mc))


def test_signed_zero_regions_are_not_merged(monkeypatch):
    # Groups are told apart by bytes: a region with -0.0 off the diagonal
    # is its own group, so a tree whose regions alternate between the twins
    # has all four ordered pairs of groups among its candidates.
    n = 6
    g = random_connected_graph(np.random.default_rng(0), n, extra_edge_prob=0.0)
    g.set_region_covs(range(n), signed_zero_twins(np.random.default_rng(1))[np.arange(n) % 2])
    mc, walk, apg, _ = pipeline(g)
    sizes = _count_weights(monkeypatch)
    cands = enumerate_candidates(apg, mc)
    assert sizes == [4]
    assert_same_candidates(cands, enumerate_candidates_per_pair(apg, mc))


# -- gain and pruning ----------------------------------------------------


def test_delta_vanishing_gamma():
    g = path3_unit()
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    q = apg.factor.quad_form_batch(np.array([[2], [0]]))
    log_delta = log_gain_numerator(apg.factor, 0.0, q) - log_gain_denominator(1.5, 2.0)
    expect = 1.0 / (1.0 + 2.0 * 1.5 / 2.0)
    assert np.exp(log_delta[0]) == pytest.approx(expect)


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
    q = apg.factor.quad_form_batch(np.array([[c.i], [c.j]]))
    delta = np.exp(log_gain_numerator(apg.factor, c.gamma, q)[0]
                   - log_gain_denominator(c.omega, 2.0))
    assert delta == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)
    # direct Eq-style check: 1.732 > 1.5, so the candidate survives
    mask = exact_prune_test(apg.factor, 2.0, cands)[2]
    assert mask.tolist() == [True]


def test_omega_max_cap():
    g = triangle_unit()
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cands = enumerate_candidates(apg, mc)
    cap = exact_prune_test(apg.factor, 2.0, cands)[0]
    assert cap == pytest.approx(2.0 * (np.sqrt(3.0) - 1.0), rel=1e-12)


def test_pruning_drops_distant_candidate():
    # Long untraversed side: the closure routes around it (omega 2), and
    # sqrt(3) <= 1 + 2/2 so the candidate is dropped.
    g = triangle_unit(ac_length=2.5)
    mc = metric_closure(g)
    apg = abstract_pose_graph(Walk(["a", "b", "c"], 2.0), g)
    cands = enumerate_candidates(apg, mc)
    assert cands.candidate(0).omega == pytest.approx(2.0)
    assert exact_prune_test(apg.factor, 2.0, cands)[2].tolist() == [False]


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
            factor.rank_one_update(c.gamma, c.i, c.j)
        d_cur = walk.length + 2.0 * sum(c.omega for c in subset)
        q = factor.quad_form_batch(np.array([[z.i], [z.j]]))
        delta = np.exp(log_gain_numerator(factor, z.gamma, q)[0]
                       - log_gain_denominator(z.omega, d_cur))
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
        mask = exact_prune_test(apg.factor, walk.length, cands)[2]
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
    assert res.plan.objective == pytest.approx(np.exp(apg.factor.log_dopt()) / 3.0)
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


@pytest.mark.parametrize("pruning", [True, False])
def test_greedy_log_deltas_are_the_shared_gain(pruning):
    # Replayed on a copy of the walk's factor, each selection's log gain is
    # log_gain_numerator minus log_gain_denominator, bit for bit, in the
    # lazy sweeps and in the unpruned ones, which solve every live candidate.
    g = gen_grid_graph(GridGraphSpec(width=10, height=10, seed=0))
    mc, walk, apg, cands = pipeline(g)
    res = greedy_select(apg, cands, walk, mc, pruning=pruning)
    assert len(res.selected) >= 2
    factor = apg.factor.copy()
    d_cur = walk.length
    for c, (_, _, log_delta) in zip(res.selected, res.trace.selections):
        q = factor.quad_form_batch(np.array([[c.i], [c.j]]))
        num = log_gain_numerator(factor, np.array([c.gamma]), q)
        den = log_gain_denominator(np.array([c.omega]), d_cur)
        assert log_delta == float((num - den)[0])
        factor.rank_one_update(c.gamma, c.i, c.j)
        d_cur += 2.0 * c.omega


def test_greedy_pruning_equivalence(rng):
    # Bit for bit: pruning and the lazy sweeps only save solves.
    for _ in range(50):
        g, mc, walk, apg, cands = random_instance(rng)
        with_p = greedy_select(apg, cands, walk, mc, pruning=True)
        without = greedy_select(apg, cands, walk, mc, pruning=False)
        assert with_p.selected == without.selected
        assert with_p.trace.selections == without.trace.selections
        assert with_p.log_objective == without.log_objective


def test_greedy_trace_monotone_chain(rng):
    for _ in range(10):
        g, mc, walk, apg, cands = random_instance(rng)
        res = greedy_select(apg, cands, walk, mc)
        t = res.trace
        assert t.initial_candidates >= t.after_prop1 >= 0
        assert t.initial_candidates == len(cands)
        assert t.per_iteration == sorted(t.per_iteration, reverse=True)


def test_greedy_first_prune_is_prune_mask_and_omega_max(rng):
    # The greedy's first filtering pass runs on path-resistance bounds: it
    # keeps at least what the exact prune test keeps, and nothing it selects
    # lies past the cap omega_max.
    checked = 0
    while checked < 40:
        g, mc, walk, apg, cands = random_instance(rng, 5, 12)
        if len(cands) < 2:
            continue
        res = greedy_select(apg, cands, walk, mc)
        cap, _, mask = exact_prune_test(apg.factor, walk.length, cands)
        assert res.trace.after_prop1 >= int(mask.sum())
        assert all(c.omega <= cap for c in res.selected)
        checked += 1


def near_singular_covs(rng, g):
    """Random diagonal covariances, each with one axis shrunk by 1e-6 to
    1e-9, so that factor weights spread over decades."""
    def cov():
        d = rng.uniform(0.05, 1.5, size=3)
        d[rng.integers(3)] *= 10.0 ** rng.uniform(-9.0, -6.0)
        return np.diag(d)

    g.set_edge_covs(range(len(g.edges)), [cov() for _ in g.edges])
    g.set_region_covs(range(len(g.ids)), [cov() for _ in g.ids])
    return g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
       extra=st.sampled_from([0.0, 0.1, 0.3, 0.6]), unit_lengths=st.booleans(),
       scale=st.sampled_from([1.0, 1000.0]),
       covs=st.sampled_from(["unit", "random", "near-singular"]))
def test_path_resistance_bounds_quad_forms(seed, n, extra, unit_lengths, scale, covs):
    # Rayleigh monotonicity: the resistance along one path is at least the
    # effective resistance b^T L^{-1} b, up to rounding the slack absorbs,
    # so the first sweep's bound is at least the solved form of every
    # candidate.  Tied (unit) lengths give tied paths; on a tree (extra
    # 0.0) each pair has one path and the two agree to 1e-12.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edge_prob=extra,
                               unit_lengths=unit_lengths, scale=scale)
    {"unit": unitize, "random": lambda h: randomize_covs(rng, h),
     "near-singular": lambda h: near_singular_covs(rng, h)}[covs](g)
    mc, walk, apg, cands = pipeline(g)
    quad = quad_forms(apg.factor, cands)
    ub = path_resistance(apg, cands)
    assert np.all(ub * (1.0 + loops._BOUND_SLACK) >= quad)
    assert np.all(ub >= quad * (1.0 - 1e-12))
    if extra == 0.0:
        np.testing.assert_allclose(ub, quad, rtol=1e-12, atol=0.0)


def test_path_resistance_is_tight_on_trees(rng):
    # On a tree every pose pair has a single path, so the bound equals the
    # solved quadratic form up to rounding, which may put it just below:
    # hence the slack in the first sweep.
    checked = 0
    while checked < 20:
        g = randomize_covs(rng, random_connected_graph(
            rng, int(rng.integers(4, 12)), extra_edge_prob=0.0, unit_lengths=False))
        mc, walk, apg, cands = pipeline(g)
        if len(cands) == 0:
            continue
        quad = quad_forms(apg.factor, cands)
        ub = path_resistance(apg, cands)
        np.testing.assert_allclose(ub, quad, rtol=1e-12, atol=0.0)
        assert np.all(ub * (1.0 + loops._BOUND_SLACK) >= quad)
        checked += 1


def _count_columns(monkeypatch) -> list:
    """Record the pair count of every ``quad_form_batch`` call."""
    solved = []
    batch = LaplacianFactor.quad_form_batch

    def counted(self, pairs):
        solved.append(pairs.shape[1])
        return batch(self, pairs)

    monkeypatch.setattr(LaplacianFactor, "quad_form_batch", counted)
    return solved


def _solve_everything(factor, cands):
    """Exact gain numerators of every candidate, solved at once."""
    return log_gain_numerator(factor, cands.gamma, quad_forms(factor, cands))


@pytest.mark.parametrize("size,seed", [(10, 0), (10, 1), (15, 0), (15, 1)])
def test_first_sweep_bound_solves_less_and_changes_nothing(monkeypatch, size,
                                                           seed):
    g = gen_grid_graph(GridGraphSpec(width=size, height=size, seed=seed))
    mc, walk, apg, cands = pipeline(g)
    solved = _count_columns(monkeypatch)
    fast = greedy_select(apg, cands, walk, mc)
    assert 0 < sum(solved) < len(cands) / 10
    assert min(solved) >= 2
    # the bound keeps every exact survivor
    keep = exact_prune_test(apg.factor, walk.length, cands)[2]
    assert fast.trace.after_prop1 >= int(keep.sum())
    plain = greedy_select(apg, cands, walk, mc, pruning=False)
    assert fast.selected and fast.selected == plain.selected
    assert fast.trace.selections == plain.trace.selections  # log-delta bits too
    assert fast.log_objective == plain.log_objective


def test_first_sweep_bound_on_small_instances(rng):
    # On small sets too, the bounded greedy's selections and objective stay
    # those of solving every live candidate on every sweep.
    for _ in range(40):
        g, mc, walk, apg, cands = random_instance(rng, 5, 12)
        _assert_lockstep(greedy_select(apg, cands, walk, mc),
                         _eager_greedy(apg, cands, walk))


def _lone_candidate_triangle():
    g = triangle_unit(ac_length=0.2)
    mc = metric_closure(g)
    walk = Walk(["a", "b", "c"], 2.0)
    apg = abstract_pose_graph(walk, g)
    cands = enumerate_candidates(apg, mc)
    assert len(cands) == 1
    return mc, walk, apg, cands


def test_first_sweep_solves_a_lone_column_alone(monkeypatch):
    # A quadratic form rounds the same alone as in a batch, so a lone bound
    # survivor is evaluated by itself.
    mc, walk, apg, cands = _lone_candidate_triangle()
    solved = _count_columns(monkeypatch)
    result = greedy_select(apg, cands, walk, mc)
    assert solved == [1]
    (_, _, log_delta), = result.trace.selections
    # b^T L^-1 b = 2 over a detour of 0.2 m each way on a 2 m walk
    assert log_delta == pytest.approx(np.log(3.0) / 2 - np.log(1.2), abs=1e-15)


def test_unbounded_sweeps_solve_a_lone_column_alone(monkeypatch):
    # In the unpruned greedy, which solves every live candidate, a lone
    # live candidate is evaluated by itself, as in the lazy sweeps.
    mc, walk, apg, cands = _lone_candidate_triangle()
    solved = _count_columns(monkeypatch)
    result = greedy_select(apg, cands, walk, mc, pruning=False)
    assert result.selected and solved == [1]


def _eager_greedy(apg, cands, walk):
    """Reference: the pruned greedy before lazy sweeps, which solves every
    live candidate on every sweep, the first included.  Returns (selected,
    trace, log objective)."""
    factor = apg.factor.copy()
    d_tsp = d_cur = walk.length
    m = len(cands)
    trace = GreedyTrace(m)
    selected = []
    log_j = factor.log_dopt() - float(np.log(d_tsp))
    alive = np.ones(m, dtype=bool)
    while alive.any():
        idx = np.flatnonzero(alive)
        lognum = log_gain_numerator(factor, cands.gamma[idx],
                                    quad_forms(factor, cands, idx))
        keep = prune_test(d_tsp, cands.omega[idx], lognum)[2]
        alive[idx[~keep]] = False
        idx = idx[keep]
        lognum = lognum[keep]
        if len(idx) == 0:
            break
        trace.per_iteration.append(len(idx))
        log_delta = lognum - log_gain_denominator(cands.omega[idx], d_cur)
        best = int(np.argmax(log_delta))
        if log_delta[best] <= 0.0:
            break
        k = int(idx[best])
        cand = cands.candidate(k)
        factor.rank_one_update(cand.gamma, cand.i, cand.j)
        d_cur += 2.0 * cand.omega
        log_j += float(log_delta[best])
        selected.append(cand)
        trace.selections.append((cand.i, cand.j, float(log_delta[best])))
        alive[k] = False
    return selected, trace, log_j


def _assert_lockstep(lazy, eager):
    selected, trace, log_j = eager
    assert lazy.selected == selected
    assert lazy.trace.selections == trace.selections  # log-delta bits too
    assert lazy.log_objective == log_j
    # the bounds keep every candidate the exact prune test keeps
    assert len(lazy.trace.per_iteration) >= len(trace.per_iteration)
    assert all(a >= b for a, b in zip(lazy.trace.per_iteration, trace.per_iteration))


# Fewest loops each grid's greedy must select for its lockstep check to
# compare a real sequence: 9, except the 10x10 seed-1 walk (93.17 m), on
# which the greedy selects 7.
_LOCKSTEP_MIN_SELECTED = {(10, 0): 9, (10, 1): 7, (15, 0): 9, (15, 1): 9,
                          (20, 0): 9, (20, 1): 9}


@pytest.mark.parametrize("size,seed", list(_LOCKSTEP_MIN_SELECTED))
def test_lazy_greedy_lockstep_on_grids(monkeypatch, size, seed):
    g = gen_grid_graph(GridGraphSpec(width=size, height=size, seed=seed))
    mc, walk, apg, cands = pipeline(g)
    solved = _count_columns(monkeypatch)
    lazy = greedy_select(apg, cands, walk, mc)
    lazy_columns = sum(solved)
    solved.clear()
    eager = _eager_greedy(apg, cands, walk)
    assert len(lazy.selected) >= _LOCKSTEP_MIN_SELECTED[size, seed]
    _assert_lockstep(lazy, eager)
    # The lazy greedy solves 2-5% of the eager loop's columns on these grids.
    assert lazy_columns <= sum(solved) / 10


@pytest.mark.parametrize("env", ["env1", "env3"])
def test_lazy_greedy_lockstep_on_bundled_maps(env):
    # The bundled maps are small (33 poses x 528 candidates on env1, 19 x
    # 171 on env3) and both plans select loops: the bounded greedy picks
    # the eager loop's sequence there too, log-delta bits and all.
    g = load_prior_graph(str(resources.files("slamplan") / "envs" / f"{env}.json"))
    mc, walk, apg, cands = pipeline(g)
    lazy = greedy_select(apg, cands, walk, mc)
    assert lazy.selected
    _assert_lockstep(lazy, _eager_greedy(apg, cands, walk))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
       extra=st.sampled_from([0.0, 0.1, 0.3, 0.6]), unit_lengths=st.booleans(),
       scale=st.sampled_from([1.0, 1000.0]), covs=st.sampled_from(["unit", "random"]),
       first_batch=st.sampled_from([1, 64]))
def test_lazy_greedy_matches_eager(seed, n, extra, unit_lengths, scale, covs,
                                   first_batch):
    # Tied lengths and unit covariances make ties in the gain, which the
    # lazy sweeps must break as the eager loop does; 1000 m cells keep the
    # gains small against the detours.  One-column first batches put ties
    # and lone columns at batch edges.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edge_prob=extra,
                               unit_lengths=unit_lengths, scale=scale)
    (unitize if covs == "unit" else lambda h: randomize_covs(rng, h))(g)
    mc, walk, apg, cands = pipeline(g)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(loops, "_LAZY_BATCH", first_batch)
        lazy = greedy_select(apg, cands, walk, mc)
        _assert_lockstep(lazy, _eager_greedy(apg, cands, walk))


def test_lazy_solve_reaches_a_tied_bound(monkeypatch):
    # A bound equal to the best exact gain is solved: its candidate may tie
    # the best with a smaller (i, j), which the greedy must then pick.  On
    # a star every leaf pair has b^T L^-1 b = 2 exactly.
    g = unitize(load_prior_graph({
        "vertices": [{"id": v, "x": float(k), "y": 0.0} for k, v in enumerate("abcd")],
        "edges": [{"u": "a", "v": v, "length": 1.0} for v in "bcd"],
        "start": "a",
    }))
    mc = metric_closure(g)
    walk = Walk(["a", "b", "a", "c", "a", "d"], 5.0)
    apg = abstract_pose_graph(walk, g)
    cands = enumerate_candidates(apg, mc)
    exact = _solve_everything(apg.factor, cands)
    assert len(cands) == 3 and exact[0] == exact[1] > 0.0
    monkeypatch.setattr(loops, "_LAZY_BATCH", 1)
    idx = np.array([0, 1])
    lognum = np.full(3, -np.inf)
    lognum[idx] = exact[idx] + [0.0, 1.0]  # candidate 1 first; 0's bound is exact
    solved = loops._solve_while_bound_wins(apg.factor, cands, lognum, idx,
                                           np.zeros(2))
    assert solved.tolist() == [0, 1]
    assert np.array_equal(lognum[idx], exact[idx])


def _full_sort_solve(factor, cands, lognum, idx, den):
    """Reference: ``_solve_while_bound_wins`` as it was before it sorted
    only the bounds at or above ``_LOG_TOL``, with a stable descending sort
    of every bound."""
    bound = lognum[idx] - den
    order = np.argsort(-bound, kind="stable")
    done, step, best = 0, loops._LAZY_BATCH, loops._LOG_TOL
    while done < len(order) and bound[order[done]] >= best:
        part = order[done : done + step]
        part = part[bound[part] >= best]
        loops._solve_columns(factor, cands, lognum, idx[part])
        best = max(best, float(np.max(lognum[idx[part]] - den[part])))
        done, step = done + len(part), 2 * step
    return np.sort(order[:done])


def _record_pairs(monkeypatch) -> list:
    """Record the pose pairs of every ``quad_form_batch`` call."""
    calls = []
    batch = LaplacianFactor.quad_form_batch

    def recorded(self, pairs):
        calls.append(np.array(pairs))
        return batch(self, pairs)

    monkeypatch.setattr(LaplacianFactor, "quad_form_batch", recorded)
    return calls


def _sweep_like_the_reference(monkeypatch, apg, cands, idx, start, den):
    """Run both sweeps from numerators ``start`` at ``idx``; assert they
    solve the same positions, send the same columns to ``quad_form_batch``
    and leave the same numerators.  Returns the solved positions."""
    calls = _record_pairs(monkeypatch)
    out = []
    for sweep in (loops._solve_while_bound_wins, _full_sort_solve):
        lognum = np.full(len(cands), np.nan)
        lognum[idx] = start
        calls.clear()
        solved = sweep(apg.factor, cands, lognum, idx, den)
        out.append((solved.tolist(), [c.tolist() for c in calls], lognum[idx].tobytes()))
    assert out[0] == out[1]
    return out[0][0]


@pytest.fixture(scope="module")
def grid5():
    g = gen_grid_graph(GridGraphSpec(width=5, height=5, seed=0))
    mc, walk, apg, cands = pipeline(g)
    return apg, cands


# name: (numerators, distance term, first batch, positions solved).  A
# distance term of 10 puts every solved gain below 0, so the best stays at
# _LOG_TOL and every bound at it is solved, batch after batch.
_SWEEP_CASES = {
    "bounds at the tolerance": ([10.0, 9.0, 10.0, 10.0, 8.0, 10.0], 10.0, 1, [0, 2, 3, 5]),
    "signed zero bounds": ([0.0, -0.0, -1.0, -0.0], 0.0, 64, [0, 1, 3]),
    "tied bounds, one column first": ([0.5] * 7, 0.0, 1, list(range(7))),
    "tied bounds below a winner": ([0.5, 3.0, 0.5, 0.5, -1.0], 0.0, 2, [0, 1, 2, 3]),
    "all bounds negative": ([-1.0, -0.5, -3.0, -1e-300], 0.0, 64, []),
    "a single bound": ([0.25], 0.0, 64, [0]),
    "a single bound at the tolerance": ([10.0], 10.0, 64, [0]),
    "a single negative bound": ([-0.25], 0.0, 64, []),
}


@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_lazy_sweep_matches_the_full_sort(monkeypatch, grid5, case):
    apg, cands = grid5
    start, den, first, expect = _SWEEP_CASES[case]
    monkeypatch.setattr(loops, "_LAZY_BATCH", first)
    idx = np.arange(0, 5 * len(start), 5)
    assert _sweep_like_the_reference(monkeypatch, apg, cands, idx, np.asarray(start),
                                     np.full(len(start), den)) == expect


def test_lazy_sweep_matches_the_full_sort_on_random_bounds(monkeypatch, grid5, rng):
    # Bounds drawn from few offsets around the solved gains of the grid's
    # candidates, ties and signed zeros among them, against varied first
    # batches and distance terms.
    apg, cands = grid5
    exact = _solve_everything(apg.factor, cands)
    partial = 0
    for _ in range(60):
        monkeypatch.setattr(loops, "_LAZY_BATCH", int(rng.choice([1, 2, 64])))
        k = int(rng.integers(1, 40))
        idx = np.sort(rng.choice(len(cands), size=k, replace=False))
        den = rng.choice([0.0, 0.01, 10.0], size=k)
        start = exact[idx] + rng.choice([-0.0, 0.0, 1e-3, 0.05, -0.05], size=k)
        solved = _sweep_like_the_reference(monkeypatch, apg, cands, idx, start, den)
        partial += 0 < len(solved) < k
    assert partial >= 10  # most draws solve some of their bounds, not all


def test_quad_forms_chunked_match_one_batch(rng, monkeypatch):
    g, mc, walk, apg, cands = random_instance(rng, 9, 10)
    assert len(cands) > 7
    whole = apg.factor.quad_form_batch(np.stack((cands.i, cands.j)))
    monkeypatch.setattr(loops, "_CHUNK_ELEMENTS", 3 * apg.n)  # 3 columns per chunk
    np.testing.assert_array_equal(quad_forms(apg.factor, cands), whole)
    idx = np.arange(1, len(cands), 2)
    np.testing.assert_array_equal(quad_forms(apg.factor, cands, idx), whole[idx])
    lap = build_reduced_laplacian(apg.n, apg.weighted_edges)
    single = [b @ np.linalg.solve(lap, b)
              for b in (incidence(apg.n, i, j) for i, j in zip(cands.i, cands.j))]
    np.testing.assert_allclose(whole, single, rtol=1e-12)


def test_quad_forms_chunks_are_near_equal(rng, monkeypatch):
    g, mc, walk, apg, cands = random_instance(rng, 9, 10)
    monkeypatch.setattr(loops, "_CHUNK_ELEMENTS", 3 * apg.n)  # 3 columns per chunk
    solved = _count_columns(monkeypatch)
    quad_forms(apg.factor, cands, np.arange(7))
    assert solved == [3, 2, 2]  # not 3, 3 and 1
    solved.clear()
    quad_forms(apg.factor, cands, np.arange(1))
    quad_forms(apg.factor, cands, np.arange(0))
    assert solved == [1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
       updates=st.integers(0, 5), chunk=st.integers(1, 8))
def test_quad_form_bits_do_not_depend_on_the_batch(seed, n, updates, chunk):
    # Each candidate's quadratic form has the same bits alone, inside any
    # batch, in any order and at any chunk boundary, also once rank-one
    # updates have made the inverse factor dense.
    rng = np.random.default_rng(seed)
    g = randomize_covs(rng, random_connected_graph(rng, n, extra_edge_prob=0.3,
                                                   unit_lengths=False))
    mc, walk, apg, cands = pipeline(g)
    if len(cands) == 0:
        return
    factor = apg.factor.copy()
    for k in rng.integers(0, len(cands), size=updates):
        c = cands.candidate(int(k))
        factor.rank_one_update(c.gamma, c.i, c.j)
    whole = quad_forms(factor, cands)
    alone = [quad_forms(factor, cands, np.array([k]))[0] for k in range(len(cands))]
    np.testing.assert_array_equal(whole, alone)
    order = rng.permutation(len(cands))[: int(rng.integers(1, len(cands) + 1))]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(loops, "_CHUNK_ELEMENTS", chunk * apg.n)
        np.testing.assert_array_equal(quad_forms(factor, cands, order), whole[order])


def _refined_quad_forms(lap, cols):
    """b^T L^{-1} b for the columns b of ``cols`` from a fresh dense
    Cholesky factor and triangular solves, with one step of iterative
    refinement on a residual in extended precision.  Unrefined, the solve
    itself is off by up to cond(L) eps: 3.2e-12 relative on the graphs
    below, where refined values were within 1e-15 of 40-digit mpmath
    inverses on the worst instances."""
    chol = np.linalg.cholesky(lap)

    def solve(rhs):
        return solve_triangular(chol.T, solve_triangular(chol, rhs, lower=True))

    x = solve(cols)
    x = x + solve((cols - lap.astype(np.longdouble) @ x).astype(float))
    return np.einsum("ij,ij->j", cols, x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
       scale=st.sampled_from([1.0, 1000.0]), updates=st.integers(1, 60))
def test_updates_match_a_fresh_dense_factor(seed, n, scale, updates):
    # After random rank-one updates with weights from 1e-6 to 1e3, the
    # gathered quadratic forms of every pose pair and the log-det match a
    # fresh dense factorization of the updated Laplacian.  Over 1500
    # random instances the worst quadratic form was 9.0e-13 off.
    rng = np.random.default_rng(seed)
    g = randomize_covs(rng, random_connected_graph(rng, n, extra_edge_prob=0.2,
                                                   unit_lengths=False, scale=scale))
    mc, walk, apg, cands = pipeline(g)
    factor = apg.factor.copy()
    factors = list(apg.weighted_edges)
    for _ in range(updates):
        i, j = sorted(rng.choice(apg.pose_count, size=2, replace=False), reverse=True)
        w = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e3))))
        factor.rank_one_update(w, int(i), int(j))
        factors.append((int(i), int(j), w))
    lap = build_reduced_laplacian(apg.n, factors)
    iu, ju = np.tril_indices(apg.pose_count, k=-1)
    cols = np.stack([incidence(apg.n, i, j) for i, j in zip(iu, ju)], axis=1)
    np.testing.assert_allclose(factor.quad_form_batch(np.stack((iu, ju))),
                               _refined_quad_forms(lap, cols), rtol=1e-12, atol=0.0)
    fresh = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(lap))))
    assert factor.log_det == pytest.approx(fresh, rel=1e-12, abs=1e-12)


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
    # independent pass over every subset through the from-scratch score
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
