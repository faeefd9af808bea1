import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slamplan import tsp
from slamplan.bench import GridGraphSpec, gen_grid_graph
from slamplan.errors import InputError
from slamplan.graph import load_prior_graph, metric_closure
from slamplan.planner import compute_plan
from slamplan.tsp import TourCosts, expand_to_walk, solve_fixed_end_tsp, solve_open_tsp

from conftest import brute_force_open_tour, random_connected_graph, solve_open_tsp_exact


def costs_for(graph, include=None, start=None):
    return TourCosts(metric_closure(graph), include=include, start=start)


def test_triangle_cost_matrix(triangle):
    costs = costs_for(triangle)
    assert costs.ids[0] == "a"
    expect = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    assert np.allclose(costs.sym, expect)
    assert np.allclose(costs.sym, costs.sym.T)
    # another start comes first; the block follows the ids
    mc = metric_closure(triangle)
    costs = TourCosts(mc, start="b")
    assert costs.ids == ["b", "a", "c"]
    idx = [triangle.index[v] for v in costs.ids]
    assert np.array_equal(costs.sym, mc.dist_matrix[np.ix_(idx, idx)])


def test_single_vertex_costs_and_tour():
    doc = {"vertices": [{"id": "a", "x": 0, "y": 0}], "edges": [], "start": "a"}
    g = load_prior_graph(doc)
    costs = costs_for(g)
    assert costs.sym.shape == (1, 1) and costs.sym[0, 0] == 0.0
    tour = solve_open_tsp(costs)
    assert tour.order == ["a"]
    assert tour.length == 0.0
    exact = solve_open_tsp_exact(costs)
    assert exact.order == ["a"] and exact.length == 0.0


def test_path_order_and_cost(path3):
    tour = solve_open_tsp(costs_for(path3))
    assert tour.order == ["a", "b", "c"]
    assert tour.length == pytest.approx(2.0)


def test_four_cycle_open_cost():
    doc = {
        "vertices": [{"id": k, "x": float(k % 2), "y": float(k // 2)} for k in range(4)],
        "edges": [
            {"u": 0, "v": 1, "length": 1.0},
            {"u": 1, "v": 3, "length": 1.0},
            {"u": 3, "v": 2, "length": 1.0},
            {"u": 2, "v": 0, "length": 1.0},
        ],
        "start": 0,
    }
    g = load_prior_graph(doc)
    for solver in (solve_open_tsp, solve_open_tsp_exact):
        tour = solver(costs_for(g))
        assert tour.length == pytest.approx(3.0)


def test_exact_beats_every_permutation(rng):
    for _ in range(15):
        n = int(rng.integers(2, 8))
        g = random_connected_graph(rng, n, unit_lengths=False)
        costs = costs_for(g)
        tour = solve_open_tsp_exact(costs)
        _, best = brute_force_open_tour(costs.sym)
        assert tour.length == pytest.approx(best, abs=1e-9)


def test_heuristic_orders_are_valid(rng):
    for _ in range(20):
        n = int(rng.integers(1, 12))
        g = random_connected_graph(rng, n, unit_lengths=False)
        tour = solve_open_tsp(costs_for(g))
        assert tour.order[0] == 0
        assert sorted(tour.order) == sorted(g.ids)


def test_heuristic_quality(rng):
    exact_hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = random_connected_graph(rng, n, unit_lengths=False)
        costs = costs_for(g)
        heur = solve_open_tsp(costs)
        exact = solve_open_tsp_exact(costs)
        assert heur.length <= 1.3 * exact.length + 1e-9
        if heur.length <= exact.length + 1e-9:
            exact_hits += 1
    assert exact_hits >= 90
    for _ in range(20):
        n = int(rng.integers(6, 13))
        g = random_connected_graph(rng, n, unit_lengths=False)
        costs = costs_for(g)
        heur = solve_open_tsp(costs)
        exact = solve_open_tsp_exact(costs)
        assert heur.length <= 1.3 * exact.length + 1e-9


def test_determinism(rng):
    g = random_connected_graph(rng, 10, unit_lengths=False)
    costs = costs_for(g)
    t1 = solve_open_tsp(costs)
    t2 = solve_open_tsp(costs)
    assert t1.order == t2.order and t1.length == t2.length


def test_fixed_end_variants(rng):
    for _ in range(10):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(rng, n, unit_lengths=False)
        costs = costs_for(g)
        end = g.ids[-1]
        heur = solve_fixed_end_tsp(costs, end)
        exact = solve_open_tsp_exact(costs, end=end)
        assert heur.order[0] == 0 and heur.order[-1] == end
        assert exact.order[-1] == end
        # brute force with the endpoint pinned
        rest = [k for k in range(1, n) if k != n - 1]
        best = np.inf
        for perm in itertools.permutations(rest):
            order = [0] + list(perm) + [n - 1]
            cost = sum(costs.sym[a, b] for a, b in zip(order[:-1], order[1:]))
            best = min(best, cost)
        assert exact.length == pytest.approx(best, abs=1e-9)
        assert heur.length >= exact.length - 1e-9


def test_include_subset(path3):
    costs = costs_for(path3, include={"a", "c"})
    assert costs.ids == ["a", "c"]
    tour = solve_open_tsp(costs)
    assert tour.order == ["a", "c"]
    assert tour.length == pytest.approx(2.0)


def test_expand_adjacent_order_is_identity(path3):
    mc = metric_closure(path3)
    walk = expand_to_walk(mc, ["a", "b", "c"])
    assert walk.vertices == ["a", "b", "c"]
    assert walk.length == pytest.approx(2.0)


def test_expand_inserts_intermediates(path3):
    mc = metric_closure(path3)
    walk = expand_to_walk(mc, ["a", "c"])
    assert walk.vertices == ["a", "b", "c"]
    assert walk.length == pytest.approx(2.0)


def test_expand_walk_validity(rng):
    for _ in range(15):
        n = int(rng.integers(2, 10))
        g = random_connected_graph(rng, n, extra_edge_prob=0.1,
                                   unit_lengths=False)
        mc = metric_closure(g)
        tour = solve_open_tsp(costs_for(g))
        walk = expand_to_walk(mc, tour.order)
        for u, v in zip(walk.vertices[:-1], walk.vertices[1:]):
            assert g.has_edge(u, v)
        assert set(walk.vertices) == set(g.ids)
        total = sum(
            g.edge_length(u, v)
            for u, v in zip(walk.vertices[:-1], walk.vertices[1:])
        )
        assert walk.length == pytest.approx(total, abs=1e-9)


def test_plan_coverage_tour(path3):
    tour = solve_open_tsp(costs_for(path3))
    assert tour.order == ["a", "b", "c"]


# -- reference full scans: every move gathered from ``dist`` afresh -------


def _ref_two_opt_pass(dist, order):
    m = len(order)
    if m < 4:
        return False
    pre = order[:-2]
    cur = order[1:-1]
    nxt = order[2:]
    delta = (
        dist[np.ix_(pre, cur)]
        + dist[np.ix_(nxt, cur)].T
        - dist[pre, cur][:, None]
        - dist[cur, nxt][None, :]
    )
    k = len(cur)
    delta[np.tril_indices(k)] = np.inf
    flat = int(np.argmin(delta))
    a, b = divmod(flat, k)
    if delta[a, b] >= -tsp._TOL:
        return False
    i, j = a + 1, b + 1
    order[i : j + 1] = order[i : j + 1][::-1]
    return True


def _ref_or_opt_pass(dist, order):
    m = len(order)
    best = (-tsp._TOL, None)
    for seg in (1, 2, 3):
        if m - 2 < seg + 1:
            continue
        starts = np.arange(1, m - seg)
        slots = np.arange(1, m - 1)
        before = order[starts - 1]
        first = order[starts]
        last = order[starts + seg - 1]
        after = order[starts + seg]
        tj = order[slots]
        tj1 = order[slots + 1]
        gain = dist[before, first] + dist[last, after] - dist[before, after]
        ins = (
            dist[np.ix_(tj, first)].T
            + dist[np.ix_(last, tj1)]
            - dist[tj, tj1][None, :]
        )
        delta = ins - gain[:, None]
        delta[slots[None, :] < (starts + seg)[:, None]] = np.inf
        flat = int(np.argmin(delta))
        a, b = divmod(flat, len(slots))
        if delta[a, b] < best[0]:
            best = (delta[a, b], (int(starts[a]), seg, int(slots[b])))
    if best[1] is None:
        return False
    i, seg, j = best[1]
    piece = order[i : i + seg].copy()
    rest = np.concatenate([order[:i], order[i + seg :]])
    at = j + 1 - seg
    order[:] = np.concatenate([rest[:at], piece, rest[at:]])
    return True


@st.composite
def _tour_blocks(draw):
    """A closure block of 4-60 vertices, tied or not, maybe perturbed in its
    last bits, and a random order over it that starts at 0."""
    n = draw(st.integers(4, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_connected_graph(rng, n, extra_edge_prob=draw(st.sampled_from([0.05, 0.3])),
                                   unit_lengths=draw(st.booleans()))
    sym = metric_closure(graph).dist_matrix
    if draw(st.booleans()):
        sym = sym * (1.0 + 1e-12 * rng.random(sym.shape))
    return sym, [0] + [int(v) for v in 1 + rng.permutation(n - 1)]


def _nn_seed(dist, second, skip):
    """Reference nearest-neighbor seed, one vertex per numpy call: from 0
    through ``second``, never to a vertex in ``skip``."""
    n = dist.shape[0]
    visited = np.zeros(n, dtype=bool)
    for k in skip:
        visited[k] = True
    order = [0]
    visited[0] = True
    if second is not None:
        order.append(second)
        visited[second] = True
    while not visited.all():
        row = np.where(visited, np.inf, dist[order[-1]])
        nxt = int(np.argmin(row))  # argmin takes the smallest index on ties
        order.append(nxt)
        visited[nxt] = True
    return order


@st.composite
def _seed_blocks(draw):
    """A closure block of 2-60 vertices, tied or not, maybe perturbed in its
    last bits; either open (None) or with a drawn fixed end."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = random_connected_graph(rng, n, extra_edge_prob=draw(st.sampled_from([0.05, 0.3])),
                                   unit_lengths=draw(st.booleans()))
    sym = metric_closure(graph).dist_matrix
    if draw(st.booleans()):
        sym = sym * (1.0 + 1e-12 * rng.random(sym.shape))
    end = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    return sym, end, draw(st.integers(1, 8))


def _pinned_block(sym, end):
    """The block a solve searches, its pinned last index and the indices a
    seed skips: an open tour (``end`` None) appends the free terminal, at
    zero cost to and from every vertex."""
    if end is not None:
        return sym, end, (end,)
    n = len(sym)
    dist = np.zeros((n + 1, n + 1))
    dist[:n, :n] = sym
    return dist, n, ()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_seed_blocks())
def test_lockstep_seeds_match_reference(case):
    # Every row built in lockstep is the seed the one-at-a-time loop builds
    # from that row's second vertex, on the open tour's augmented block with
    # the free terminal as its end and on a block with a fixed end.
    sym, end, restarts = case
    dist, pinned, skip = _pinned_block(sym, end)
    seconds = tsp._seed_seconds(dist, restarts, skip=(0, pinned))
    if end is None:  # the terminal, last and at zero cost, is never a second
        assert seconds == tsp._seed_seconds(sym, restarts, skip=(0,))
    want = [_nn_seed(sym, s, skip) + [pinned] for s in seconds] or [[0, pinned]]
    assert tsp._nn_seeds(dist, seconds, pinned).tolist() == want


def _assert_full_scan_optimum(dist, order):
    assert not _ref_two_opt_pass(dist, order.copy())
    assert not _ref_or_opt_pass(dist, order.copy())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(_tour_blocks(), _seed_blocks()))
def test_search_ends_at_a_full_scan_local_optimum(case):
    # Whatever the neighbour lists miss, no reversal and no forward
    # relocation of a 1-3 vertex segment, scored afresh from the block,
    # improves a closed tour by more than the tolerance: a random order with
    # a pinned last vertex, searched and closed in one call, which must not
    # get longer; and on open and fixed-end blocks
    # the solver's own tour and the best of its first 1-8 seeds, which less
    # often happens to be optimal already.  An open tour is scored with its
    # free terminal appended.
    if len(case) == 2:
        dist, order = case
        got = tsp._improve(tsp._SearchBlock(dist), order, close=True)
        assert sorted(got.tolist()) == sorted(order)
        assert (got[0], got[-1]) == (order[0], order[-1])
        legs = lambda o: math.fsum(dist[o[:-1], o[1:]])  # noqa: E731
        assert legs(got) <= legs(np.asarray(order))
        _assert_full_scan_optimum(dist, got)
        return
    sym, end, restarts = case
    dist, pinned, _ = _pinned_block(sym, end)
    seeds = tsp._nn_seeds(dist, tsp._seed_seconds(dist, restarts, skip=(0, pinned)), pinned)
    for order, length in (tsp._solve_indices(sym, end),
                          tsp._best_of_restarts(dist, seeds, len(sym))):
        assert sorted(order) == list(range(len(sym))) and order[0] == 0
        assert length == tsp._route_length(sym, order)
        got = np.asarray(order if end is not None else order + [pinned])
        assert got[-1] == pinned
        _assert_full_scan_optimum(dist, got)


def test_only_the_winning_restart_is_closed_by_full_scans(monkeypatch):
    # The closing stage runs once per solve, on the shortest restart alone,
    # so a 15x15 open solve scans every reversal fewer times than it has
    # restarts; closing every restart would scan at least once per restart.
    score = tsp._score_reversals
    scans = []

    def count(*args):
        scans.append(1)
        return score(*args)

    monkeypatch.setattr(tsp, "_score_reversals", count)
    solve_open_tsp(costs_for(gen_grid_graph(GridGraphSpec(width=15.0, height=15.0, seed=0))))
    assert 1 <= len(scans) < tsp._RESTARTS


@pytest.mark.parametrize("size, bound", [(12, 140.3845), (20, 387.2980)])
def test_open_tours_no_longer_than_the_best_improvement_search(size, bound):
    # The mean open-tour length over a pool of grid graphs, bounded by the
    # mean that the best-improvement search this one replaced reached on the
    # same pool (140.38450 and 387.29803).
    lengths = [solve_open_tsp(costs_for(gen_grid_graph(GridGraphSpec(
        width=float(size), height=float(size), seed=seed)))).length for seed in range(8)]
    assert np.mean(lengths) <= bound


def test_restarts_leave_the_shared_seeds_unchanged(monkeypatch):
    build = tsp._nn_seeds
    built = []

    def keep(dist, seconds, end):
        seeds = build(dist, seconds, end)
        built.append((seeds, seeds.copy()))
        return seeds

    monkeypatch.setattr(tsp, "_nn_seeds", keep)
    monkeypatch.setattr(tsp, "_RESTARTS", 4)
    g = gen_grid_graph(GridGraphSpec(width=15.0, height=15.0, seed=0))
    costs = costs_for(g)
    solve_open_tsp(costs)
    solve_fixed_end_tsp(costs, costs.ids[-1])
    assert len(built) == 2
    for seeds, before in built:
        assert np.array_equal(seeds, before)


def test_first_failing_restart_error_reaches_caller(monkeypatch):
    class Failed(Exception):
        pass

    improve = tsp._improve
    polished = []

    def fail_on_some_seeds(dist, order, close=False):
        polished.append(order[1])
        if order[1] in failing:
            raise Failed(order[1])
        return improve(dist, order, close)

    g = gen_grid_graph(GridGraphSpec(width=15.0, height=15.0, seed=0))
    sym = metric_closure(g).dist_matrix
    seconds = tsp._seed_seconds(sym, tsp._RESTARTS, skip=(0,))
    monkeypatch.setattr(tsp, "_improve", fail_on_some_seeds)
    for failing in ({seconds[5]}, {seconds[2], seconds[6]}):
        # the first failing seed, in seed order, stops the solve
        first = min(failing, key=seconds.index)
        polished.clear()
        with pytest.raises(Failed) as err:
            tsp._solve_indices(sym, None)
        assert err.value.args == (first,)
        assert polished == seconds[: seconds.index(first) + 1]


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a POSIX interval timer")
def test_asymmetric_block_search_ends_within_a_second(rng):
    # A reversal is scored as if the segment cost the same both ways, so on
    # clearly asymmetric costs the search used to cycle forever.
    def expire(signum, frame):
        raise TimeoutError("local search still running after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        for _ in range(5):
            dist = metric_closure(random_connected_graph(
                rng, 30, extra_edge_prob=0.1, unit_lengths=False)).dist_matrix
            skewed = dist + rng.uniform(0.0, 0.5, dist.shape)
            order, length = tsp._solve_indices(skewed, None)
            assert sorted(order) == list(range(30)) and order[0] == 0
            assert length == tsp._route_length(skewed, order)
            order, length = tsp._solve_indices(skewed, 29)
            assert sorted(order) == list(range(30)) and order[0] == 0 and order[-1] == 29
            assert length == tsp._route_length(skewed, order)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cell", [256.0, 1000.0])
def test_large_unit_grid_plans_like_unit_grid(cell):
    # Closure rounding grows with the distances; it must not stop a search
    # whose tolerance is absolute.
    def grid(c):
        return gen_grid_graph(GridGraphSpec(
            width=20 * c, height=20 * c, cell=c, position_noise_sigma=0.2 * c, seed=1))

    base = solve_open_tsp(costs_for(grid(1.0)))
    closure = metric_closure(grid(cell))
    tour = solve_open_tsp(TourCosts(closure))
    assert sorted(tour.order) == sorted(closure.graph.ids)
    assert tour.length == pytest.approx(cell * base.length, rel=1e-9)


def test_tour_inputs_name_unknown_and_misplaced_vertices(triangle):
    mc = metric_closure(triangle)
    costs = TourCosts(mc)
    with pytest.raises(InputError, match="unknown start vertex 'nope'"):
        TourCosts(mc, start="nope")
    with pytest.raises(InputError, match="unknown tour vertices 'nope'"):
        TourCosts(mc, include=["nope", "b"])
    with pytest.raises(InputError, match="unknown tour vertices 'nope'"):
        compute_plan(triangle, include=["nope", "b"])
    with pytest.raises(InputError, match="tour end 'nope' is not a vertex of the tour"):
        solve_fixed_end_tsp(costs, "nope")
    with pytest.raises(InputError, match="tour end 'nope' is not a vertex of the tour"):
        solve_open_tsp_exact(costs, end="nope")
    subset = TourCosts(mc, include=["b"])  # "c" is in the graph, not in the tour
    with pytest.raises(InputError, match="tour end 'c' is not a vertex of the tour"):
        solve_fixed_end_tsp(subset, "c")
    for solve in (lambda: solve_fixed_end_tsp(costs, "a"),
                  lambda: solve_open_tsp_exact(costs, end="a")):
        with pytest.raises(InputError, match="tour end 'a' is the start vertex"):
            solve()
