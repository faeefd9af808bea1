import itertools
import signal

import numpy as np
import pytest

from slamplan import tsp
from slamplan.bench import GridGraphSpec, gen_grid_graph
from slamplan.errors import InputError, SizeLimitError
from slamplan.graph import load_prior_graph, metric_closure
from slamplan.tsp import (
    TourCosts,
    expand_to_walk,
    solve_fixed_end_tsp,
    solve_open_tsp,
    solve_open_tsp_exact,
)

from conftest import brute_force_open_tour, random_connected_graph


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


def test_exact_size_limit():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 15, extra_edge_prob=0.2)
    with pytest.raises(SizeLimitError):
        solve_open_tsp_exact(costs_for(g))


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


# -- reference local search: every move gathered from ``dist`` afresh -----


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


def _ref_improve(dist, order):
    arr = np.asarray(order, dtype=np.int64)
    while True:
        while _ref_two_opt_pass(dist, arr):
            pass
        if not _ref_or_opt_pass(dist, arr):
            return arr


def _assert_same_as_reference(monkeypatch, sym, end, restarts):
    if end is None:
        solve = lambda: tsp._solve_open_indices(sym, restarts)  # noqa: E731
    else:
        solve = lambda: tsp._solve_fixed_end_indices(sym, end, restarts)  # noqa: E731
    got = solve()
    with monkeypatch.context() as patch:
        patch.setattr(tsp, "_improve", _ref_improve)
        want = solve()
    assert got[0] == want[0]
    assert got[1] == want[1]  # bitwise: same deltas, same moves, same sums


def test_local_search_matches_reference_on_random_blocks(rng, monkeypatch):
    # Sub-blocks of random closures, including sizes where no move fits
    # (fewer than 4 pinned positions) and the two-vertex fixed-end case.
    closures = [
        metric_closure(random_connected_graph(
            rng, 60, extra_edge_prob=p, unit_lengths=unit)).dist_matrix
        for p in (0.02, 0.05, 0.1, 0.3) for unit in (False, True)
    ]
    sizes = [1, 2, 2, 3, 3] + [int(s) for s in rng.integers(3, 61, size=200)]
    for size in sizes:
        dist = closures[int(rng.integers(len(closures)))]
        pick = rng.permutation(60)[:size]
        sym = np.ascontiguousarray(dist[np.ix_(pick, pick)])
        if rng.integers(2):
            # Dijkstra rows may differ in the last bits, so the search must
            # never read P[a, b] where the reference reads dist[b, a]
            sym *= 1.0 + 1e-12 * rng.random(sym.shape)
        restarts = int(rng.integers(1, 4))
        _assert_same_as_reference(monkeypatch, sym, None, restarts)
        if size >= 2:
            end = int(rng.integers(1, size))
            _assert_same_as_reference(monkeypatch, sym, end, restarts)


def test_local_search_matches_reference_on_grid20(monkeypatch):
    g = gen_grid_graph(GridGraphSpec(width=20.0, height=20.0, seed=1))
    sym = metric_closure(g).dist_matrix
    _assert_same_as_reference(monkeypatch, sym, None, 2)
    _assert_same_as_reference(monkeypatch, sym, len(sym) - 1, 1)


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
            order, length = tsp._solve_open_indices(skewed, 8)
            assert sorted(order) == list(range(30)) and order[0] == 0
            assert length == tsp._route_length(skewed, order)
            order, length = tsp._solve_fixed_end_indices(skewed, 29, 8)
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

    base = solve_open_tsp(costs_for(grid(1.0)), 2)
    closure = metric_closure(grid(cell))
    tour = solve_open_tsp(TourCosts(closure), 2)
    assert sorted(tour.order) == sorted(closure.graph.ids)
    assert tour.length == pytest.approx(cell * base.length, rel=1e-9)


@pytest.mark.parametrize("restarts", [0, -2, True, 2.0])
def test_solvers_reject_restarts_that_are_not_positive_integers(triangle, restarts):
    costs = costs_for(triangle)
    with pytest.raises(InputError, match="restarts must be a positive integer"):
        solve_open_tsp(costs, restarts)
    with pytest.raises(InputError, match="restarts must be a positive integer"):
        solve_fixed_end_tsp(costs, "c", restarts)
