import json
import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from slamplan import bench, graph
from slamplan.bench import GridGraphSpec, gen_grid_graph
from slamplan.errors import CovarianceError, DisconnectedError, InputError
from slamplan.graph import (
    DEFAULT_SIGMA_DIAG,
    PriorGraph,
    check_spd,
    check_spd_batch,
    default_sigma,
    load_prior_graph,
    metric_closure,
    sigma_matrix,
)
from slamplan.laplacian import information_weights
from slamplan.mission import _write_changed
from slamplan.planner import compute_plan
from slamplan.sim import load_world

from conftest import random_connected_graph


def test_load_from_dict_text_and_path(tmp_path, path3):
    # a str is always a path, so JSON text is read as a file name
    doc = path3.to_dict()
    with pytest.raises(InputError, match="^cannot read "):
        load_prior_graph(json.dumps(doc))
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    for g in (load_prior_graph(doc), load_prior_graph(str(p)), load_prior_graph(p)):
        assert list(g.ids) == ["a", "b", "c"]
        assert g.start == "a"
        assert len(g.edges) == 2


def test_default_edge_length_is_euclidean():
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 3, "y": 4}],
        "edges": [{"u": 0, "v": 1}],
        "start": 0,
    }
    g = load_prior_graph(doc)
    assert g.edge_length(0, 1) == pytest.approx(5.0)


def test_load_errors_name_offender():
    base = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
        "edges": [{"u": 0, "v": 1}],
        "start": 0,
    }
    dup = dict(base, vertices=base["vertices"] + [{"id": 1, "x": 2, "y": 0}])
    with pytest.raises(InputError, match="1"):
        load_prior_graph(dup)
    bad_edge = dict(base, edges=[{"u": 0, "v": 9}])
    with pytest.raises(InputError, match="9"):
        load_prior_graph(bad_edge)
    bad_start = dict(base, start=7)
    with pytest.raises(InputError, match="7"):
        load_prior_graph(bad_start)
    neg = dict(base, edges=[{"u": 0, "v": 1, "length": -2.0}])
    with pytest.raises(InputError):
        load_prior_graph(neg)


def test_non_list_vertices_or_edges_rejected():
    base = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
        "edges": [{"u": 0, "v": 1}],
        "start": 0,
    }
    with pytest.raises(InputError, match="'vertices' must be a list"):
        load_prior_graph(dict(base, vertices=5))
    with pytest.raises(InputError, match="'edges' must be a list"):
        load_prior_graph(dict(base, edges=3))


def test_nan_vertex_position_rejected_with_given_length():
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": "p", "x": float("nan"), "y": 0}],
        "edges": [{"u": 0, "v": "p", "length": 1.0}],
        "start": 0,
    }
    with pytest.raises(InputError, match="vertex 'p' has non-finite position"):
        load_prior_graph(doc)


def test_infinite_edge_length_rejected(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
                    ' "edges": [{"u": 0, "v": 1, "length": Infinity}], "start": 0}')
    with pytest.raises(InputError, match=r"edge \(0, 1\) length must be finite") as err:
        load_prior_graph(path)
    assert not isinstance(err.value, DisconnectedError)


def test_nan_covariance_entry_rejected_as_non_finite():
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
        "edges": [{"u": 0, "v": 1, "sigma": [0.1, float("nan"), 0.001]}],
        "start": 0,
    }
    with pytest.raises(CovarianceError, match=r"edge \(0, 1\): covariance has non-finite"):
        load_prior_graph(doc)
    cov = np.eye(3)
    cov[0, 1] = cov[1, 0] = np.inf
    with pytest.raises(CovarianceError, match="non-finite"):
        check_spd(cov, "test")


@pytest.mark.parametrize("vertex,edge,match", [
    ({"id": "p", "x": "abc", "y": 0}, {}, r"vertex 'p' position must be numeric"),
    ({"id": "p", "x": 1, "y": None}, {}, r"vertex 'p' position must be numeric"),
    ({}, {"length": "far"}, r"edge \(0, 'p'\) length must be a number, got 'far'"),
    ({}, {"sigma": ["a", 1, 1]}, r"edge \(0, 'p'\) sigma must hold numbers"),
    ({}, {"sigma": [[1, 0, 0], [0, 1]]}, r"edge \(0, 'p'\) sigma must hold numbers"),
    ({"id": "p", "x": 10**400, "y": 0}, {}, r"vertex 'p' position must be numeric"),
    ({}, {"length": 10**400}, r"edge \(0, 'p'\) length must be a number"),
    ({}, {"sigma": [10**400, 1, 1]}, r"edge \(0, 'p'\) sigma must hold numbers"),
], ids=["x-text", "y-null", "length-text", "sigma-text", "sigma-ragged", "x-huge-int",
        "length-huge-int", "sigma-huge-int"])
def test_non_numeric_entries_rejected_naming_offender(vertex, edge, match):
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, dict({"id": "p", "x": 1, "y": 0}, **vertex)],
        "edges": [dict({"u": 0, "v": "p"}, **edge)],
        "start": 0,
    }
    with pytest.raises(InputError, match=match):
        load_prior_graph(doc)


@pytest.mark.parametrize("change, match", [
    ({"vertices": [{"id": [1], "x": 0, "y": 0}], "edges": [], "start": [1]},
     r"vertex id \[1\] must be a string or an integer"),
    ({"edges": [{"u": ["a"], "v": 1}]}, r"edge \(\['a'\], 1\) references unknown vertex"),
    ({"start": {"id": 0}}, r"unknown start vertex \{'id': 0\}"),
    # a JSON boolean is no id, though True == 1 and False == 0 in Python
    ({"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": True, "x": 1, "y": 0}]},
     r"vertex id True must be a string or an integer"),
    ({"edges": [{"u": True, "v": 0}]}, r"edge \(True, 0\) references unknown vertex True"),
    ({"start": False}, r"unknown start vertex False"),
], ids=["vertex-id", "edge-endpoint", "start", "vertex-id-bool", "edge-endpoint-bool",
        "start-bool"])
def test_unhashable_ids_rejected_naming_offender(change, match):
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
        "edges": [{"u": 0, "v": 1}],
        "start": 0,
    }
    with pytest.raises(InputError, match=match):
        load_prior_graph(dict(doc, **change))


@pytest.mark.parametrize("load, document, message", [
    (load_prior_graph, [], "document must be a JSON object, got list"),
    (load_prior_graph, 5, "document must be a JSON object, got int"),
    (load_world, ["graph"], "document must be a JSON object, got list"),
    (load_world, {"graph": []}, "world 'graph' must be an object, got list"),
    (load_prior_graph, "[]", "document must be a JSON object, got list"),
    (load_world, " [1, 2]", "document must be a JSON object, got list"),
    (load_world, {"graph": "graph.json"}, "world 'graph' must be an object, got str"),
    (load_world, {"graph": None}, "world 'graph' must be an object, got NoneType"),
], ids=["prior-list", "prior-number", "world-list", "world-graph-list", "prior-list-text",
        "world-list-text", "world-graph-path", "world-graph-null"])
def test_non_object_documents_rejected(tmp_path, monkeypatch, path3, load, document,
                                       message):
    # a world's graph names no file for the loader to read, even one that exists
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.json").write_text(json.dumps(path3.to_dict()))
    if isinstance(document, str):  # JSON text, loaded from a file
        path = tmp_path / "doc.json"
        path.write_text(document)
        document = path
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        load(document)


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="this Python parses integers of any length")
def test_integer_beyond_json_digit_limit_rejected(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": [{"id": 0, "x": ' + "1" * 5000 + ', "y": 0}], '
                    '"edges": [], "start": 0}')
    with pytest.raises(InputError,
                       match=f"^{re.escape(str(path))}: invalid JSON: Exceeds the limit"):
        load_prior_graph(path)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"start": "\xff"}')
    with pytest.raises(InputError,
                       match=f"^{re.escape(str(path))}: invalid JSON: 'utf-8' codec"):
        load_prior_graph(str(path))


def test_number_text_is_read_as_a_path(tmp_path, monkeypatch):
    # " 5" is a valid file name, and a str is always a path
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InputError, match="^cannot read  5: "):
        load_prior_graph(" 5")
    (tmp_path / " 5").write_text("[5]")
    with pytest.raises(InputError, match="^document must be a JSON object, got list$"):
        load_prior_graph(" 5")


@pytest.mark.parametrize("name", ["[draft].json", "{x}.json"])
def test_path_object_is_always_a_file(tmp_path, monkeypatch, path3, name):
    # a str or path object is opened even when its name starts with "[" or "{"
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(path3.to_dict()))
    for path in (Path(name), name):
        assert list(load_prior_graph(path).ids) == ["a", "b", "c"]
    for path in (Path(name[0] + "x"), name[0] + "x"):
        with pytest.raises(InputError, match=f"^cannot read {re.escape(name[0])}x: "):
            load_prior_graph(path)


def _path_doc(lengths):
    return {
        "vertices": [{"id": k, "x": float(k), "y": 0.0} for k in range(len(lengths) + 1)],
        "edges": [{"u": k, "v": k + 1, "length": x} for k, x in enumerate(lengths)],
        "start": 0,
    }


def test_summed_edge_length_above_limit_rejected():
    with pytest.raises(InputError, match=r"^edge lengths sum to 1.2e\+300, above 1e\+300$"):
        load_prior_graph(_path_doc([6e299, 6e299, 1.0]))
    with pytest.raises(InputError, match=r"^edge lengths sum to inf, above 1e\+300$"):
        load_prior_graph(_path_doc([1e308, 1e308]))


def test_plan_below_summed_length_limit_stays_finite():
    # pytest turns any overflow warning into an error
    doc = _path_doc([1e299] * 9)
    doc["edges"].append({"u": 0, "v": 9, "length": 5e298})
    plan = compute_plan(load_prior_graph(doc)).plan
    assert plan.actions and np.isfinite(plan.base_distance)


def test_default_covariance_weight():
    # diag(0.1, 0.1, 0.001) stored as-is; its information weight is
    # (1/(0.1*0.1*0.001))^(1/3) = 100000^(1/3)
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
        "edges": [{"u": 0, "v": 1, "sigma": [0.1, 0.1, 0.001]}],
        "start": 0,
    }
    g = load_prior_graph(doc)
    cov = g.edge_covs[g.edge_row(0, 1)]
    assert np.allclose(np.diag(cov), DEFAULT_SIGMA_DIAG)
    assert information_weights(cov[None])[0] == pytest.approx(46.4159, abs=1e-3)
    assert np.array_equal(sigma_matrix([0.1, 0.1, 0.001]), cov)
    with pytest.raises(InputError, match="sigma entries must be numbers"):
        sigma_matrix(["a", 0.1, 0.001])


def test_check_spd_rejects_bad_matrices():
    with pytest.raises(CovarianceError):
        check_spd(np.diag([1.0, -1.0, 1.0]), "test")
    with pytest.raises(CovarianceError):
        check_spd(np.array([[1.0, 2.0, 0], [0, 1.0, 0], [0, 0, 1.0]]), "test")
    out = check_spd(default_sigma(), "test")
    assert out.shape == (3, 3)


def _bad_cov(kind):
    mat = np.diag([0.3, 0.3, 0.003])
    if kind == "non-finite":
        mat[2, 2] = np.nan
    elif kind == "asymmetric":
        mat[0, 1] = 0.1
    else:
        mat[1, 1] = -0.3
    return mat


@pytest.mark.parametrize("kind,reason", [
    ("non-finite", "has non-finite entries"),
    ("asymmetric", "not symmetric"),
    ("indefinite", "not positive-definite"),
])
def test_batched_write_names_bad_row_and_writes_nothing(triangle, kind, reason):
    good = np.diag([0.2, 0.2, 0.002])
    batch = np.stack([good, _bad_cov(kind), good])
    for setter, stored, name in (
        (triangle.set_region_covs, "region_covs", "region 'b'"),
        (triangle.set_edge_covs, "edge_covs", r"edge \('b', 'c'\)"),
    ):
        before = getattr(triangle, stored).copy()
        with pytest.raises(CovarianceError, match=rf"^{name}: covariance {reason}$"):
            setter([0, 1, 2], batch)
        assert np.array_equal(getattr(triangle, stored), before)
    # the first bad row is named, with the first check it fails
    with pytest.raises(CovarianceError, match=r"^region 'a': covariance not symmetric$"):
        triangle.set_region_covs([0, 2], np.stack([_bad_cov("asymmetric"),
                                                   _bad_cov("non-finite")]))
    triangle.set_edge_covs([2, 0], np.stack([good, 2.0 * good]))
    assert np.array_equal(triangle.edge_covs[triangle.edge_row("a", "c")], good)
    assert np.array_equal(triangle.edge_covs[triangle.edge_row("a", "b")], 2.0 * good)


@pytest.mark.parametrize("setter", ["set_region_covs", "set_edge_covs"])
def test_empty_batched_write_writes_nothing(triangle, setter):
    before = (triangle.region_covs.copy(), triangle.edge_covs.copy())
    getattr(triangle, setter)([], [])
    getattr(triangle, setter)(np.zeros(0, dtype=int), np.zeros((0, 3, 3)))
    assert np.array_equal(triangle.region_covs, before[0])
    assert np.array_equal(triangle.edge_covs, before[1])


@pytest.mark.parametrize("setter,what", [
    ("set_region_covs", "vertex indices"), ("set_edge_covs", "edge rows")])
@pytest.mark.parametrize("rows,count", [([0, 1], 1), ([0], 2), ([], 1)],
                         ids=["one-for-two", "two-for-one", "one-for-none"])
def test_batched_write_count_mismatch_names_both_counts(triangle, setter, what,
                                                         rows, count):
    # one matrix for two rows must not broadcast, two for one must not
    # reach numpy's assignment error
    before = (triangle.region_covs.copy(), triangle.edge_covs.copy())
    mats = np.tile(np.diag([0.2, 0.2, 0.002]), (count, 1, 1))
    with pytest.raises(InputError, match=rf"^covariance write: {len(rows)} {what} "
                                         rf"but {count} matrices$"):
        getattr(triangle, setter)(rows, mats)
    assert np.array_equal(triangle.region_covs, before[0])
    assert np.array_equal(triangle.edge_covs, before[1])


@pytest.mark.parametrize("setter,what", [
    ("set_region_covs", "vertex indices"), ("set_edge_covs", "edge rows")])
@pytest.mark.parametrize("bad", [-1, 3, -4])
def test_batched_write_rejects_index_out_of_range(triangle, setter, what, bad):
    # a negative index must not wrap to a row counted from the end
    before = (triangle.region_covs.copy(), triangle.edge_covs.copy())
    mats = np.tile(np.diag([0.2, 0.2, 0.002]), (2, 1, 1))
    with pytest.raises(InputError, match=rf"^covariance write: {what} hold {bad}, "
                                         rf"outside \[0, 3\)$"):
        getattr(triangle, setter)([0, bad], mats)
    assert np.array_equal(triangle.region_covs, before[0])
    assert np.array_equal(triangle.edge_covs, before[1])


def test_pair_covs_is_the_mean_of_two_region_matrices(triangle):
    triangle.set_region_covs([0, 1, 2], np.stack(
        [np.diag([1.0, 1.0, 0.01]), np.diag([0.1, 0.1, 0.001]), np.eye(3)]))
    got = triangle.pair_covs(np.array([0, 1]), np.array([1, 2]))
    assert got.shape == (2, 3, 3)
    assert np.allclose(np.diag(got[0]), [0.55, 0.55, 0.0055])
    for k, (a, b) in enumerate([(0, 1), (1, 2)]):
        expect = 0.5 * (triangle.region_covs[a] + triangle.region_covs[b])
        assert np.array_equal(got[k], expect)
        assert np.array_equal(triangle.pair_covs(a, b), expect)


def test_disconnected_graph_rejected():
    doc = {
        "vertices": [
            {"id": 0, "x": 0, "y": 0},
            {"id": 1, "x": 1, "y": 0},
            {"id": 2, "x": 5, "y": 5},
        ],
        "edges": [{"u": 0, "v": 1}],
        "start": 0,
    }
    with pytest.raises(DisconnectedError):
        load_prior_graph(doc)


def test_structural_fault_reported_before_earlier_covariance_fault():
    # all edge covariances are validated in one batch after the edges are read
    doc = {
        "vertices": [{"id": v, "x": float(k), "y": 0.0} for k, v in enumerate("abc")],
        "edges": [{"u": "a", "v": "b", "sigma": [0.1, -0.1, 0.001]},
                  {"u": "b", "v": "c"},
                  {"u": "c", "v": "b"}],
        "start": "a",
    }
    with pytest.raises(InputError, match=r"^duplicate edge \('c', 'b'\)$"):
        load_prior_graph(doc)
    doc["edges"].pop()
    with pytest.raises(CovarianceError,
                       match=r"^edge \('a', 'b'\): covariance not positive-definite$"):
        load_prior_graph(doc)
    doc["edges"][1]["sigma"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(CovarianceError,
                       match=r"^edge \('b', 'c'\): covariance must be 3x3, got \(2, 2\)$"):
        load_prior_graph(doc)


def test_add_edge_validates_covariance_before_changing_the_graph(path3):
    before = path3.copy()
    with pytest.raises(CovarianceError,
                       match=r"^edge \('a', 'c'\): covariance not symmetric$"):
        path3.add_edge("a", "c", cov=np.triu(np.ones((3, 3))))
    assert not path3.has_edge("a", "c")
    assert path3.edges == before.edges
    assert np.array_equal(path3.edge_covs, before.edge_covs)
    assert np.array_equal(path3.edge_ends, before.edge_ends)
    assert path3.topology_revision == before.topology_revision


def _undirected_closure(g):
    """All-pairs distances and predecessors from an undirected search on a
    CSR holding each edge of ``g.edges`` once per direction, interleaved."""
    rows, cols, data = [], [], []
    for u, v, length in g.edges:
        i, j = g.index[u], g.index[v]
        rows += [i, j]
        cols += [j, i]
        data += [length, length]
    weights = csr_matrix((data, (rows, cols)), shape=(len(g), len(g)))
    return dijkstra(weights, directed=False, return_predecessors=True)


@st.composite
def _closure_graphs(draw):
    """Random connected graphs of 4 to 40 vertices with unit (tied) or
    jittered lengths at 1 m or 1000 m, and grids with or without jitter,
    whose unjittered lattices tie many paths exactly."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return gen_grid_graph(GridGraphSpec(
            width=draw(st.integers(3, 9)), height=draw(st.integers(3, 9)),
            position_noise_sigma=draw(st.sampled_from([0.0, 0.2])), seed=seed))
    return random_connected_graph(
        np.random.default_rng(seed), draw(st.integers(4, 40)),
        extra_edge_prob=draw(st.sampled_from([0.05, 0.2, 0.5])),
        unit_lengths=draw(st.booleans()), scale=draw(st.sampled_from([1.0, 1000.0])))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_closure_graphs())
def test_closure_matches_undirected_search_bit_for_bit(g):
    dist, pred = _undirected_closure(g)
    mc = metric_closure(g)
    assert np.array_equal(mc.dist_matrix, dist)
    assert np.array_equal(mc._pred, pred)


def _reachable(vertices, edges, start) -> set:
    """The ``vertices`` reachable from ``start`` over ``edges`` by a
    depth-first search over ids."""
    neighbors = {v: [] for v in vertices}
    for u, v, *_ in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14),
       density=st.sampled_from([0.0, 0.1, 0.2, 0.4, 1.0]))
def test_connectivity_matches_depth_first_search(seed, n, density):
    rng = np.random.default_rng(seed)
    # ids out of order and of both kinds, so id order differs from any sort
    ids = [int(k) if k % 2 else f"v{k}" for k in rng.permutation(3 * n)[:n]]
    edges = [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)
             if rng.uniform() < density]
    start = ids[int(rng.integers(n))]
    seen = _reachable(ids, edges, start)
    assert bench._connected(ids, edges) == (len(seen) == n)
    vertices = [(v, float(k), 0.0) for k, v in enumerate(ids)]
    prior = [(u, v, 1.0, None) for u, v in edges]
    missing = [v for v in ids if v not in seen]
    if not missing:
        assert len(PriorGraph(vertices, prior, start)) == n
        return
    message = f"vertex {missing[0]!r} is unreachable from start {start!r}"
    with pytest.raises(DisconnectedError, match=f"^{re.escape(message)}$"):
        PriorGraph(vertices, prior, start)


def test_closure_path_on_unit_path(path3):
    mc = metric_closure(path3)
    assert mc.dist("a", "c") == pytest.approx(2.0)
    assert mc.path("a", "c") == ["a", "b", "c"]
    assert mc.path("c", "a") == ["c", "b", "a"]
    assert mc.dist("b", "b") == 0.0


def test_closure_on_triangle(triangle):
    mc = metric_closure(triangle)
    assert mc.dist("a", "c") == pytest.approx(1.0)
    assert mc.path("a", "c") == ["a", "c"]


def test_closure_routes_around_long_edge():
    # 4-cycle with one edge of length 10: the short way round wins.
    doc = {
        "vertices": [
            {"id": k, "x": float(k), "y": 0.0} for k in range(4)
        ],
        "edges": [
            {"u": 0, "v": 1, "length": 1.0},
            {"u": 1, "v": 2, "length": 1.0},
            {"u": 2, "v": 3, "length": 1.0},
            {"u": 3, "v": 0, "length": 10.0},
        ],
        "start": 0,
    }
    mc = metric_closure(load_prior_graph(doc))
    assert mc.dist(0, 3) == pytest.approx(3.0)
    assert mc.path(0, 3) == [0, 1, 2, 3]


def test_closure_reconstruction_property(rng):
    for _ in range(20):
        n = int(rng.integers(3, 10))
        g = random_connected_graph(rng, n, unit_lengths=False)
        mc = metric_closure(g)
        for u in g.ids:
            for v in g.ids:
                path = mc.path(u, v)
                assert path[0] == u and path[-1] == v
                total = 0.0
                for a, b in zip(path[:-1], path[1:]):
                    assert g.has_edge(a, b)
                    total += g.edge_length(a, b)
                assert total == pytest.approx(mc.dist(u, v), abs=1e-9)


def test_revision_tracks_mutations(path3):
    # the closure depends on the topology, which only ``add_edge`` changes;
    # covariance writes leave it fresh
    mc = metric_closure(path3)
    assert mc.fresh()
    topo = path3.topology_revision
    path3.set_region_covs([path3.index["a"]], np.diag([1.0, 1.0, 0.01])[None])
    path3.set_edge_covs([path3.edge_row("a", "b")], np.diag([0.2, 0.2, 0.002])[None])
    assert path3.topology_revision == topo
    assert mc.fresh()
    path3.add_edge("a", "c", length=2.0)
    assert path3.has_edge("a", "c")
    assert path3.topology_revision > topo
    assert not mc.fresh()
    mc2 = metric_closure(path3)
    assert mc2.dist("a", "c") == pytest.approx(2.0)


def test_to_dict_round_trip(triangle):
    # A diagonal covariance is written as its diagonal, a full one as its
    # nested 3x3 list; both load back bit for bit, and so does the save of
    # the loaded graph.
    row = triangle.edge_row("a", "b")
    full = np.array([[0.1, 0.05, 0.0], [0.05, 0.1, 0.0], [0.0, 0.0, 0.001]])
    for cov, sigma in ((np.diag([0.2, 0.2, 0.002]), [0.2, 0.2, 0.002]),
                       (full, full.tolist())):
        triangle.set_edge_covs([row], cov[None])
        doc = triangle.to_dict()
        assert doc["edges"][row]["sigma"] == sigma
        g2 = load_prior_graph(doc)
        assert list(g2.ids) == list(triangle.ids)
        assert len(g2.edges) == len(triangle.edges)
        np.testing.assert_array_equal(g2.edge_covs, triangle.edge_covs)
        assert np.allclose(g2.positions, triangle.positions)
        assert g2.to_dict() == doc


def test_symmetry_tolerance_is_relative():
    # |m01 - m10| <= 1e-12 + 1e-5 * |m10|, so 1.0 against 1.000005 is
    # symmetric and 1.0 against 1.00002 is not
    mat = np.diag([3.0, 3.0, 3.0])
    mat[0, 1], mat[1, 0] = 1.0, 1.000005
    check_spd(mat, "test")
    mat[1, 0] = 1.00002
    with pytest.raises(CovarianceError, match="not symmetric"):
        check_spd(mat, "test")


# Lockstep with np.isclose: entries mix ordinary values, values at the
# tolerance edge (and one or two ulps either side), zeros, subnormals,
# infinities and NaN.  Each matrix or row draws one mode, so a stack holds
# valid, borderline and broken members in varying mixes.
_ORDINARY = st.floats(-1.0, 1.0)
_SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan])
_ENTRY = st.one_of(_ORDINARY, _SPECIAL)
_MODES = st.sampled_from(["same", "edge", "mixed"])


def _near(draw, b, atol, mode):
    """An entry equal to ``b`` ("same"), at np.isclose's tolerance edge
    around ``b`` give or take up to two ulps ("edge"), or either of those
    or an arbitrary entry ("mixed")."""
    if mode == "mixed":
        mode = draw(st.sampled_from(["same", "edge", "free"]))
    if mode == "same":
        return b
    if mode == "free":
        return draw(_ENTRY)
    b = float(b)  # Python arithmetic: inf - inf is NaN without a warning
    a = b + draw(st.sampled_from([-1.0, 1.0])) * (atol + 1e-5 * abs(b))
    steps = draw(st.integers(-2, 2))
    for _ in range(abs(steps)):
        a = float(np.nextafter(a, np.copysign(np.inf, steps)))
    return a


@st.composite
def _covariance_stacks(draw):
    """(k,3,3) stacks whose off-diagonal pairs sit on or near the 1e-12
    symmetry tolerance; diagonally dominant unless a mixed matrix draws
    special entries, so most matrices are SPD when symmetric."""
    mats = np.empty((draw(st.integers(1, 4)), 3, 3))
    for m in mats:
        mode = draw(_MODES)
        entry = _ENTRY if mode == "mixed" else _ORDINARY
        for i in range(3):
            m[i, i] = draw(st.one_of(st.floats(3.0, 1e3), st.just(-1.0), _SPECIAL)
                           if mode == "mixed" else st.floats(3.0, 1e3))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            m[j, i] = draw(entry)
            m[i, j] = _near(draw, m[j, i], 1e-12, mode)
    return mats


def _isclose_reference(a, b, atol):
    return np.isclose(a, b, atol=atol)


def _validated(mats):
    """check_spd_batch's result, or its error message."""
    try:
        return check_spd_batch(mats, lambda k: f"row {k}")
    except CovarianceError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_covariance_stacks())
def test_check_spd_batch_matches_isclose_reference(mats):
    with mock.patch.object(graph, "entries_close", _isclose_reference):
        want = _validated(mats.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _validated(mats.copy())
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str) and np.array_equal(got, want)


@st.composite
def _stored_and_new(draw):
    """A finite stored (k,3,3) stack, a permutation of its rows and new
    values for them, each entry the same, arbitrary or at the 1e-15 edge."""
    k = draw(st.integers(1, 4))
    new = np.empty((k, 9))
    stored = np.empty((k, 9))
    for b, a in zip(new, stored):
        mode = draw(_MODES)
        b[:] = draw(st.lists(_ENTRY if mode == "mixed" else _ORDINARY,
                             min_size=9, max_size=9))
        a[:] = [_near(draw, x, 1e-15, mode) for x in b]
    stored[~np.isfinite(stored)] = 0.0
    rows = np.array(draw(st.permutations(range(k))), dtype=np.intp)
    return stored.reshape(k, 3, 3), rows, new.reshape(k, 3, 3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_stored_and_new())
def test_write_changed_marks_isclose_stale_rows(case):
    stored, rows, new = case
    writes = []
    changed = _write_changed(stored, lambda r, m: writes.append((r, m)), rows, new)
    stale = ~np.isclose(stored[rows], new, atol=1e-15).all(axis=(1, 2))
    assert changed == stale.any()
    if stale.any():
        [(written, mats)] = writes
        assert np.array_equal(written, rows[stale])
        assert np.array_equal(mats, new[stale], equal_nan=True)
    else:
        assert writes == []
