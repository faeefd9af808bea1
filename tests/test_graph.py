import json

import numpy as np
import pytest

from slamplan.errors import CovarianceError, DisconnectedError, InputError
from slamplan.graph import (
    DEFAULT_SIGMA_DIAG,
    PriorGraph,
    check_spd,
    default_sigma,
    load_prior_graph,
    metric_closure,
    sigma_matrix,
)
from slamplan.laplacian import information_weights

from conftest import random_connected_graph


def test_load_from_dict_text_and_path(tmp_path, path3):
    doc = path3.to_dict()
    from_text = load_prior_graph(json.dumps(doc))
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    from_path = load_prior_graph(str(p))
    for g in (from_text, from_path):
        assert list(g.ids) == ["a", "b", "c"]
        assert g.start == "a"
        assert g.num_edges() == 2


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


def test_infinite_edge_length_rejected():
    text = ('{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
            ' "edges": [{"u": 0, "v": 1, "length": Infinity}], "start": 0}')
    with pytest.raises(InputError, match=r"edge \(0, 1\) length must be finite") as err:
        load_prior_graph(text)
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
], ids=["x-text", "y-null", "length-text", "sigma-text", "sigma-ragged"])
def test_non_numeric_entries_rejected_naming_offender(vertex, edge, match):
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, dict({"id": "p", "x": 1, "y": 0}, **vertex)],
        "edges": [dict({"u": 0, "v": "p"}, **edge)],
        "start": 0,
    }
    with pytest.raises(InputError, match=match):
        load_prior_graph(doc)


def test_default_covariance_weight():
    # diag(0.1, 0.1, 0.001) stored as-is; its information weight is
    # (1/(0.1*0.1*0.001))^(1/3) = 100000^(1/3)
    doc = {
        "vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
        "edges": [{"u": 0, "v": 1, "sigma": [0.1, 0.1, 0.001]}],
        "start": 0,
    }
    g = load_prior_graph(doc)
    cov = g.edge_cov(0, 1)
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
    assert np.array_equal(triangle.edge_cov("a", "c"), good)
    assert np.array_equal(triangle.edge_cov("a", "b"), 2.0 * good)


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
    path3.set_region_cov("a", np.diag([1.0, 1.0, 0.01]))
    path3.set_edge_cov("a", "b", np.diag([0.2, 0.2, 0.002]))
    assert path3.topology_revision == topo
    assert mc.fresh()
    path3.add_edge("a", "c", length=2.0)
    assert path3.has_edge("a", "c")
    assert path3.topology_revision > topo
    assert not mc.fresh()
    mc2 = metric_closure(path3)
    assert mc2.dist("a", "c") == pytest.approx(2.0)


def test_to_dict_round_trip(triangle):
    triangle.set_edge_cov("a", "b", np.diag([0.2, 0.2, 0.002]))
    doc = triangle.to_dict()
    g2 = load_prior_graph(doc)
    assert list(g2.ids) == list(triangle.ids)
    assert g2.num_edges() == triangle.num_edges()
    assert np.allclose(g2.edge_cov("a", "b"), triangle.edge_cov("a", "b"))
    assert np.allclose(g2.positions, triangle.positions)
