import numpy as np
import pytest

from slamplan.errors import InputError, RankDeficientError
from slamplan.laplacian import (
    LaplacianFactor,
    build_reduced_laplacian,
    incidence_column,
    information_weights,
    log_det_from_scratch,
    reduced_laplacian,
)

from conftest import random_connected_graph, spanning_tree_count


def unit_factor(n, edges, anchor=0):
    return reduced_laplacian(n, [(i, j, 1.0) for i, j in edges], anchor)


def test_two_pose_single_edge():
    f = unit_factor(2, [(0, 1)])
    assert np.allclose(f.matrix(), [[1.0]])
    assert f.dopt() == pytest.approx(1.0)


def test_triangle_matrix_and_det():
    f = unit_factor(3, [(0, 1), (1, 2), (0, 2)])
    assert np.allclose(f.matrix(), [[2.0, -1.0], [-1.0, 2.0]])
    assert np.exp(f.log_det) == pytest.approx(3.0)
    assert f.dopt() == pytest.approx(np.sqrt(3.0))


def test_path_of_three_single_tree():
    f = unit_factor(3, [(0, 1), (1, 2)])
    assert np.exp(f.log_det) == pytest.approx(1.0)
    assert f.dopt() == pytest.approx(1.0)


def test_identity_matrix_dopt_is_one():
    for n in (1, 2, 5):
        f = LaplacianFactor(np.eye(n))
        assert f.dopt() == pytest.approx(1.0)


def test_four_cycle_dopt_any_anchor():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for anchor in range(4):
        f = unit_factor(4, edges, anchor)
        assert f.dopt() == pytest.approx(4.0 ** (1.0 / 3.0))


def test_quad_form_zero_vector():
    f = unit_factor(3, [(0, 1), (1, 2)])
    assert f.quad_form(np.zeros(2)) == 0.0


def test_quad_form_path_candidate():
    # reduced L of the 0-1-2 path is [[2,-1],[-1,1]], inverse [[1,1],[1,2]]
    f = unit_factor(3, [(0, 1), (1, 2)])
    b = incidence_column(2, 2, 0)
    assert np.allclose(b, [0.0, 1.0])
    assert f.quad_form(b) == pytest.approx(2.0)


def test_quad_form_duplicate_triangle_edge():
    f = unit_factor(3, [(0, 1), (1, 2), (0, 2)])
    b = incidence_column(2, 1, 0)
    assert f.quad_form(b) == pytest.approx(2.0 / 3.0)


def test_rank_one_update_path_to_triangle():
    f = unit_factor(3, [(0, 1), (1, 2)])
    assert np.exp(f.log_det) == pytest.approx(1.0)
    f.rank_one_update(1.0, incidence_column(2, 2, 0))
    assert np.exp(f.log_det) == pytest.approx(3.0)
    ref = unit_factor(3, [(0, 1), (1, 2), (0, 2)])
    assert f.log_det == pytest.approx(ref.log_det, rel=1e-12)


def test_same_edge_twice_compounds():
    f = unit_factor(3, [(0, 1), (1, 2), (0, 2)])
    b = incidence_column(2, 2, 1)
    q1 = f.quad_form(b)
    f.rank_one_update(1.0, b)
    q2 = f.quad_form(b)
    f.rank_one_update(1.0, b)
    expected = 3.0 * (1.0 + q1) * (1.0 + q2)
    assert np.exp(f.log_det) == pytest.approx(expected, rel=1e-9)
    assert q2 < q1


def test_matrix_tree_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(rng, n, extra_edge_prob=0.4)
        edges = [(g.index[u], g.index[v]) for u, v, _ in g.edges]
        f = unit_factor(n, edges)
        trees = spanning_tree_count(n, edges)
        assert abs(np.exp(f.log_det) - trees) < 1e-6


def test_anchor_invariance(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(rng, n, extra_edge_prob=0.5)
        edges = [(g.index[u], g.index[v]) for u, v, _ in g.edges]
        dets = [np.exp(unit_factor(n, edges, a).log_det) for a in range(n)]
        assert np.allclose(dets, dets[0], rtol=1e-9)


def test_determinant_lemma(rng):
    for _ in range(200):
        n = int(rng.integers(2, 10))
        g = random_connected_graph(rng, n, extra_edge_prob=0.5)
        factors = [
            (g.index[u], g.index[v], float(rng.uniform(0.2, 5.0)))
            for u, v, _ in g.edges
        ]
        f = reduced_laplacian(n, factors)
        i, j = rng.choice(n, size=2, replace=False)
        gamma = float(rng.uniform(0.1, 10.0))
        b = incidence_column(n - 1, int(i), int(j))
        before = f.log_det
        f.rank_one_update(gamma, b)
        ref = reduced_laplacian(n, factors + [(int(i), int(j), gamma)])
        assert f.log_det == pytest.approx(ref.log_det, rel=1e-9)
        assert f.log_det >= before


def test_monotonicity_under_edge_addition(rng):
    g = random_connected_graph(rng, 7, extra_edge_prob=0.3)
    edges = [(g.index[u], g.index[v]) for u, v, _ in g.edges]
    f = unit_factor(7, edges)
    log_det = f.log_det
    for i in range(7):
        for j in range(i):
            f.rank_one_update(0.5, incidence_column(6, i, j))
            assert f.log_det >= log_det - 1e-12
            log_det = f.log_det


def test_batch_quad_form_matches_single(rng):
    g = random_connected_graph(rng, 9, extra_edge_prob=0.4)
    edges = [(g.index[u], g.index[v]) for u, v, _ in g.edges]
    f = unit_factor(9, edges)
    cols = rng.standard_normal((8, 12))
    batch = f.quad_form_batch(cols)
    singles = [f.quad_form(cols[:, k]) for k in range(12)]
    assert np.allclose(batch, singles, rtol=1e-10)


def test_disconnected_poses_rank_deficient():
    with pytest.raises(RankDeficientError):
        reduced_laplacian(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_empty_factor_degenerate_sizes():
    f = reduced_laplacian(1, [])
    assert f.n == 0
    assert f.log_dopt() == 0.0
    assert f.dopt() == 1.0


def test_information_weight_examples():
    # the default edge covariance, and the endpoint mean of it with a region
    # ten times as uncertain, in one stack
    mean = 0.5 * (np.diag([1.0, 1.0, 0.01]) + np.diag([0.1, 0.1, 0.001]))
    w = information_weights(np.stack([np.diag([0.1, 0.1, 0.001]), mean]))
    assert w.shape == (2,)
    assert w[0] == pytest.approx(1e5 ** (1.0 / 3.0))
    assert w[1] == pytest.approx(8.44, abs=0.01)
    assert information_weights(np.zeros((0, 3, 3))).shape == (0,)
    singular = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
    with pytest.raises(RankDeficientError, match="singular"):
        information_weights(singular)
    with pytest.raises(RankDeficientError, match="singular"):
        information_weights(-np.eye(3)[None])


@pytest.mark.parametrize("k", [1, 2, 7, 64])
def test_information_weights_match_per_matrix_slogdet(rng, k):
    # batched and one-at-a-time exp(-slogdet/3) agree bit for bit
    a = rng.standard_normal((k, 3, 3)) * rng.uniform(0.01, 3.0, size=(k, 1, 1))
    covs = a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(3)
    batched = information_weights(covs)
    for cov, w in zip(covs, batched):
        assert w == np.exp(-np.linalg.slogdet(cov)[1] / 3)


def test_reduced_laplacian_rejects_anchor_out_of_range():
    for anchor in (-1, 3):
        with pytest.raises(InputError, match=f"anchor {anchor} out of range"):
            reduced_laplacian(3, [(0, 1, 1.0), (1, 2, 1.0)], anchor)


def test_log_det_from_scratch_matches_factor(rng):
    n = 7
    g = random_connected_graph(rng, n, extra_edge_prob=0.5)
    factors = [(g.index[u], g.index[v], float(rng.uniform(0.5, 2.0)))
               for u, v, _ in g.edges]
    assert log_det_from_scratch(n - 1, factors) == pytest.approx(
        reduced_laplacian(n, factors).log_det, rel=1e-12)
    with pytest.raises(RankDeficientError, match="not positive-definite"):
        log_det_from_scratch(3, [(0, 1, 1.0), (2, 3, 1.0)])


def test_build_reduced_laplacian_dense_agrees(rng):
    n = 6
    g = random_connected_graph(rng, n, extra_edge_prob=0.6)
    factors = [
        (g.index[u], g.index[v], float(rng.uniform(0.5, 2.0)))
        for u, v, _ in g.edges
    ]
    dense = build_reduced_laplacian(n - 1, factors)
    fact = reduced_laplacian(n, factors)
    assert np.allclose(dense, fact.matrix(), rtol=1e-12)


@pytest.mark.parametrize("anchor", [0, 3])
def test_build_reduced_laplacian_equals_outer_product_sum(rng, anchor):
    # Scatter-add must reproduce the per-factor w * outer(b, b) sum bit for
    # bit, including duplicate pairs and pairs that touch the anchor.
    poses = 9
    n = poses - 1
    factors = []
    for _ in range(40):
        i, j = rng.choice(poses, size=2, replace=False)
        factors.append((int(i), int(j), float(rng.uniform(0.01, 50.0))))
    factors += factors[:10]
    factors += [(anchor, 5, 0.3), (7, anchor, 2.5), (anchor, 5, 1.1)]
    expected = np.zeros((n, n))
    for i, j, w in factors:
        b = incidence_column(n, i, j, anchor)
        expected += w * np.outer(b, b)
    np.testing.assert_array_equal(
        build_reduced_laplacian(n, factors, anchor), expected)
    assert not build_reduced_laplacian(n, [], anchor).any()


def test_rank_one_update_drift_against_fresh_factor(rng):
    poses = 120
    factors = [(k + 1, k, float(rng.uniform(0.2, 5.0))) for k in range(poses - 1)]
    f = LaplacianFactor(build_reduced_laplacian(poses - 1, factors))
    for _ in range(60):
        i, j = sorted(rng.choice(poses, size=2, replace=False), reverse=True)
        gamma = float(rng.uniform(0.1, 50.0))
        f.rank_one_update(gamma, incidence_column(poses - 1, int(i), int(j)))
        factors.append((int(i), int(j), gamma))
    fresh = LaplacianFactor(build_reduced_laplacian(poses - 1, factors))
    rel = np.linalg.norm(f.chol - fresh.chol) / np.linalg.norm(fresh.chol)
    assert rel < 1e-12
    assert f.log_det == pytest.approx(fresh.log_det, rel=1e-12)
