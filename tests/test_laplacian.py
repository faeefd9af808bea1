import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse import csc_matrix

from slamplan.errors import InputError, RankDeficientError
from slamplan.laplacian import (
    _spd_factor,
    information_weights,
    log_det_from_scratch,
    reduced_laplacian,
)

from conftest import (
    build_reduced_laplacian,
    dense_factor,
    incidence,
    random_connected_graph,
    spanning_tree_count,
)


def unit_factor(n, edges):
    return reduced_laplacian(n, [(i, j, 1.0) for i, j in edges])


def relabel(edges, a):
    """The same edges with poses a and 0 swapped, so that pose a is the
    anchor."""
    swap = {a: 0, 0: a}
    return [(swap.get(e[0], e[0]), swap.get(e[1], e[1])) + tuple(e[2:]) for e in edges]


def pair_form(n, factors, i, j):
    """Dense oracle: b^T L^{-1} b for the pair (i, j) by ``np.linalg.solve``."""
    b = incidence(n, i, j)
    return float(b @ np.linalg.solve(build_reduced_laplacian(n, factors), b))


def inverse(f):
    """L^{-1} from the factor's rows: W^T W, the anchor's zero row dropped."""
    return f.rows[1:] @ f.rows[1:].T


def test_two_pose_single_edge():
    f = unit_factor(2, [(0, 1)])
    np.testing.assert_array_equal(f.rows, [[0.0], [1.0]])
    assert np.exp(f.log_dopt()) == pytest.approx(1.0)


def test_triangle_matrix_and_det():
    f = unit_factor(3, [(0, 1), (1, 2), (0, 2)])
    assert np.allclose(inverse(f), np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
    assert np.exp(f.log_det) == pytest.approx(3.0)
    assert np.exp(f.log_dopt()) == pytest.approx(np.sqrt(3.0))


def test_path_of_three_single_tree():
    f = unit_factor(3, [(0, 1), (1, 2)])
    assert np.exp(f.log_det) == pytest.approx(1.0)
    assert np.exp(f.log_dopt()) == pytest.approx(1.0)


def test_identity_matrix_dopt_is_one():
    for n in (1, 2, 5):
        f = dense_factor(np.eye(n))
        assert np.exp(f.log_dopt()) == pytest.approx(1.0)


def test_four_cycle_dopt_any_anchor():
    # any pose as the anchor: relabel it to pose 0
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for anchor in range(4):
        f = unit_factor(4, relabel(edges, anchor))
        assert np.exp(f.log_dopt()) == pytest.approx(4.0 ** (1.0 / 3.0))


def test_quad_form_zero_vector():
    # a pair of one pose with itself has the zero incidence vector
    f = unit_factor(3, [(0, 1), (1, 2)])
    np.testing.assert_array_equal(f.quad_form_batch(np.array([[0, 1, 2], [0, 1, 2]])),
                                  np.zeros(3))


def test_quad_form_path_candidate():
    # reduced L of the 0-1-2 path is [[2,-1],[-1,1]], inverse [[1,1],[1,2]]
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    q = reduced_laplacian(3, edges).quad_form_batch(np.array([[2], [0]]))[0]
    np.testing.assert_array_equal(incidence(2, 2, 0), [0.0, 1.0])
    assert q == pytest.approx(2.0)
    assert q == pytest.approx(pair_form(2, edges, 2, 0), rel=1e-14)


def test_quad_form_duplicate_triangle_edge():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
    q = reduced_laplacian(3, edges).quad_form_batch(np.array([[1], [0]]))[0]
    assert q == pytest.approx(2.0 / 3.0)
    assert q == pytest.approx(pair_form(2, edges, 1, 0), rel=1e-14)


def test_pair_forms_do_not_depend_on_the_anchor():
    # The form of a pair is the effective resistance between its poses,
    # whichever pose is anchored: relabel each pose to pose 0 in turn and
    # compare with the pseudo-inverse of the full Laplacian.
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 0, 1.5), (0, 2, 0.7)]
    full = np.zeros((4, 4))
    for i, j, w in edges:
        e = np.eye(4)[i] - np.eye(4)[j]
        full += w * np.outer(e, e)
    for anchor in range(4):
        f = reduced_laplacian(4, relabel(edges, anchor))
        swap = {anchor: 0, 0: anchor}
        for i, j in [(2, 0), (3, 1), (1, 2)]:
            e = np.eye(4)[i] - np.eye(4)[j]
            pair = np.array([[swap.get(i, i)], [swap.get(j, j)]])
            assert f.quad_form_batch(pair)[0] == pytest.approx(
                e @ np.linalg.pinv(full) @ e, rel=1e-12)


def test_rank_one_update_path_to_triangle():
    f = unit_factor(3, [(0, 1), (1, 2)])
    assert np.exp(f.log_det) == pytest.approx(1.0)
    f.rank_one_update(1.0, 2, 0)
    assert np.exp(f.log_det) == pytest.approx(3.0)
    ref = unit_factor(3, [(0, 1), (1, 2), (0, 2)])
    assert f.log_det == pytest.approx(ref.log_det, rel=1e-12)


def test_same_edge_twice_compounds():
    f = unit_factor(3, [(0, 1), (1, 2), (0, 2)])
    pair = np.array([[2], [1]])
    q1 = f.quad_form_batch(pair)[0]
    f.rank_one_update(1.0, 2, 1)
    q2 = f.quad_form_batch(pair)[0]
    f.rank_one_update(1.0, 2, 1)
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
    # relabelling any pose to pose 0, the anchor, keeps the determinant
    for _ in range(20):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(rng, n, extra_edge_prob=0.5)
        edges = [(g.index[u], g.index[v]) for u, v, _ in g.edges]
        dets = [np.exp(unit_factor(n, relabel(edges, a)).log_det) for a in range(n)]
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
        before = f.log_det
        f.rank_one_update(gamma, int(i), int(j))
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
            f.rank_one_update(0.5, i, j)
            assert f.log_det >= log_det - 1e-12
            log_det = f.log_det


def test_batch_quad_form_matches_single(rng):
    # each form of a batch against a dense solve for its pair alone
    g = random_connected_graph(rng, 9, extra_edge_prob=0.4)
    factors = [(g.index[u], g.index[v], 1.0) for u, v, _ in g.edges]
    f = reduced_laplacian(9, factors)
    pairs = np.array([rng.choice(9, size=2, replace=False) for _ in range(12)]).T
    batch = f.quad_form_batch(pairs)
    singles = [pair_form(8, factors, int(i), int(j)) for i, j in pairs.T]
    assert np.allclose(batch, singles, rtol=1e-10)


def test_disconnected_poses_rank_deficient():
    with pytest.raises(RankDeficientError):
        reduced_laplacian(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_empty_factor_degenerate_sizes():
    f = reduced_laplacian(1, [])
    assert f.n == 0
    assert f.log_dopt() == 0.0
    assert np.exp(f.log_dopt()) == 1.0


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
    # pose 0, the anchor, must exist
    for poses in (0, -1):
        with pytest.raises(InputError, match=f"anchor pose 0 out of range for {poses}"):
            reduced_laplacian(poses, [])


def test_pose_indices_outside_the_graph_are_input_errors():
    # a negative index must not wrap to the last pose, nor an index of
    # ``poses`` or more surface as numpy's IndexError
    for edges, bad in (([(0, 1, 1.0), (1, -1, 1.0)], -1),
                       ([(0, 1, 1.0), (3, 2, 1.0), (-2, 1, 1.0)], 3)):
        with pytest.raises(InputError, match=rf"pose index {bad} outside \[0, 2\]"):
            reduced_laplacian(3, edges)
        with pytest.raises(InputError, match=rf"pose index {bad} outside \[0, 2\]"):
            log_det_from_scratch(2, edges)
        with pytest.raises(InputError, match=rf"pose index {bad} outside \[0, 2\]"):
            build_reduced_laplacian(2, edges)
    assert reduced_laplacian(3, [(0, 1, 1.0), (1, 2, 1.0)]).n == 2


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
    assert np.allclose(np.linalg.inv(dense), inverse(fact), rtol=1e-12)


@pytest.mark.parametrize("hub", [0, 3])
def test_build_reduced_laplacian_equals_outer_product_sum(rng, hub):
    # Scatter-add must reproduce the per-factor w * outer(b, b) sum bit for
    # bit, including duplicate pairs and, with hub 0, pairs that touch the
    # anchor.
    poses = 9
    n = poses - 1
    factors = []
    for _ in range(40):
        i, j = rng.choice(poses, size=2, replace=False)
        factors.append((int(i), int(j), float(rng.uniform(0.01, 50.0))))
    factors += factors[:10]
    factors += [(hub, 5, 0.3), (7, hub, 2.5), (hub, 5, 1.1)]
    expected = np.zeros((n, n))
    for i, j, w in factors:
        b = incidence(n, i, j)
        expected += w * np.outer(b, b)
    np.testing.assert_array_equal(build_reduced_laplacian(n, factors), expected)
    assert not build_reduced_laplacian(n, []).any()


def test_rank_one_update_drift_against_fresh_factor(rng):
    poses = 120
    factors = [(k + 1, k, float(rng.uniform(0.2, 5.0))) for k in range(poses - 1)]
    f = dense_factor(build_reduced_laplacian(poses - 1, factors))
    for _ in range(60):
        i, j = sorted(rng.choice(poses, size=2, replace=False), reverse=True)
        gamma = float(rng.uniform(0.1, 50.0))
        f.rank_one_update(gamma, int(i), int(j))
        factors.append((int(i), int(j), gamma))
    fresh = dense_factor(build_reduced_laplacian(poses - 1, factors))
    # the updated rows are not triangular, so compare W^T W = L^{-1}
    rel = np.linalg.norm(inverse(f) - inverse(fresh)) / np.linalg.norm(inverse(fresh))
    assert rel < 1e-12
    assert f.log_det == pytest.approx(fresh.log_det, rel=1e-12)


@st.composite
def _pose_graphs(draw):
    """A connected factor list over 1-40 poses: a random tree, extra pairs,
    duplicates and self-pairs, in shuffled order, with weights over six
    decades."""
    poses = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [(int(rng.integers(k)), k) for k in range(1, poses)]
    factors += [tuple(int(v) for v in rng.integers(poses, size=2))
                for _ in range(draw(st.integers(0, 2 * poses)))]
    factors += factors[: draw(st.integers(0, 5))]
    weights = 10.0 ** rng.uniform(-3, 3, size=len(factors))
    order = rng.permutation(len(factors))
    return poses, [(*factors[k], float(weights[k])) for k in order]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pose_graphs())
def test_tree_factor_matches_dense_oracles(case):
    # The factor built from a spanning tree and rank-one updates holds the
    # reduced Laplacian's log-det (LU) and inverse (dense solve).
    poses, factors = case
    f = reduced_laplacian(poses, factors)
    assert f.n == poses - 1
    if poses == 1:
        assert f.log_det == 0.0
        return
    n = poses - 1
    lap = build_reduced_laplacian(n, factors)
    assert f.log_det == pytest.approx(np.linalg.slogdet(lap)[1], rel=1e-10, abs=1e-10)
    want = np.linalg.inv(lap)
    assert np.allclose(inverse(f), want, rtol=1e-8, atol=1e-10 * np.abs(want).max())


def test_tree_factor_calls_no_lapack(monkeypatch, rng):
    # Plans take no bit from the BLAS thread count: building the greedy's
    # factor runs no LAPACK factorization or triangular solve.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call while building a pose-graph factor")

    g = random_connected_graph(rng, 30, extra_edge_prob=0.3)
    factors = [(g.index[u], g.index[v], float(rng.uniform(0.5, 2.0))) for u, v, _ in g.edges]
    for name in ("cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(scipy.linalg, "solve_triangular", refuse)
    assert np.isfinite(reduced_laplacian(30, factors).log_det)


@st.composite
def _hub_pose_graphs(draw):
    """``_pose_graphs`` plus factors from one hub pose, the anchor or
    another, to a drawn share of the poses, some of them twice."""
    poses, factors = draw(_pose_graphs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hub = draw(st.integers(0, poses - 1))
    spokes = rng.choice(poses, size=draw(st.integers(0, 2 * poses)))
    factors += [(hub, int(k), float(10.0 ** rng.uniform(-3, 3))) for k in spokes]
    return poses, factors


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_hub_pose_graphs())
def test_log_det_from_scratch_matches_dense_slogdet(case):
    # The sparse assembly sums duplicate pairs and hub rows as the dense
    # reduced Laplacian does, and SuperLU's log det is the dense LU's.
    poses, factors = case
    n = poses - 1
    _, want = np.linalg.slogdet(build_reduced_laplacian(n, factors))
    assert log_det_from_scratch(n, factors) == pytest.approx(want, rel=1e-10, abs=1e-10)


def _coo_log_det(n, factors):
    """log det of the reduced Laplacian built as a COO matrix and converted
    by scipy, which sums each entry's ii, jj, ij and ji terms in that
    order, each in factor order, while a column holds fewer than 16."""
    fac = np.asarray(factors, dtype=float).reshape(-1, 3)
    i, j, w = fac[:, 0].astype(np.intp), fac[:, 1].astype(np.intp), fac[:, 2]
    rows, cols = np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i])
    keep = (rows > 0) & (cols > 0)
    lap = csc_matrix((np.concatenate([w, w, -w, -w])[keep], (rows[keep] - 1, cols[keep] - 1)),
                     shape=(n, n))
    return _spd_factor(lap, "singular")[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(poses=st.integers(2, 30), data=st.data())
def test_log_det_from_scratch_keeps_the_bits_of_the_coo_build(poses, data):
    # A walk's factors, then up to five loop factors between distinct pose
    # pairs: one bincount into the anchored pattern sums every entry as the
    # COO conversion it replaced did
    weight = st.floats(0.01, 100.0)
    factors = [(k, k + 1, data.draw(weight)) for k in range(poses - 1)]
    pairs = st.tuples(st.integers(0, poses - 1), st.integers(0, poses - 1)).filter(
        lambda p: abs(p[0] - p[1]) > 1)
    if poses > 3:
        loops = data.draw(st.lists(pairs, max_size=5, unique_by=lambda p: (min(p), max(p))))
        factors += [(i, j, data.draw(weight)) for i, j in loops]
    n = poses - 1
    assert log_det_from_scratch(n, factors) == _coo_log_det(n, factors)


def test_log_det_from_scratch_calls_no_lapack(monkeypatch, rng):
    # Replan scores take no bit from the BLAS thread count: the from-scratch
    # log det runs no dense LAPACK factorization, solve or determinant.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call in the from-scratch log det")

    g = random_connected_graph(rng, 30, extra_edge_prob=0.3)
    factors = [(g.index[u], g.index[v], float(rng.uniform(0.5, 2.0))) for u, v, _ in g.edges]
    want = reduced_laplacian(30, factors).log_det
    for name in ("slogdet", "det", "cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert log_det_from_scratch(29, factors) == pytest.approx(want, rel=1e-12)


def test_log_det_from_scratch_rejects_a_nan_weight():
    # A NaN pivot is not positive: no NaN score reaches a replan comparison.
    with pytest.raises(RankDeficientError, match="not positive-definite"):
        log_det_from_scratch(2, [(0, 1, 1.0), (1, 2, np.nan)])


@pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
def test_factor_weights_must_be_positive_and_finite(weight):
    with pytest.raises(InputError, match="factor weights must be positive and finite"):
        reduced_laplacian(3, [(0, 1, 1.0), (1, 2, weight)])
