import numpy as np
import pytest

from slamplan import kernels

from conftest import dense_factor, incidence


def spd_factor(rng, n):
    """The inverse factor of a random SPD matrix m, and m."""
    a = rng.standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    return dense_factor(m), m


def sherman_morrison(rows, x):
    """Dense oracle: the inverse factor after adding x x^T, as the product
    (I - c p p^T) W with p = W x, c = 1 / (r (r + 1)), r = sqrt(1 + ||p||^2),
    written back as rows."""
    w = rows[1:].T
    p = w @ x
    r = np.sqrt(1.0 + p @ p)
    out = np.zeros_like(rows)
    out[1:] = ((np.eye(len(x)) - np.outer(p, p) / (r * (r + 1.0))) @ w).T
    return out


def random_pair(rng, n):
    i, j = rng.choice(n + 1, size=2, replace=False)
    return int(i), int(j)


def test_backend_reports_something():
    assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_update_matches_dense_oracle(rng, n):
    f, m = spd_factor(rng, n)
    rows = f.rows.copy()
    i, j = random_pair(rng, n)
    w = float(rng.uniform(0.1, 10.0))
    x = np.sqrt(w) * incidence(n, i, j)
    f.rank_one_update(w, i, j)
    np.testing.assert_allclose(f.rows, sherman_morrison(rows, x), atol=1e-14)
    # still a square root of the inverse of the updated matrix
    np.testing.assert_allclose(f.rows[1:] @ f.rows[1:].T,
                               np.linalg.inv(m + np.outer(x, x)), atol=1e-13)


def test_update_returns_quadratic_form(rng):
    # the log-det grows by log1p of the pair's weighted quadratic form
    for n in (1, 4, 11):
        f, m = spd_factor(rng, n)
        i, j = random_pair(rng, n)
        x = 1.7 * incidence(n, i, j)
        before = f.log_det
        f.rank_one_update(1.7**2, i, j)
        assert f.log_det - before == pytest.approx(
            np.log1p(x @ np.linalg.solve(m, x)), rel=1e-12)


@pytest.mark.parametrize("n", [2, 7, 30])
def test_update_incidence_trailing_block(rng, n):
    # A pair update on a fresh, triangular inverse factor: p vanishes before
    # the incidence vector's first nonzero, so the columns of rows before it
    # keep their bits, and the result is the dense oracle.
    for _ in range(10):
        f, m = spd_factor(rng, n)
        rows = f.rows.copy()
        i, j = random_pair(rng, n)
        x = 1.7 * incidence(n, i, j)
        s = int(np.flatnonzero(x)[0])
        f.rank_one_update(1.7**2, i, j)
        np.testing.assert_allclose(f.rows, sherman_morrison(rows, x), atol=1e-14)
        np.testing.assert_array_equal(f.rows[:, :s], rows[:, :s])


@pytest.mark.parametrize("n", [1, 6])
def test_update_zero_vector_is_identity(rng, n):
    # a pair of one pose with itself has the zero incidence vector
    f, _ = spd_factor(rng, n)
    rows, log_det = f.rows.copy(), f.log_det
    for k in range(n + 1):
        f.rank_one_update(2.5, k, k)
    np.testing.assert_array_equal(f.rows, rows)
    assert f.log_det == log_det


def test_update_scalar_factor():
    f = dense_factor(np.array([[4.0]]))
    np.testing.assert_array_equal(f.rows, [[0.0], [0.5]])
    before = f.log_det
    f.rank_one_update(2.25, 1, 0)
    assert f.rows[1, 0] == pytest.approx(1.0 / np.sqrt(4.0 + 2.25), rel=1e-15)
    assert f.rows[0, 0] == 0.0
    assert f.log_det - before == pytest.approx(np.log1p(2.25 / 4.0), rel=1e-15)


def test_update_keeps_the_anchor_row_zero(rng):
    f, _ = spd_factor(rng, 6)
    for _ in range(3):
        f.rank_one_update(float(rng.uniform(0.1, 10.0)), *random_pair(rng, 6))
    np.testing.assert_array_equal(f.rows[0], np.zeros(6))


def test_repeated_updates_accumulate(rng):
    n = 5
    f, m = spd_factor(rng, n)
    acc = m.copy()
    for _ in range(4):
        i, j = random_pair(rng, n)
        w = float(rng.uniform(0.1, 10.0))
        acc += w * np.outer(incidence(n, i, j), incidence(n, i, j))
        f.rank_one_update(w, i, j)
    np.testing.assert_allclose(f.rows[1:] @ f.rows[1:].T, np.linalg.inv(acc), atol=1e-12)
