import numpy as np
import pytest
from scipy.linalg import solve_triangular

from slamplan import kernels
from slamplan.laplacian import incidence_column


def spd_rows(rng, n):
    """A random SPD matrix m and the inverse-factor rows of m: zero, then
    the columns of C^{-1} for m = C C^T."""
    a = rng.standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    rows = np.zeros((n + 1, n))
    rows[1:] = solve_triangular(np.linalg.cholesky(m), np.eye(n), lower=True).T
    return rows, m


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


def test_backend_reports_something():
    assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_update_matches_dense_oracle(rng, n):
    rows, m = spd_rows(rng, n)
    x = rng.standard_normal(n)
    got = rows.copy()
    kernels.inverse_factor_update(got, x.copy())
    np.testing.assert_allclose(got, sherman_morrison(rows, x), atol=1e-14)
    # still a square root of the inverse of the updated matrix
    np.testing.assert_allclose(got[1:] @ got[1:].T, np.linalg.inv(m + np.outer(x, x)),
                               atol=1e-13)


def test_update_returns_quadratic_form(rng):
    for n in (1, 4, 11):
        rows, m = spd_rows(rng, n)
        x = rng.standard_normal(n)
        q = kernels.inverse_factor_update(rows.copy(), x)
        assert q == pytest.approx(x @ np.linalg.solve(m, x), rel=1e-12)


@pytest.mark.parametrize("n", [2, 7, 30])
def test_update_incidence_trailing_block(rng, n):
    # Incidence-shaped x with leading zeros on a fresh, triangular inverse
    # factor: p = W x vanishes before x's first nonzero, so the columns of
    # rows before it keep their bits, and the result is the dense oracle.
    for _ in range(10):
        rows, m = spd_rows(rng, n)
        i, j = sorted(rng.choice(n + 1, size=2, replace=False), reverse=True)
        x = 1.7 * incidence_column(n, int(i), int(j))
        s = int(np.flatnonzero(x)[0])
        got = rows.copy()
        q = kernels.inverse_factor_update(got, x)
        np.testing.assert_allclose(got, sherman_morrison(rows, x), atol=1e-14)
        np.testing.assert_array_equal(got[:, :s], rows[:, :s])
        assert q == pytest.approx(x @ np.linalg.solve(m, x), rel=1e-12)


@pytest.mark.parametrize("n", [1, 6])
def test_update_zero_vector_is_identity(rng, n):
    rows, _ = spd_rows(rng, n)
    got = rows.copy()
    assert kernels.inverse_factor_update(got, np.zeros(n)) == 0.0
    np.testing.assert_array_equal(got, rows)


def test_update_scalar_factor():
    rows = np.array([[0.0], [0.5]])  # the inverse factor of [[4]]
    q = kernels.inverse_factor_update(rows, np.array([1.5]))
    assert rows[1, 0] == pytest.approx(1.0 / np.sqrt(4.0 + 2.25), rel=1e-15)
    assert rows[0, 0] == 0.0
    assert q == pytest.approx(2.25 / 4.0, rel=1e-15)


def test_update_keeps_the_anchor_row_zero(rng):
    rows, _ = spd_rows(rng, 6)
    for _ in range(3):
        kernels.inverse_factor_update(rows, rng.standard_normal(6))
    np.testing.assert_array_equal(rows[0], np.zeros(6))


def test_repeated_updates_accumulate(rng):
    n = 5
    rows, m = spd_rows(rng, n)
    acc = m.copy()
    for _ in range(4):
        x = rng.standard_normal(n)
        acc += np.outer(x, x)
        kernels.inverse_factor_update(rows, x.copy())
    np.testing.assert_allclose(rows[1:] @ rows[1:].T, np.linalg.inv(acc), atol=1e-12)
