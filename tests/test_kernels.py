import numpy as np
import pytest

from slamplan import kernels
from slamplan.laplacian import incidence_column


def spd_factor(rng, n):
    a = rng.standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    return np.linalg.cholesky(m), m


def test_backend_reports_something():
    assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_chol_update_matches_dense_oracle(rng, n):
    chol, m = spd_factor(rng, n)
    x = rng.standard_normal(n)
    expected = np.linalg.cholesky(m + np.outer(x, x))
    got = chol.copy()
    kernels.chol_update(got, x.copy())
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_update_returns_quadratic_form(rng):
    for n in (1, 4, 11):
        chol, m = spd_factor(rng, n)
        x = rng.standard_normal(n)
        q = kernels.chol_update(chol.copy(), x)
        assert q == pytest.approx(x @ np.linalg.solve(m, x), rel=1e-12)


@pytest.mark.parametrize("n", [2, 7, 30])
def test_update_incidence_trailing_block(rng, n):
    # Incidence-shaped x with leading zeros: only the trailing block from
    # the first nonzero may change, and the result is the dense Cholesky.
    for _ in range(10):
        chol, m = spd_factor(rng, n)
        i, j = sorted(rng.choice(n + 1, size=2, replace=False), reverse=True)
        x = 1.7 * incidence_column(n, int(i), int(j))
        s = int(np.flatnonzero(x)[0])
        got = chol.copy()
        q = kernels.chol_update(got, x)
        np.testing.assert_allclose(got, np.linalg.cholesky(m + np.outer(x, x)),
                                   atol=1e-10)
        np.testing.assert_array_equal(got[:, :s], chol[:, :s])
        np.testing.assert_array_equal(got[:s], chol[:s])
        assert q == pytest.approx(x @ np.linalg.solve(m, x), rel=1e-12)


@pytest.mark.parametrize("n", [1, 6])
def test_update_zero_vector_is_identity(rng, n):
    chol, _ = spd_factor(rng, n)
    got = chol.copy()
    assert kernels.chol_update(got, np.zeros(n)) == 0.0
    np.testing.assert_array_equal(got, chol)


def test_update_scalar_factor():
    chol = np.array([[2.0]])
    q = kernels.chol_update(chol, np.array([1.5]))
    assert chol[0, 0] == pytest.approx(np.sqrt(4.0 + 2.25), rel=1e-15)
    assert q == pytest.approx(2.25 / 4.0, rel=1e-15)


def test_chol_update_keeps_lower_triangular(rng):
    chol, _ = spd_factor(rng, 6)
    x = rng.standard_normal(6)
    kernels.chol_update(chol, x.copy())
    np.testing.assert_allclose(chol, np.tril(chol))
    assert np.all(np.diag(chol) > 0)


def test_repeated_updates_accumulate(rng):
    n = 5
    chol, m = spd_factor(rng, n)
    acc = m.copy()
    got = chol.copy()
    for _ in range(4):
        x = rng.standard_normal(n)
        acc += np.outer(x, x)
        kernels.chol_update(got, x.copy())
    np.testing.assert_allclose(got, np.linalg.cholesky(acc), atol=1e-9)
