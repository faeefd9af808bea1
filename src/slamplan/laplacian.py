"""Weighted reduced graph Laplacian with incremental Cholesky updates.

The estimation quality of a pose graph is summarized by the determinant of
its weighted reduced Laplacian: each relative-pose factor between poses i
and j contributes w * b b^T, where b is the signed incidence vector of the
pair and w collapses the factor's 3x3 covariance to a scalar information
weight.  Anchoring removes one row/column so the determinant is nonzero.

The Laplacian is assembled by scatter-adding the four nonzero entries of
each factor's w * b b^T.  The factor object below maintains a
lower-triangular Cholesky factor and the log-determinant, supports O(n^2)
rank-1 updates (a product-form update whose triangular solve also yields
the log-det increment via the matrix determinant lemma), and evaluates
quadratic forms b^T L^{-1} b with one LAPACK triangular solve per batch of
columns.  Callers with many candidates pass the columns in chunks.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import RankDeficientError
from .kernels import chol_update


def information_weight(cov: np.ndarray) -> float:
    """Scalar weight of a relative-pose factor: det of the inverse
    covariance, taken to the 1/3 power for a 3x3 block."""
    cov = np.asarray(cov, dtype=float)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise RankDeficientError("factor covariance is singular")
    return float(np.exp(-logdet / cov.shape[0]))


def incidence_column(n: int, i: int, j: int, anchor: int = 0) -> np.ndarray:
    """Signed incidence vector of the pair (i, j) with the anchor dropped.

    Pose indices are absolute over n+1 poses; rows shift down by one past
    the anchor."""
    b = np.zeros(n)
    if i != anchor:
        b[i - 1 if i > anchor else i] = 1.0
    if j != anchor:
        b[j - 1 if j > anchor else j] = -1.0
    return b


def build_reduced_laplacian(n: int, factors, anchor: int = 0) -> np.ndarray:
    """Dense reduced Laplacian from (i, j, weight) factors over n non-anchor
    poses.  Duplicate pairs accumulate.

    Entries are added factor by factor, in input order, so each sum is the
    one that adding w * outer(b, b) per factor would give.
    """
    lap = np.zeros((n, n))
    fac = np.asarray(list(factors), dtype=float).reshape(-1, 3)
    ends = fac[:, :2].astype(np.int64)
    w = fac[:, 2]
    ri, rj = (ends - (ends > anchor)).T  # reduced index of each endpoint
    ki, kj = (ends != anchor).T
    # per factor, in order: (i, i, w), (j, j, w), (i, j, -w), (j, i, -w)
    rows = np.stack([ri, rj, ri, rj], axis=1)
    cols = np.stack([ri, rj, rj, ri], axis=1)
    vals = np.stack([w, w, -w, -w], axis=1)
    mask = np.stack([ki, kj, ki & kj, ki & kj], axis=1)
    np.add.at(lap, (rows[mask], cols[mask]), vals[mask])
    return lap


def reduced_laplacian(poses: int, edges, anchor: int = 0) -> "LaplacianFactor":
    """Factor the weighted reduced Laplacian of a pose graph.

    ``edges`` holds (i, j, weight) with indices in [0, poses); the anchor
    pose's row and column are removed before factorization.
    """
    if not 0 <= anchor < poses:
        raise ValueError(f"anchor {anchor} out of range for {poses} poses")
    return LaplacianFactor(build_reduced_laplacian(poses - 1, edges, anchor))


class LaplacianFactor:
    """Cholesky factor (lower) of a reduced Laplacian, with its log-det.

    All updates mutate in place; use ``copy()`` to branch.
    """

    __slots__ = ("n", "chol", "log_det")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        self.n = matrix.shape[0]
        if self.n == 0:
            self.chol = np.zeros((0, 0))
            self.log_det = 0.0
            return
        try:
            self.chol = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            raise RankDeficientError(
                "reduced Laplacian is not positive-definite; "
                "is the underlying pose graph connected?"
            ) from None
        diag = np.diagonal(self.chol)
        if np.min(diag) <= 1e-12:
            raise RankDeficientError("reduced Laplacian is numerically singular")
        self.log_det = 2.0 * float(np.sum(np.log(diag)))

    @classmethod
    def from_factors(cls, n: int, factors) -> "LaplacianFactor":
        return cls(build_reduced_laplacian(n, factors))

    def copy(self) -> "LaplacianFactor":
        dup = LaplacianFactor.__new__(LaplacianFactor)
        dup.n = self.n
        dup.chol = self.chol.copy()
        dup.log_det = self.log_det
        return dup

    def matrix(self) -> np.ndarray:
        return self.chol @ self.chol.T

    def log_dopt(self) -> float:
        """log of det(L)^(1/n); the empty factor scores 1 by convention."""
        return self.log_det / self.n if self.n else 0.0

    def dopt(self) -> float:
        return float(np.exp(self.log_dopt()))

    def quad_form(self, b: np.ndarray) -> float:
        """b^T L^{-1} b via one forward triangular solve."""
        y = solve_triangular(self.chol, b, lower=True, check_finite=False)
        return float(y @ y)

    def quad_form_batch(self, cols: np.ndarray) -> np.ndarray:
        """Quadratic forms for many incidence columns at once.

        ``cols`` is (n, k); returns the length-k array of b^T L^{-1} b.
        The solve holds a second (n, k) array, so callers bound k.
        """
        y = solve_triangular(self.chol, cols, lower=True, check_finite=False)
        return np.einsum("ij,ij->j", y, y)

    def rank_one_update(self, weight: float, b: np.ndarray) -> None:
        """Add weight * b b^T in place; log-det via the determinant lemma."""
        x = np.sqrt(weight) * np.asarray(b, dtype=float)
        self.log_det += float(np.log1p(chol_update(self.chol, x)))
