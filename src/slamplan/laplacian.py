"""Weighted reduced graph Laplacian with incremental inverse-factor updates.

The estimation quality of a pose graph is summarized by the determinant of
its weighted reduced Laplacian: each relative-pose factor between poses i
and j contributes w * b b^T, where b is the signed incidence vector of the
pair and w collapses the factor's 3x3 covariance to a scalar information
weight, exp(-log det / 3) of the covariance.  Anchoring removes one
row/column so the determinant is nonzero.

The Laplacian is assembled by scatter-adding the four nonzero entries of
each factor's w * b b^T.  The factor object below is built from one
Cholesky factorization L = C C^T and one triangular solve for W = C^{-1},
and keeps W's columns as rows next to the log-determinant.  A quadratic
form b^T L^{-1} b = ||W b||^2 of a pose pair is then the squared distance
between two of those rows, O(n) per pair, and an O(n^2) rank-1 update
(Sherman-Morrison on the square root) yields the log-det increment via the
matrix determinant lemma.  Callers with many candidates pass the pairs in
chunks.  ``log_det_from_scratch`` is the dense, no-reuse log-det that
oracles and the mission's plan comparison share.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InputError, RankDeficientError
from .kernels import inverse_factor_update


def information_weights(covs) -> np.ndarray:
    """Scalar weights of a (k,3,3) stack of factor covariances: the det of
    each inverse covariance to the 1/3 power, as exp(-log det / 3)."""
    sign, logdet = np.linalg.slogdet(np.asarray(covs, dtype=float))
    if np.any(sign <= 0):
        raise RankDeficientError("factor covariance is singular")
    return np.exp(-logdet / 3)


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
        raise InputError(f"anchor {anchor} out of range for {poses} poses")
    return LaplacianFactor(build_reduced_laplacian(poses - 1, edges, anchor))


def log_det_from_scratch(n: int, factors) -> float:
    """log det of the reduced Laplacian of (i, j, weight) ``factors`` over
    n non-anchor poses, assembled densely and taken by LU (slogdet)."""
    sign, logdet = np.linalg.slogdet(build_reduced_laplacian(n, factors))
    if sign <= 0:
        raise RankDeficientError("reduced Laplacian is not positive-definite")
    return float(logdet)


class LaplacianFactor:
    """Inverse Cholesky factor of a reduced Laplacian, with its log-det.

    For L = C C^T and W = C^{-1}, row r of the (n+1, n) array ``rows`` is
    column r-1 of W and row 0, the anchor pose's, is zero, so that
    rows rows^T is W^T W = L^{-1} bordered by the anchor's zero row and
    column.  All updates mutate in place; use ``copy()`` to branch.
    """

    __slots__ = ("n", "rows", "log_det")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        self.n = n = matrix.shape[0]
        self.rows = np.zeros((n + 1, n))
        self.log_det = 0.0
        if n == 0:
            return
        try:
            chol = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            raise RankDeficientError(
                "reduced Laplacian is not positive-definite; "
                "is the underlying pose graph connected?"
            ) from None
        diag = np.diagonal(chol)
        if np.min(diag) <= 1e-12:
            raise RankDeficientError("reduced Laplacian is numerically singular")
        self.log_det = 2.0 * float(np.sum(np.log(diag)))
        self.rows[1:] = solve_triangular(chol, np.eye(n), lower=True,
                                         check_finite=False).T

    def copy(self) -> "LaplacianFactor":
        dup = LaplacianFactor.__new__(LaplacianFactor)
        dup.n = self.n
        dup.rows = self.rows.copy()
        dup.log_det = self.log_det
        return dup

    def log_dopt(self) -> float:
        """log of det(L)^(1/n); the empty factor scores 1 by convention."""
        return self.log_det / self.n if self.n else 0.0

    def dopt(self) -> float:
        return float(np.exp(self.log_dopt()))

    def quad_form(self, b: np.ndarray) -> float:
        """b^T L^{-1} b for any vector b, as ||W b||^2."""
        y = np.asarray(b, dtype=float) @ self.rows[1:]
        return float(y @ y)

    def quad_form_batch(self, pairs) -> np.ndarray:
        """b^T L^{-1} b for the incidence vectors of many pose pairs at once.

        ``pairs`` is the (2, k) array of pose indices, pose 0 the anchor;
        each form is the squared distance between two gathered rows, O(n)
        and with bits that do not depend on the batch.  Two (k, n)
        temporaries are held, so callers bound k.
        """
        i, j = pairs
        y = self.rows[i]
        y -= self.rows[j]
        return np.einsum("ij,ij->i", y, y)

    def rank_one_update(self, weight: float, b: np.ndarray) -> None:
        """Add weight * b b^T in place; log-det via the determinant lemma."""
        x = np.sqrt(weight) * np.asarray(b, dtype=float)
        self.log_det += float(np.log1p(inverse_factor_update(self.rows, x)))
