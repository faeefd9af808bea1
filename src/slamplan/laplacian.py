"""Weighted reduced graph Laplacian with incremental inverse-factor updates.

The estimation quality of a pose graph is summarized by the determinant of
its weighted reduced Laplacian: each relative-pose factor between poses i
and j contributes w * b b^T, where b is the signed incidence vector of the
pair and w collapses the factor's 3x3 covariance to a scalar information
weight, exp(-log det / 3) of the covariance.  Pose 0 is the anchor; its
row and column are dropped so the determinant is nonzero.

Factors, quadratic forms and updates all take pose pairs (i, j).  The
factor object below keeps the inverse Cholesky factor W = C^{-1} of
L = C C^T as rows, one per pose, next to the log-determinant: a pair's
b^T L^{-1} b = ||W b||^2 is the squared distance between two rows, O(n),
and a rank-1 update is O(n^2).  ``log_det_from_scratch`` is the dense,
no-reuse log-det that oracles and the mission's plan comparison share.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InputError, RankDeficientError


def information_weights(covs) -> np.ndarray:
    """Scalar weights of a (k,3,3) stack of factor covariances: the det of
    each inverse covariance to the 1/3 power, as exp(-log det / 3)."""
    sign, logdet = np.linalg.slogdet(np.asarray(covs, dtype=float))
    if np.any(sign <= 0):
        raise RankDeficientError("factor covariance is singular")
    return np.exp(-logdet / 3)


def build_reduced_laplacian(n: int, factors) -> np.ndarray:
    """Dense reduced Laplacian from (i, j, weight) factors over poses
    0..n, pose 0 the anchor.  Duplicate pairs accumulate.

    Entries are added factor by factor, in input order, so each sum is the
    one that adding w * outer(b, b) per factor would give.
    """
    lap = np.zeros((n + 1, n + 1))
    fac = np.asarray(list(factors), dtype=float).reshape(-1, 3)
    i, j = fac[:, :2].astype(np.int64).T
    w = fac[:, 2]
    # per factor, in order: (i, i, w), (j, j, w), (i, j, -w), (j, i, -w)
    rows = np.stack([i, j, i, j], axis=1)
    cols = np.stack([i, j, j, i], axis=1)
    np.add.at(lap, (rows, cols), np.stack([w, w, -w, -w], axis=1))
    return lap[1:, 1:]


def reduced_laplacian(poses: int, edges) -> "LaplacianFactor":
    """Factor the weighted reduced Laplacian of a pose graph.

    ``edges`` holds (i, j, weight) with indices in [0, poses); pose 0 is
    the anchor.
    """
    if poses < 1:
        raise InputError(f"anchor pose 0 out of range for {poses} poses")
    return LaplacianFactor(build_reduced_laplacian(poses - 1, edges))


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

    def quad_form_batch(self, pairs) -> np.ndarray:
        """b^T L^{-1} b for many pose pairs at once.

        ``pairs`` is the (2, k) array of pose indices; each form is the
        squared distance between two gathered rows, O(n) and with bits that
        do not depend on the batch.  Two (k, n) temporaries are held, so
        callers bound k.
        """
        i, j = pairs
        y = self.rows[i]
        y -= self.rows[j]
        return np.einsum("ij,ij->i", y, y)

    def rank_one_update(self, weight: float, i: int, j: int) -> None:
        """Add the factor weight * b b^T of the pose pair (i, j) in place.

        Sherman-Morrison on the square root: p = sqrt(w) (rows[i] - rows[j])
        is W sqrt(w) b, and with s = ||p||^2, r = sqrt(1 + s) and
        c = 1 / (r (r + 1)), W' = (I - c p p^T) W, which is
        rows' = rows - c (rows p) p^T; the log-det grows by log1p(s).  Both
        O(n^2) steps stay off BLAS, whose gemv and ger of this size stall on
        2 threads (0.089 s per 20x20 plan against 0.020 s).
        """
        rows = self.rows
        p = np.sqrt(weight) * (rows[i] - rows[j])
        s = float(p @ p)
        r = np.sqrt(1.0 + s)
        rows -= (np.einsum("ij,j->i", rows, p) / (r * (r + 1.0)))[:, None] * p
        self.log_det += float(np.log1p(s))
