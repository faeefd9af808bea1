"""Weighted reduced graph Laplacian with incremental inverse-factor updates.

The estimation quality of a pose graph is summarized by the determinant of
its weighted reduced Laplacian: each relative-pose factor between poses i
and j contributes w * b b^T, where b is the signed incidence vector of the
pair and w collapses the factor's 3x3 covariance to a scalar information
weight, exp(-log det / 3) of the covariance.  Pose 0 is the anchor; its
row and column are dropped so the determinant is nonzero.

Factors, quadratic forms and updates all take pose pairs (i, j).  The
factor object below keeps an inverse factor W of L, with W^T W = L^{-1},
as rows, one per pose, next to the log-determinant: a pair's
b^T L^{-1} b = ||W b||^2 is the squared distance between two rows, O(n),
and a rank-1 update is O(n^2).  ``reduced_laplacian`` builds it from a
pose graph's factors with no LAPACK call.  ``log_det_from_scratch`` is
the no-reuse log-det that oracles and the mission's plan comparison
share: it sums L into ``_anchored_pattern``, and factors it with
``_spd_factor``, SuperLU with diagonal pivots.  The simulator's normal
equations use the same pattern builder, with 3x3 blocks, and the same
factorization.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import splu

from .errors import InputError, RankDeficientError
from .graph import _adjacency


def information_weights(covs) -> np.ndarray:
    """Scalar weights of a (k,3,3) stack of factor covariances: the det of
    each inverse covariance to the 1/3 power, as exp(-log det / 3)."""
    sign, logdet = np.linalg.slogdet(np.asarray(covs, dtype=float))
    if np.any(sign <= 0):
        raise RankDeficientError("factor covariance is singular")
    return np.exp(-logdet / 3)


def _pose_factors(n: int, factors):
    """(k, 2) pose indices and (k,) weights of (i, j, weight) ``factors``
    over poses 0..n; an index outside [0, n] raises an InputError, which
    names the first one."""
    fac = np.asarray(list(factors), dtype=float).reshape(-1, 3)
    ends = fac[:, :2].astype(np.int64)
    outside = (ends < 0) | (ends > n)
    if outside.any():
        raise InputError(f"pose index {ends.flat[np.argmax(outside)]} outside [0, {n}]")
    return ends, fac[:, 2]


def _pair_keys(i, j, poses: int) -> np.ndarray:
    """One integer per unordered pose pair."""
    return np.minimum(i, j) * poses + np.maximum(i, j)


def reduced_laplacian(poses: int, edges) -> "LaplacianFactor":
    """Factor the weighted reduced Laplacian of a pose graph.

    ``edges`` holds (i, j, weight) with indices in [0, poses) and positive,
    finite weights; pose 0 is the anchor.  No LAPACK or BLAS matrix routine
    runs, so the factor's bits do not depend on the BLAS thread count.  For
    a spanning tree, W is known in closed form: with gamma_c the weight of
    the tree factor into pose c, rows[c] = rows[parent(c)] + e_c /
    sqrt(gamma_c), and log det L is the sum of log gamma_c (the matrix-tree
    theorem).  The tree is the breadth-first one from pose 0, through the
    first factor of each pair in input order; every other factor is one
    rank-one update, in input order.
    """
    if poses < 1:
        raise InputError(f"anchor pose 0 out of range for {poses} poses")
    ends, weights = _pose_factors(poses - 1, edges)
    if not np.all((weights > 0) & np.isfinite(weights)):
        raise InputError("factor weights must be positive and finite")
    order, parent = breadth_first_order(
        _adjacency(ends, np.ones(len(ends)), poses), 0, return_predecessors=True)
    if len(order) < poses:
        raise RankDeficientError("reduced Laplacian is not positive-definite; "
                                 "is the underlying pose graph connected?")
    child = order[1:]
    keys, first = np.unique(_pair_keys(*ends.T, poses), return_index=True)
    tree = first[np.searchsorted(keys, _pair_keys(child, parent[child], poses))]
    rows = np.zeros((poses, poses - 1))
    for c, up, scale in zip(child.tolist(), parent[child].tolist(),
                            (1.0 / np.sqrt(weights[tree])).tolist()):
        rows[c] = rows[up]
        rows[c, c - 1] = scale
    factor = LaplacianFactor(rows, math.fsum(np.log(weights[tree])))
    rest = np.ones(len(ends), dtype=bool)
    rest[tree] = False
    for k in np.flatnonzero(rest):
        factor._add(weights[k], ends[k, 0], ends[k, 1])
    return factor


def log_det_from_scratch(n: int, factors) -> float:
    """log det of the reduced Laplacian of (i, j, weight) ``factors`` over
    n non-anchor poses, pose 0 the anchor, with no factor reuse.

    The matrix is summed into its ``_anchored_pattern`` with one
    ``np.bincount``, ii entries first, then jj, ij and ji, each in factor
    order, and factored by ``_spd_factor``, so its bits do not depend on
    the BLAS thread count.
    """
    ends, w = _pose_factors(n, factors)
    keep, slot, indices, indptr = _anchored_pattern(ends, n, 1)
    kind = np.argsort(np.nonzero(keep)[1], kind="stable")  # block kind, then factor
    data = np.bincount(slot[kind], weights=np.stack([w, w, -w, -w], 1)[keep][kind],
                       minlength=len(indices))
    lap = csc_matrix((data, indices, indptr), shape=(n, n))
    return _spd_factor(lap, "reduced Laplacian is not positive-definite")[1]


def _anchored_pattern(ends, n: int, block: int):
    """Compressed-column pattern of a matrix over n non-anchor poses, pose
    0 the anchor, that each pose pair of the (K,2) ``ends`` adds its ii, jj,
    ij and ji blocks of ``block`` x ``block`` entries to: 1 for the reduced
    Laplacian, 3 for the SE(2) normal equations.

    Blocks in the anchor's row or column are dropped.  Returns the (K,4)
    mask of kept blocks, the CSC slot of each entry of the kept blocks in
    mask order, ``indices`` and ``indptr``.  The last two are C ints,
    SuperLU's index type, so a matrix built on them is not scanned for a
    narrower one.
    """
    i, j = ends[:, 0], ends[:, 1]
    rows, cols = np.stack([i, j, i, j], 1), np.stack([i, j, j, i], 1)
    keep = (rows > 0) & (cols > 0)
    dim = block * n
    offs = np.arange(block)
    r = block * (rows[keep][:, None, None] - 1) + offs[:, None]
    c = block * (cols[keep][:, None, None] - 1) + offs
    keys, slot = np.unique((c * dim + r).ravel(), return_inverse=True)
    indptr = np.searchsorted(keys // dim, np.arange(dim + 1))
    return keep, slot, (keys % dim).astype(np.intc), indptr.astype(np.intc)


def _spd_factor(h, message):
    """SuperLU factors of the SPD ``h`` and its log det.

    Pivots stay on the diagonal of a symmetric fill-reducing order, so the
    log det is the sum of the logs of U's diagonal.  An exactly singular
    ``h``, a pivot that is not positive (NaN included) or one taken off
    the diagonal raises a ``RankDeficientError`` with ``message``.
    """
    try:
        lu = splu(h, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError:  # "Factor is exactly singular"
        raise RankDeficientError(message) from None
    pivots = lu.U.diagonal()
    if not (np.all(pivots > 0) and np.array_equal(lu.perm_r, lu.perm_c)):
        raise RankDeficientError(message)
    return lu, float(np.sum(np.log(pivots)))


class LaplacianFactor:
    """Inverse factor of a reduced Laplacian, with its log-det.

    For a square W with W^T W = L^{-1}, row r of the (n+1, n) array
    ``rows`` is column r-1 of W and row 0, the anchor pose's, is zero, so
    that rows rows^T is L^{-1} bordered by the anchor's zero row and
    column.  ``reduced_laplacian`` builds it from a pose graph.  All
    updates mutate in place; use ``copy()`` to branch.
    """

    __slots__ = ("n", "rows", "log_det")

    def __init__(self, rows: np.ndarray, log_det: float):
        self.n = rows.shape[1]
        self.rows = rows
        self.log_det = log_det

    def copy(self) -> "LaplacianFactor":
        return LaplacianFactor(self.rows.copy(), self.log_det)

    def log_dopt(self) -> float:
        """log of det(L)^(1/n); the empty factor scores 1 by convention."""
        return self.log_det / self.n if self.n else 0.0

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

        This is the greedy's selection step; ``reduced_laplacian`` adds a
        pose graph's own factors through the same ``_add``, so counting
        these calls counts selections.
        """
        self._add(weight, i, j)

    def _add(self, weight: float, i: int, j: int) -> None:
        """Sherman-Morrison on the square root: p = sqrt(w) (rows[i] - rows[j])
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
