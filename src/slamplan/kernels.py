"""Dense lower-triangular Cholesky kernel, on numpy and LAPACK.

``BACKEND`` names the implementation for benchmark records; there is only
one.
"""

import numpy as np
from scipy.linalg import solve_triangular

BACKEND = "numpy"


def chol_update(chol, x) -> float:
    """In-place rank-1 update of a lower Cholesky factor: C C^T += x x^T.

    Product form C' = C chol(I + p p^T) with p = C^{-1} x (Gill, Golub,
    Murray & Saunders, "Methods for modifying matrix factorizations",
    1974).  With t_k = 1 + sum_{i<=k} p_i^2, chol(I + p p^T) has diagonal
    sqrt(t_k / t_{k-1}) and entries p_i p_k / sqrt(t_{k-1} t_k) below it,
    so column k of C' is sqrt(t_k / t_{k-1}) C e_k plus a multiple of
    sum_{i>k} p_i C e_i, one reverse cumulative sum.  p and the update
    vanish before x's first nonzero, so only the trailing block from there
    is touched.

    Returns ||p||^2 = x^T (C C^T)^{-1} x, so by the determinant lemma
    det(C' C'^T) = det(C C^T) (1 + ||p||^2).
    """
    nonzero = np.flatnonzero(x)
    if len(nonzero) == 0:
        return 0.0
    s = nonzero[0]
    block = chol[s:, s:]
    p = solve_triangular(block, x[s:], lower=True, check_finite=False)
    t = 1.0 + np.cumsum(p * p)
    t_prev = np.concatenate(([1.0], t[:-1]))
    tail = np.zeros_like(block)  # column k: sum_{i>k} p_i C e_i
    tail[:, :-1] = np.cumsum((block * p)[:, :0:-1], axis=1)[:, ::-1]
    block *= np.sqrt(t / t_prev)
    block += tail * (p / np.sqrt(t_prev * t))
    return float(p @ p)
