"""Planar rigid-motion helpers for pose-graph work.

Poses are arrays (x, y, theta) with theta in radians.  Composition and
relative poses follow the usual convention: compose(a, b) applies b in
a's frame, between(a, b) is the motion observed from a to b.
"""

from __future__ import annotations

import numpy as np


def wrap_angle(a):
    """Wrap to (-pi, pi]; -pi maps to +pi."""
    w = np.remainder(np.asarray(a, dtype=float), 2.0 * np.pi)
    return np.where(w > np.pi, w - 2.0 * np.pi, w) if np.ndim(w) else (
        float(w - 2.0 * np.pi) if w > np.pi else float(w)
    )


def _mat2(m00, m01, m10, m11) -> np.ndarray:
    """2x2 matrices [[m00, m01], [m10, m11]], stacked over the entries' shape."""
    out = np.empty(np.shape(m00) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def rot(theta) -> np.ndarray:
    """Rotation matrix of theta; (2,2) for a scalar, (K,2,2) for a (K,) stack."""
    c, s = np.cos(theta), np.sin(theta)
    return _mat2(c, -s, s, c)


def _stacked(*poses):
    """(K,3) float stacks of the given poses, and whether one pair was given."""
    single = np.ndim(poses[0]) == 1
    return [np.atleast_2d(np.asarray(p, dtype=float)) for p in poses], single


def compose(a, b) -> np.ndarray:
    """b applied in a's frame: (3,) for one pair, (K,3) for (K,3) stacks;
    each rotation is a ``matmul`` of a 2x2 matrix, so a stack gives the
    bits of its single-pair calls."""
    (a, b), single = _stacked(a, b)
    xy = a[:, :2] + (rot(a[:, 2]) @ b[:, :2, None])[..., 0]
    out = np.concatenate([xy, wrap_angle(a[:, 2] + b[:, 2])[:, None]], axis=1)
    return out[0] if single else out


def between(a, b) -> np.ndarray:
    """Relative pose taking a to b (a's frame): (3,) for one pair, (K,3)
    for (K,3) stacks, with the bits of its single-pair calls."""
    (a, b), single = _stacked(a, b)
    xy = (_t(rot(a[:, 2])) @ (b[:, :2] - a[:, :2])[..., None])[..., 0]
    out = np.concatenate([xy, wrap_angle(b[:, 2] - a[:, 2])[:, None]], axis=1)
    return out[0] if single else out


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a (K,n,n) stack (a view, as ``.T`` is)."""
    return m.transpose(0, 2, 1)


def edge_residual(xi, xj, z) -> np.ndarray:
    """Residual of measurement z on the pair (xi, xj), angle wrapped.

    e = t2v(Z^-1 * (Xi^-1 * Xj)): the prediction error is rotated into the
    measurement frame so the covariance applies in its own axes.  Takes
    one pair as (3,) poses or K pairs as (K,3) stacks, and returns (3,) or
    (K,3); each rotation is a ``matmul`` of a 2x2 matrix, so a stack gives
    the bits of its single-pair calls.
    """
    (xi, xj, z), single = _stacked(xi, xj, z)
    pred_xy = _t(rot(xi[:, 2])) @ (xj[:, :2] - xi[:, :2])[..., None]
    e_xy = _t(rot(z[:, 2])) @ (pred_xy - z[:, :2, None])
    e_th = wrap_angle(wrap_angle(xj[:, 2] - xi[:, 2]) - z[:, 2])
    e = np.concatenate([e_xy[..., 0], e_th[:, None]], axis=1)
    return e[0] if single else e


def edge_jacobians(xi, xj, z) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobians of the residual w.r.t. xi and xj: 3x3 each for
    one pair, (K,3,3) each for (K,3) stacks."""
    (xi, xj, z), single = _stacked(xi, xj, z)
    k = len(xi)
    rzt = _t(rot(z[:, 2]))
    rzt_rit = rzt @ _t(rot(xi[:, 2]))
    dt = (xj[:, :2] - xi[:, :2])[..., None]
    s, c = np.sin(xi[:, 2]), np.cos(xi[:, 2])
    drit = _mat2(-s, c, -c, -s)  # d(Ri^T)/dtheta
    a = np.zeros((k, 3, 3))
    a[:, :2, :2] = -rzt_rit
    a[:, :2, 2] = (rzt @ (drit @ dt))[..., 0]
    a[:, 2, 2] = -1.0
    b = np.zeros((k, 3, 3))
    b[:, :2, :2] = rzt_rit
    b[:, 2, 2] = 1.0
    return (a[0], b[0]) if single else (a, b)
