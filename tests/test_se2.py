import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slamplan.se2 import (
    between,
    compose,
    edge_jacobians,
    edge_residual,
    wrap_angle,
)


def random_pose(rng):
    return np.array([
        rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-np.pi, np.pi)
    ])


def test_wrap_angle_basics():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(2 * np.pi + 0.25) == pytest.approx(0.25)
    arr = wrap_angle(np.array([0.0, 4 * np.pi, -np.pi / 2]))
    assert np.allclose(arr, [0.0, 0.0, -np.pi / 2])


def test_wrap_angle_range(rng):
    vals = wrap_angle(rng.uniform(-50, 50, size=500))
    assert np.all(vals > -np.pi) and np.all(vals <= np.pi)


def test_compose_inverse_round_trip(rng):
    for _ in range(50):
        x = random_pose(rng)
        y = random_pose(rng)
        z = compose(x, y)
        inv = between(x, np.zeros(3))  # the inverse of x
        back = compose(inv, z)
        assert np.allclose(back[:2], y[:2], atol=1e-12)
        assert wrap_angle(back[2] - y[2]) == pytest.approx(0.0, abs=1e-12)
        ident = compose(x, inv)
        assert np.allclose(ident[:2], 0.0, atol=1e-12)


def test_between_matches_compose(rng):
    for _ in range(50):
        xi = random_pose(rng)
        xj = random_pose(rng)
        z = between(xi, xj)
        rebuilt = compose(xi, z)
        assert np.allclose(rebuilt[:2], xj[:2], atol=1e-12)
        assert wrap_angle(rebuilt[2] - xj[2]) == pytest.approx(0.0, abs=1e-12)


def test_residual_zero_at_consistent_measurement(rng):
    for _ in range(20):
        xi = random_pose(rng)
        xj = random_pose(rng)
        z = between(xi, xj)
        e = edge_residual(xi, xj, z)
        assert np.allclose(e, 0.0, atol=1e-12)


def test_jacobians_match_finite_differences(rng):
    h = 1e-6
    for _ in range(30):
        xi = random_pose(rng)
        xj = random_pose(rng)
        z = between(random_pose(rng), random_pose(rng))
        a, b = edge_jacobians(xi, xj, z)
        num_a = np.zeros((3, 3))
        num_b = np.zeros((3, 3))
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = h
            ep = edge_residual(xi + dp, xj, z)
            em = edge_residual(xi - dp, xj, z)
            diff = ep - em
            diff[2] = wrap_angle(diff[2])
            num_a[:, k] = diff / (2 * h)
            ep = edge_residual(xi, xj + dp, z)
            em = edge_residual(xi, xj - dp, z)
            diff = ep - em
            diff[2] = wrap_angle(diff[2])
            num_b[:, k] = diff / (2 * h)
        assert np.allclose(a, num_a, atol=1e-6)
        assert np.allclose(b, num_b, atol=1e-6)


def _reference_rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _reference_edge_terms(xi, xj, z):
    """Residual and Jacobians of one edge as written before stacks."""
    pred_xy = _reference_rot(xi[2]).T @ (xj[:2] - xi[:2])
    pred_th = wrap_angle(xj[2] - xi[2])
    e_xy = _reference_rot(z[2]).T @ (pred_xy - z[:2])
    e = np.array([e_xy[0], e_xy[1], wrap_angle(pred_th - z[2])])
    ri, rz = _reference_rot(xi[2]), _reference_rot(z[2])
    rzt_rit = rz.T @ ri.T
    s, c = np.sin(xi[2]), np.cos(xi[2])
    drit = np.array([[-s, c], [-c, -s]])
    a = np.zeros((3, 3))
    a[:2, :2] = -rzt_rit
    a[:2, 2] = rz.T @ (drit @ (xj[:2] - xi[:2]))
    a[2, 2] = -1.0
    b = np.zeros((3, 3))
    b[:2, :2] = rzt_rit
    b[2, 2] = 1.0
    return e, a, b


def test_stacked_edge_terms_match_per_edge_formulas(rng):
    k = 2000
    xi = np.column_stack([rng.uniform(-50, 50, (k, 2)), rng.uniform(-4, 4, k)])
    xj = xi + np.column_stack([rng.normal(0, 2, (k, 2)), rng.normal(0, 1, k)])
    z = np.column_stack([rng.normal(0, 2, (k, 2)), rng.uniform(-3.2, 3.2, k)])
    e = edge_residual(xi, xj, z)
    a, b = edge_jacobians(xi, xj, z)
    assert e.shape == (k, 3) and a.shape == b.shape == (k, 3, 3)
    for n in range(k):
        want = _reference_edge_terms(xi[n], xj[n], z[n])
        # bitwise, so the batched optimizer keeps the per-edge bits
        for got, ref in zip((e[n], a[n], b[n]), want):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(edge_residual(xi[n], xj[n], z[n]), want[0])


def _reference_compose(a, b):
    """``compose`` of one pair as written before stacks."""
    xy = a[:2] + _reference_rot(a[2]) @ b[:2]
    return np.array([xy[0], xy[1], wrap_angle(a[2] + b[2])])


def _reference_between(a, b):
    """``between`` of one pair as written before stacks."""
    xy = _reference_rot(a[2]).T @ (b[:2] - a[:2])
    return np.array([xy[0], xy[1], wrap_angle(b[2] - a[2])])


_coordinate = st.floats(-1e3, 1e3, allow_nan=False)
_pose = st.tuples(_coordinate, _coordinate, st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(_pose, _pose), min_size=1, max_size=40))
def test_stacked_compose_and_between_give_the_bits_of_single_pairs(pairs):
    # the simulator measures a route's motions in one ``between`` call and
    # dead-reckons all seeds with one ``compose`` per step
    a, b = (np.array(p, dtype=float) for p in zip(*pairs))
    for fn, reference in ((compose, _reference_compose), (between, _reference_between)):
        stacked = fn(a, b)
        assert stacked.shape == a.shape
        for n in range(len(a)):
            single = fn(a[n], b[n])
            assert single.shape == (3,)
            assert stacked[n].tobytes() == single.tobytes()
            assert single.tobytes() == reference(a[n], b[n]).tobytes()
