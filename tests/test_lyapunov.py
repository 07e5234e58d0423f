"""The two candidate functions, their derivatives, the reference generator,
and the universal formula."""

import numpy as np
import pytest

from stostab import sontag_control, v2_eval, v2_gradient, v2_hessian
from stostab.lyapunov import _v2_columns

from exact_oracle import v2_derivatives
from loop_oracle import V1, V2, Field, generator, jacobian_fd


def fd_value_gradient(x):
    """Central differences of v2's values, by the reference Jacobian."""
    return jacobian_fd(lambda y: v2_eval(y)[..., None], x)[..., 0, :]


def derivative_cloud():
    """1000 states off the axis, where v2 is smooth."""
    pts = np.random.default_rng(12345).uniform(-3, 3, (4000, 3))
    return pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 > 1e-3][:1000]


def test_v1_values_and_derivatives():
    assert V1.value(np.zeros(3)) == 0.0
    assert V1.value(np.array([1.0, 2.0, 3.0])) == 14.0
    x = np.array([0.3, -0.7, 1.2])
    assert np.allclose(V1.gradient(x), 2 * x)
    assert np.allclose(V1.hessian(x), 2 * np.eye(3))


def test_v2_pinned_values():
    assert v2_eval(np.zeros(3)) == 0.0
    # X = 2: 0 - (1/2)*2*1 + 2*(2/2)^1 = 1
    assert v2_eval(np.array([np.sqrt(2.0), 0.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    # X = 0, x3 = 1: 2 - 0 + 0 = 2
    assert v2_eval(np.array([0.0, 0.0, 1.0])) == 2.0


def test_v2_columns_value_and_norm_are_the_evaluators_bits():
    # the one-pass core's v2 and |x|^2 stand in for v2_eval and the row
    # norm in the Monte Carlo loop, so they must agree bit for bit, also on
    # rows below X_GUARD, on the axis and at the origin
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.uniform(-3, 3, (300, 3)),
                          rng.standard_normal((50, 3)) * 1e-152,
                          [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1e-160, 0.0, -2.0]]])
    for rows in (pts, pts[:300]):
        t = _v2_columns(rows[:, 0], rows[:, 1], rows[:, 2])
        assert np.array_equal(t.value, v2_eval(rows))
        assert np.array_equal(np.sqrt(t.norm_sq), np.linalg.norm(rows, axis=1))


def test_v2_gradient_at_origin_and_on_axis():
    assert np.all(v2_gradient(np.zeros(3)) == 0.0)
    for c in (0.5, 1.0, -2.0):
        g = v2_gradient(np.array([0.0, 0.0, c]))
        assert g[0] == 0.0 and g[1] == 0.0


def test_v2_gradient_matches_finite_differences():
    x = np.array([0.3, -0.7, 1.2])
    ana = v2_gradient(x)
    exact = v2_derivatives(x)[0][0]
    assert np.linalg.norm(ana - exact) < 1e-12 * np.linalg.norm(exact)
    num = fd_value_gradient(x)
    assert np.linalg.norm(ana - num) < 1e-6 * np.linalg.norm(num)


def test_v2_gradient_fd_cloud():
    pts = derivative_cloud()
    ana = v2_gradient(pts)
    exact = v2_derivatives(pts)[0]
    rel = np.linalg.norm(ana - exact, axis=-1) / np.linalg.norm(exact, axis=-1)
    assert rel.max() < 1e-12
    num = fd_value_gradient(pts)
    rel_fd = np.linalg.norm(ana - num, axis=-1) / np.linalg.norm(num, axis=-1)
    assert rel_fd.max() < 1e-6


def test_v2_hessian_on_axis_closed_form():
    for c in (0.0, 0.5, -1.0, 2.0):
        h = v2_hessian(np.array([0.0, 0.0, c]))
        want = np.diag([-(1 + c * c), -(1 + c * c), 4.0])
        assert np.allclose(h, want, atol=1e-12)


def test_v2_hessian_symmetric_and_matches_fd():
    pts = derivative_cloud()
    hess = v2_hessian(pts)
    assert np.allclose(hess, np.swapaxes(hess, -1, -2), atol=0.0)
    # against the exact Hessian
    exact = v2_derivatives(pts)[1]
    rel_v = np.linalg.norm((hess - exact).reshape(len(pts), -1), axis=-1) \
        / np.linalg.norm(exact.reshape(len(pts), -1), axis=-1)
    assert rel_v.max() < 1e-12
    # against first differences of the analytic gradient (much tighter)
    num_g = jacobian_fd(v2_gradient, pts)
    rel_g = np.linalg.norm((hess - num_g).reshape(len(pts), -1), axis=-1) \
        / np.linalg.norm(num_g.reshape(len(pts), -1), axis=-1)
    assert rel_g.max() < 1e-7


def test_v2_positive_definite_on_cloud():
    rng = np.random.default_rng(8)
    cloud = rng.uniform(-5, 5, (100000, 3))
    vals = v2_eval(cloud)
    assert vals.min() > 0.0
    assert v2_eval(np.zeros(3)) == 0.0


def test_v2_proper_on_growing_spheres():
    # the minimum over the sphere |x| = R is R^2/2, attained at x3 = 0
    rng = np.random.default_rng(8)
    dirs = rng.standard_normal((20000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    mins = [v2_eval(r * dirs).min() for r in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert np.all(np.diff(mins) > 0)
    for r, m in zip((1.0, 2.0, 4.0, 8.0, 16.0), mins):
        assert m >= 0.5 * r * r - 1e-9


def test_v2_planar_rotation_invariance():
    rng = np.random.default_rng(4242)
    q = rng.uniform(-2, 2, (2000, 3))
    th = rng.uniform(0, 2 * np.pi, 2000)
    rot = np.stack([q[:, 0] * np.cos(th) - q[:, 1] * np.sin(th),
                    q[:, 0] * np.sin(th) + q[:, 1] * np.cos(th),
                    q[:, 2]], axis=-1)
    assert np.abs(v2_eval(rot) - v2_eval(q)).max() < 1e-12


def test_generator_zero_fields():
    br = generator(V2, None, None, np.array([0.3, 0.1, -1.0]))
    assert br.lf_v == 0.0
    assert br.trace_term == 0.0
    assert br.lg_v is None
    assert br.value() == 0.0


def test_generator_trace_on_axis():
    # Hessian at (0,0,1) is diag(-2,-2,4); noise (s1,s2,0) gives
    # (1/2)(-2 s1^2 - 2 s2^2)
    s1, s2 = 0.3, 0.4
    br = generator(V2, None,
                   lambda x: np.array([s1, s2, 0.0]),
                   np.array([0.0, 0.0, 1.0]))
    assert br.trace_term == pytest.approx(-(s1 ** 2 + s2 ** 2), rel=1e-12)


def test_generator_one_dimensional_example():
    # V = x^2, sigma = x, at x = 2: (1/2) * 2 * 4 = 4
    field = Field(lambda y: y[..., 0] ** 2, lambda y: 2.0 * y,
                  lambda y: np.full(y.shape + (1,), 2.0))
    br = generator(field, None, lambda x: np.asarray(x, float), np.array([2.0]))
    assert br.trace_term == 4.0


def test_generator_with_control_matrix():
    g = lambda x: np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    x = np.array([0.5, -0.5, 1.0])
    br = generator(V2, None, None, x, control_matrix=g)
    assert br.lg_v is not None
    assert np.allclose(br.lg_v, v2_gradient(x)[:2])


def test_sontag_zero_gain_branch():
    u = sontag_control(np.float64(5.0), np.float64(0.0), np.zeros(2))
    assert np.all(u == 0.0)


def test_sontag_hand_example():
    # F=3, G=4: -((3+5)/4) * (2,0) = (-4, 0)
    u = sontag_control(np.float64(3.0), np.float64(4.0), np.array([2.0, 0.0]))
    assert np.allclose(u, [-4.0, 0.0])


def test_sontag_consistency_guard():
    with pytest.raises(ValueError):
        sontag_control(np.float64(1.0), np.float64(4.0), np.array([1.0, 0.0]))


def test_sontag_negativity():
    # closing the loop yields F + lg.u = -sqrt(F^2+G^2) <= -G/sqrt(2)
    rng = np.random.default_rng(77)
    for _ in range(200):
        lg = rng.standard_normal(2)
        g_term = lg @ lg
        f_term = rng.standard_normal() * 3.0
        u = sontag_control(f_term, g_term, lg)
        closed = f_term + lg @ u
        assert closed == pytest.approx(-np.hypot(f_term, g_term), rel=1e-9)
        assert closed <= -g_term / np.sqrt(2.0) + 1e-12
