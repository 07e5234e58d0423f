"""Plant matrices, the noise-gain design, and the assembled closed loop."""

import functools
from fractions import Fraction

import numpy as np
import pytest

from stostab import (CONTINUITY_RADII, ClosedLoop, DiffusionDesign,
                     SystemParams, check_design_conditions, closed_loop,
                     controllability_rank, diffusion_b, eigs_sym2, g_matrix,
                     grid_points, h_matrix, loop_columns, sigma, v2_hessian)
from stostab import brockett

import exact_oracle
from loop_oracle import V2, generator, ito_drift, jacobian_fd, oracle_loop

P44 = SystemParams(1.0, 1.0, 4.0, 4.0)
CHAINED = SystemParams(1.0, 1.0, 1.0, 0.0)
D4 = DiffusionDesign(1e-4, 1e-4)
PARITY_PLANTS = (P44, CHAINED, SystemParams(1.0, 1.0, 1.0, 4.0),
                 SystemParams(2.0, -1.0, 3.0, 0.5))
PARITY_DESIGNS = (D4, DiffusionDesign(1.0, 0.5))


@functools.cache
def exact_design(p, d):
    """100 states off the x1 = x2 = 0 axis and the exact oracle there."""
    pts = np.random.default_rng(15).uniform(-3, 3, (120, 3))
    pts = pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 > 1e-3][:100]
    return pts, exact_oracle.design(p, d, pts)


def columns_stacked(p, d, x):
    """The kernel's (f_term, g_term, lg (..., 2)) at states x (..., 3)."""
    t = loop_columns(p, d, x[..., 0], x[..., 1], x[..., 2])
    return t.f_term, t.g_term, np.stack(t.lg, axis=-1)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemParams(1.0, 0.0, 1.0, 1.0)
    # b1*b4 + b2*b3 = 4 - 4 = 0
    with pytest.raises(ValueError):
        SystemParams(1.0, 1.0, -4.0, 4.0)
    # finite gains whose b1*b4 + b2*b3 overflows, to inf or to inf - inf
    for b3 in (1.0, -1e200):
        with pytest.raises(ValueError, match=r"^b1\*b4 \+ b2\*b3 must be nonzero and finite$"):
            SystemParams(1e200, 1e200, b3, 1e200)
    # b1*b4 + b2*b3 = 1e307 is finite, but b1*b4 - b2*b3 overflows
    with pytest.raises(ValueError, match=r"^b1\*b4 - b2\*b3 must be finite$"):
        SystemParams(1.0, 1.0, -9e307, 1e308)
    SystemParams(1.0, 1.0, 1.0, 0.0)  # chained form is fine
    # nan passes every comparison above, so finiteness is checked first
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="b3 must be finite"):
            SystemParams(1.0, 1.0, bad, 4.0)


def test_design_validation():
    with pytest.raises(ValueError):
        DiffusionDesign(-1e-4, 1e-4)
    DiffusionDesign(0.0, 0.0)  # zero gains allowed for negative controls
    # nan < 0 is False, so the sign check alone would let it through
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DiffusionDesign(1e-4, bad)


def test_g_matrix_examples():
    g0 = g_matrix(P44, np.zeros(3))
    assert np.array_equal(g0, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    g = g_matrix(P44, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(g, [[1.0, 0.0], [0.0, 1.0], [8.0, -4.0]])
    # batched input stacks along the leading axis
    gb = g_matrix(P44, np.zeros((5, 3)))
    assert gb.shape == (5, 3, 2)


def test_controllability_rank_examples():
    assert controllability_rank(P44, np.zeros((1, 3))).tolist() == [3]
    assert controllability_rank(P44, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]).tolist() == [3, 3]
    assert controllability_rank(CHAINED, [[-0.3, 0.2, 5.0]]).tolist() == [3]
    with pytest.raises(ValueError, match=r"points must have shape \(N, 3\), got \(3,\)"):
        controllability_rank(P44, np.zeros(3))


@pytest.mark.parametrize("extent", [5.0, 1e9, 1e10])
def test_controllability_rank_of_a_block_is_that_of_its_rows(extent):
    # one batched SVD reads each state's rank as a one-row call does, also
    # for the far states of 1e9 and 1e10
    pts = np.random.default_rng(1).uniform(-extent, extent, (100, 3))
    for p in (P44, SystemParams(1.0, 1.0, 1.0, 4.0)):
        ranks = controllability_rank(p, pts)
        assert ranks.tolist() == [controllability_rank(p, pt[None])[0] for pt in pts]


RANK_PLANTS = ((1.0, 1.0, 4.0, 4.0), (1.0, 1.0, 1.0, 4.0), (1.0, -1.0, 4.0, 1.0),
               (2.0, -1.0, 1.0, 1.0), (1e-3, 1e3, 1.0, 1.0), (1e-150, 1e150, 1.0, 1.0))


@pytest.mark.parametrize("plant", RANK_PLANTS)
def test_controllability_rank_is_full_at_every_extent(plant):
    # det [g1 g2 [g1, g2]] = -b1 b2 (b1 b4 + b2 b3) survives equilibrating the
    # rows and then the columns, at any |x| that g holds, with no overflow
    # (warnings are errors here), also on plants of very unequal gains
    p = SystemParams(*plant)
    for extent in (1e-300, 1e-5, 5.0, 1e8, 1e9, 1e10, 1e12, 1e50, 1e150, 1e300):
        pts = np.random.default_rng(1).uniform(-extent, extent, (100, 3))
        pts = np.vstack([np.zeros(3), pts])
        assert controllability_rank(p, pts).tolist() == [3] * 101, extent


def test_controllability_rank_makes_one_svd_per_call(monkeypatch):
    # the tolerance is read off the same singular values as the rank: a
    # second SVD would compute them again
    calls = []
    for module in (np.linalg, np.linalg._linalg):
        monkeypatch.setattr(module, "svd", lambda *a, _svd=module.svd, **kw:
                            calls.append(1) or _svd(*a, **kw))
    pts = np.random.default_rng(1).uniform(-5.0, 5.0, (100, 3))
    assert controllability_rank(P44, pts).tolist() == [3] * 100
    assert len(calls) == 1


def test_h_matrix_on_axis():
    # on the axis H = diag(-b1^2 (1+x3^2), -b2^2 (1+x3^2))
    h = h_matrix(P44, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(h, np.diag([-2.0, -2.0]), atol=1e-12)
    h0 = h_matrix(P44, np.zeros(3))
    assert np.allclose(h0, np.diag([-1.0, -1.0]), atol=1e-12)
    pts = np.random.default_rng(3).uniform(-2, 2, (50, 3))
    hb = h_matrix(P44, pts)
    assert np.allclose(hb, np.swapaxes(hb, -1, -2), atol=0.0)


def test_eigs_sym2():
    lo, hi = eigs_sym2(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert (lo, hi) == (2.0, 3.0)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((100, 2, 2))
    a = a + np.swapaxes(a, -1, -2)
    lo, hi = eigs_sym2(a)
    assert np.all(lo <= hi)
    assert np.allclose(lo + hi, a[:, 0, 0] + a[:, 1, 1], rtol=0, atol=1e-12)
    assert np.allclose(lo * hi, np.linalg.det(a), atol=1e-10)
    with pytest.raises(ValueError):
        eigs_sym2(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigs_sym2(np.zeros((3, 3)))


def test_eigs_sym2_small_eigenvalue_is_accurate():
    # H is about [[5.96e8, 1.12e8], [1.12e8, 2.12e7]] here, so mid - rad
    # cancels; the reference is the exact det(H) over the large eigenvalue.
    h = h_matrix(PARITY_PLANTS[3], np.array([2.96, -2.93, -2.91]))
    lo, hi = eigs_sym2(h)
    h11, h12, h22 = (float(v) for v in (h[0, 0], h[0, 1], h[1, 1]))
    det = Fraction(h11) * Fraction(h22) - Fraction(h12) ** 2
    ref = float(det / Fraction(float(hi)))
    assert abs(lo) < 1e-4 * abs(hi)
    assert abs(lo - ref) <= 1e-13 * abs(ref)
    # H = 0 has the double eigenvalue 0, not 0 / 0
    assert eigs_sym2(np.zeros((2, 2))) == (0.0, 0.0)


def test_diffusion_b_examples():
    b1, b2 = diffusion_b(D4, P44, np.zeros(3))
    assert b1 == 0.0 and b2 == 0.0
    # unit gains at (0,0,1): both eigenvalues of H are -2, |x|^2 = 1,
    # so B1 = 4 and B2 = 4 * x3 = 4
    d1 = DiffusionDesign(1.0, 1.0)
    b1, b2 = diffusion_b(d1, P44, np.array([0.0, 0.0, 1.0]))
    assert b1 == pytest.approx(4.0, rel=1e-12)
    assert b2 == pytest.approx(4.0, rel=1e-12)
    s = sigma(P44, d1, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(s, [4.0, 4.0, 0.0], rtol=1e-12)


def test_prefeedback_vanishes_where_it_should():
    # the pre-feedback and the drift it leaves vanish at the origin and
    # wherever the gains are zero
    assert np.all(ito_drift(P44, D4, np.zeros(3)) == 0.0)
    dz = DiffusionDesign(0.0, 0.0)
    pts = np.random.default_rng(5).uniform(-2, 2, (20, 3))
    assert np.all(ito_drift(P44, dz, pts) == 0.0)
    ex = exact_oracle.design(P44, dz, pts)
    assert np.all(ex["v"] == 0.0) and np.all(ex["drift"] == 0.0)


def test_prefeedback_matches_finite_differences():
    # v is defined by -(d sigma_i/dx . sigma) / (2 b_i); rebuild it from an
    # FD Jacobian of the package's sigma and compare with the exact v
    pts, ex = exact_design(CHAINED, D4)
    sig = lambda y: sigma(CHAINED, D4, y)
    js = np.einsum('...ij,...j->...i', jacobian_fd(sig, pts), sig(pts))
    got = np.stack([-0.5 * js[..., 0] / CHAINED.b1,
                    -0.5 * js[..., 1] / CHAINED.b2], axis=-1)
    err = np.abs(got - ex["v"]) / (1.0 + np.abs(ex["v"]))
    assert err.max() < 1e-5


@pytest.mark.parametrize("p", PARITY_PLANTS)
@pytest.mark.parametrize("d", PARITY_DESIGNS)
def test_sigma_and_gains_match_exact_oracle(p, d):
    # the einsum oracle takes eigs_sym2 and v2_hessian from the package;
    # this one shares no formula with it
    pts, ex = exact_design(p, d)
    gains = np.stack(diffusion_b(d, p, pts), axis=-1)
    for got, want in ((sigma(p, d, pts), ex["sigma"]), (gains, ex["b"])):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))


def test_sigma_jacobian_matches_finite_differences():
    # each entry d sigma_i/dx_j within 1e-6 of its largest magnitude over
    # the states, and within 1e-6 (1 + |d sigma_i/dx_j|) at each state
    for p in PARITY_PLANTS:
        for d in PARITY_DESIGNS:
            pts, ex = exact_design(p, d)
            want = ex["dsigma"]
            err = np.abs(jacobian_fd(lambda y: sigma(p, d, y), pts) - want)
            assert np.all(err <= 1e-6 * np.abs(want).max(axis=0))
            assert np.all(err <= 1e-6 * (1.0 + np.abs(want)))


def test_randomized_drift_cancellation():
    pts = np.random.default_rng(9).uniform(-3, 3, (500, 3))
    rd = ito_drift(P44, D4, pts)
    # planar components cancel identically; the third carries
    # (b2 b3 - b1 b4) B1 B2 / 2, which is zero for these parameters
    assert np.all(rd == 0.0)
    rdc = ito_drift(CHAINED, D4, pts)
    assert np.all(rdc[:, :2] == 0.0)
    b1v, b2v = diffusion_b(D4, CHAINED, pts)
    assert np.allclose(rdc[:, 2], 0.5 * b1v * b2v, rtol=1e-15)


def test_randomized_drift_against_fd_assembly():
    """Rebuild g v + (1/2)(d sigma/dx) sigma with FD pieces only.

    Both the correction and the pre-feedback come from the same FD Jacobian,
    so their planar parts cancel the same way the analytic ones do.
    """
    pts = np.random.default_rng(10).uniform(-2, 2, (500, 3))
    sig = lambda y: sigma(CHAINED, D4, y)
    js = np.einsum('...ij,...j->...i', jacobian_fd(sig, pts), sig(pts))
    v_fd = np.stack([-0.5 * js[..., 0] / CHAINED.b1,
                     -0.5 * js[..., 1] / CHAINED.b2], axis=-1)
    fd = np.einsum('...ik,...k->...i', g_matrix(CHAINED, pts), v_fd) + 0.5 * js
    ana = ito_drift(CHAINED, D4, pts)
    err = np.abs(fd - ana) / (1.0 + np.abs(ana))
    assert err.max() < 1e-6


def test_closed_loop_preserves_origin():
    cl = closed_loop(P44, D4)
    assert isinstance(cl, ClosedLoop)
    z = np.zeros(3)
    assert np.all(cl.sde.drift(z) == 0.0)
    assert np.all(cl.sde.diffusion(z) == 0.0)
    assert np.all(cl.control(z) == 0.0)


def test_closed_loop_refuses_a_loop_that_moves_the_origin(monkeypatch):
    # lambda^2 overflows at b1 = 1e80, and B(0) = inf * 0 is NaN: refused
    # without a warning
    with pytest.raises(ValueError, match=r"^brockett6 violated: B\(0\) != 0"):
        closed_loop(SystemParams(1e80, 1.0, 4.0, 4.0), D4)
    # gains that vanish at the origin beside a drift that does not
    real = brockett.loop_columns
    monkeypatch.setattr(brockett, "loop_columns", lambda *a: real(*a)._replace(
        drift=np.array([0.0, 0.0, 1e-300])))
    with pytest.raises(ValueError, match="^closed loop does not preserve the origin exactly$"):
        closed_loop(P44, D4)


def test_closed_loop_control_vanishes_on_axis():
    cl = closed_loop(P44, D4)
    for c in (0.25, 1.0, -2.0):
        u = cl.control(np.array([0.0, 0.0, c]))
        assert np.all(u == 0.0)


def test_closed_loop_generator_negative():
    cl = closed_loop(P44, D4)
    # off the axis the closed-loop generator is -sqrt(F^2+G^2) < 0
    pts = np.random.default_rng(11).uniform(-2, 2, (300, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 1e-2]
    br = generator(V2, cl.sde.drift, cl.sde.diffusion, pts)
    lv = br.value()
    assert np.all(lv < 0.0)
    f, g, _ = columns_stacked(P44, D4, pts)
    assert np.allclose(lv, -np.hypot(f, g), rtol=1e-6, atol=1e-25)
    # on the axis only the noise quadratic acts and it is negative too
    axis = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -1.5]])
    br_axis = generator(V2, cl.sde.drift, cl.sde.diffusion, axis)
    assert np.all(br_axis.value() < 0.0)


@pytest.mark.parametrize("k", [1.0, 1e-4])
def test_generator_negative_on_log_radial_rays_near_the_axis(k):
    # |x12| from 1e-160 to 1e-130 spans the X patch and the G = 0 branch of
    # the control law; a row off the patch with G below G_ZERO and F > 0
    # would take the u = 0 branch and give LV = F > 0
    r = np.logspace(-160, -130, 3001)
    d = DiffusionDesign(k, k)
    for x3 in (0.01, 0.03, 0.044, 0.1, 0.5, 1.0):
        for angle in (0.0, 0.7, np.pi / 2):
            t = loop_columns(P44, d, r * np.cos(angle), r * np.sin(angle),
                             np.full_like(r, x3))
            (lg1, lg2), (u1, u2) = t.lg, t.control
            lv = t.f_term + (lg1 * u1 + lg2 * u2)
            bad = ~(lv < 0.0)
            assert not bad.any(), (x3, angle, r[bad][:3], lv[bad][:3])


@pytest.mark.parametrize("p", PARITY_PLANTS)
@pytest.mark.parametrize("d", PARITY_DESIGNS)
def test_closed_loop_matches_einsum_oracle(p, d):
    # Rounding differs from the oracle, and entries that cancel far from the
    # origin can differ by up to 1e-5 relative, so each output column is
    # gated at 1e-12 of its largest magnitude rather than element-wise.
    rng = np.random.default_rng(13)
    pts = np.vstack([rng.uniform(-3, 3, (300, 3)),
                     rng.uniform(-3, 3, (20, 3)) * [1.0, 1.0, 0.0],
                     [[0.0, 0.0, 0.5], [0.0, 0.0, -1.5], [0.0, 0.0, 3.0],
                      [0.0, 0.0, 0.0]]])
    cl = closed_loop(p, d)
    views = (cl.sde.drift, cl.sde.diffusion, cl.control)
    for got_fn, want in zip(views, oracle_loop(p, d, pts)):
        tol = 1e-12 * np.abs(want).max(axis=0)
        got = got_fn(pts)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= tol)
        # one state and a batch of one give the same rows under the same gate
        for i in (0, len(pts) - 4, len(pts) - 1):
            one = got_fn(pts[i])
            batch1 = got_fn(pts[i:i + 1])
            assert one.shape == want.shape[1:]
            assert batch1.shape == (1,) + want.shape[1:]
            assert np.all(np.abs(one - want[i]) <= tol)
            assert np.all(np.abs(batch1[0] - want[i]) <= tol)
    # the origin is preserved exactly and the control vanishes on the axis
    for out in oracle_loop(p, d, pts[-1]) + tuple(f(pts[-1]) for f in views):
        assert np.all(out == 0.0)
    assert np.all(cl.control(pts[-4:-1]) == 0.0)


def _f_states(rng, n):
    """n states: a quarter in the cube |x_i| <= 2, a quarter each within
    1e-3 and 1e-6 of the x1 = x2 = 0 axis (|x3| <= 2), the rest in the
    ball of radius 0.1."""
    k = n // 4
    near = [rng.uniform(-1.0, 1.0, (k, 3)) * [w, w, 2.0] for w in (1e-3, 1e-6)]
    ball = rng.standard_normal((n - 3 * k, 3))
    ball /= np.linalg.norm(ball, axis=1, keepdims=True)
    ball *= 0.1 * rng.uniform(0.0, 1.0, (len(ball), 1)) ** (1 / 3)
    return np.vstack([rng.uniform(-2.0, 2.0, (k, 3)), *near, ball])


@pytest.mark.parametrize("plant, k", [((1, 1, 4, 4), 1e-4), ((1, 1, 1, 4), 1e-4),
                                      ((2, -1, 1, 1), 0.3)])
def test_f_term_matches_the_exact_oracle(plant, k):
    # F = (1/2) B^T H B + (dv2/dx3) ito against the full 3x3 form at 40
    # digits, relative to F's magnitude sum S.  Near the axis the rounding
    # of Hess(v2)'s own entries dominates: 1.0e-13 S here, and up to 5e-13 S
    # on other draws of these sets.
    p, d = SystemParams(*plant), DiffusionDesign(k, k)
    pts = _f_states(np.random.default_rng(16), 150)
    want, size = exact_oracle.f_term(p, d, pts)
    got = loop_columns(p, d, *pts.T).f_term
    assert np.all(np.abs(got - want) <= 1e-12 * size)


def test_loop_terms_views_agree():
    # every view of the one-pass kernel gives the kernel's bits
    pts = np.random.default_rng(14).uniform(-2, 2, (100, 3))
    p = PARITY_PLANTS[3]
    cl = closed_loop(p, D4)
    t = loop_columns(p, D4, pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.array_equal(cl.sde.drift(pts), np.stack(t.drift, axis=-1))
    assert np.array_equal(cl.control(pts), np.stack(t.control, axis=-1))
    assert np.array_equal(sigma(p, D4, pts), np.stack(t.sigma, axis=-1))
    b1v, b2v = diffusion_b(D4, p, pts)
    assert np.array_equal(b1v, t.b1) and np.array_equal(b2v, t.b2)
    # explicit H entries against the 3-operand einsum
    gm = g_matrix(p, pts)
    want = np.einsum('...ji,...jk,...kl->...il', gm, v2_hessian(pts), gm)
    assert np.all(np.abs(h_matrix(p, pts) - want)
                  <= 1e-12 * np.abs(want).max(axis=0))


def test_sontag_terms_consistency():
    # the kernel's F, G = ||L_g v2||^2 and L_g v2 feed the universal formula
    f, g, lg = columns_stacked(P44, D4, np.array([0.5, -0.25, 1.0]))
    assert g == pytest.approx(lg @ lg, rel=1e-12)
    assert g > 0.0


def test_check_design_empty_grid_is_vacuous():
    rep = check_design_conditions(P44, D4, np.zeros((0, 3)))
    assert rep.conditions["brockett6"]
    assert rep.conditions["brockett7"]  # nothing to violate
    assert rep.conditions["brockett8"]  # no axis samples


def test_check_design_passes_reference_configuration():
    grid = np.random.default_rng(12).uniform(-2, 2, (400, 3))
    rep = check_design_conditions(P44, D4, grid)
    assert rep.passed
    assert all(rep.conditions.values())
    assert set(rep.conditions) == {"brockett6", "brockett7", "brockett8",
                                   "continuous1", "continuous2"}
    assert len(rep.c1_sequence) == len(CONTINUITY_RADII)
    assert len(rep.c2_sequence) == len(CONTINUITY_RADII)
    # both continuity sequences decay to (numerical) zero
    assert rep.c1_sequence[-1] < 1e-6
    assert rep.c2_sequence[-1] < 1e-6


def test_check_design_makes_one_b_fn_call_per_point_set():
    # B(0), the cloud, its axis samples, the rings of every radius and their
    # x3 = 0 shadows: one call each.  The shells are rows of one block, so
    # more shells (log-polar spheres, say) add rows to these calls, not
    # calls.  The sequences are those of a call per radius, bit for bit.
    ax = np.linspace(-2, 2, 5)
    shapes = []

    def b_fn(pts):
        shapes.append(np.shape(pts))
        return diffusion_b(D4, P44, pts)

    rep = check_design_conditions(P44, D4, grid_points(ax, ax, ax), b_fn=b_fn)
    assert len(shapes) <= 5
    rings = (len(CONTINUITY_RADII) * 16, 3)
    assert shapes[-2:] == [rings, rings]
    angles = 2.0 * np.pi * np.arange(16) / 16
    for r, c1, c2 in zip(CONTINUITY_RADII, rep.c1_sequence, rep.c2_sequence):
        ring = np.stack([r * np.cos(angles), r * np.sin(angles), np.full(16, r)], axis=-1)
        b1r, b2r = diffusion_b(D4, P44, ring)
        assert c1 == float(np.abs(b1r * b2r * ring[:, 2]).max())
        flat = ring.copy()
        flat[:, 2] = 0.0
        b1f, b2f = diffusion_b(D4, P44, flat)
        assert c2 == float(((b1f ** 2 + b2f ** 2) / (flat[:, 0] ** 2 + flat[:, 1] ** 2)).max())


def test_check_design_flags_constant_gain():
    grid = np.random.default_rng(12).uniform(-2, 2, (400, 3))
    d1 = DiffusionDesign(1.0, 1.0)

    def stub(pts):
        pts = np.asarray(pts, float)
        _, b2 = diffusion_b(d1, P44, pts)
        return np.ones(pts.shape[:-1]), b2

    rep = check_design_conditions(P44, d1, grid, b_fn=stub)
    assert not rep.passed
    assert not rep.conditions["brockett6"]


def test_check_design_accepts_grid_object():
    ax = np.linspace(-2, 2, 5)
    rep = check_design_conditions(P44, D4, grid_points(ax, ax, ax))
    assert rep.passed
    with pytest.raises(ValueError, match=r"must have shape \(N, 3\)"):
        check_design_conditions(P44, D4, np.zeros((4, 2)))
