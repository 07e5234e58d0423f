"""Scans, ensembles, interval arithmetic, and the convergence experiments."""

import dataclasses
import functools
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stostab import (CONTINUITY_RADII, DiffusionDesign, SdeSystem, SystemParams,
                     closed_loop, euler_maruyama, g_matrix, grid_points,
                     StabilityReport, heun_stratonovich, mc_stability, ode_drive,
                     piecewise_linear_lift, sample_wiener,
                     scan_generator, sclf_condition_check, sigma,
                     small_control_scan, strong_order_estimate, v2_gradient,
                     wilson_interval, wong_zakai_experiment, write_scan_csv,
                     write_summary)
from stostab import loop_columns, sde, verify
from stostab.sde import ITO, STRATONOVICH, IntegrationDiverged
from stostab.verify import path_seeds, wilson_halfwidth

import exact_oracle
from loop_oracle import V1, generator, ito_drift, oracle_loop
from mc_oracle import oracle_mc_stability
from path_loop_oracle import strong_order_slope, wong_zakai_stats

P44 = SystemParams(1.0, 1.0, 4.0, 4.0)
D4 = DiffusionDesign(1e-4, 1e-4)
DZ = DiffusionDesign(0.0, 0.0)


def test_path_seeds_prefix_stable():
    ten = path_seeds(42, 10)
    five = path_seeds(42, 5)
    assert np.array_equal(ten[:5], five)
    assert len(set(ten.tolist())) == 10
    assert np.array_equal(path_seeds(42, 10), ten)


def test_wilson_interval_values():
    lo, hi = wilson_interval(0, 200)
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(0.018845326377266575, rel=1e-9)
    lo, hi = wilson_interval(60, 200)
    assert lo == pytest.approx(0.24074744682371402, rel=1e-9)
    assert hi == pytest.approx(0.36679068372719265, rel=1e-9)
    assert 0.0 <= lo < 0.3 < hi <= 1.0
    assert wilson_halfwidth(60, 200) == pytest.approx(0.5 * (hi - lo))


def test_wilson_interval_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_interval_coverage():
    # 100 binomial draws at p=0.3, n=200; the 95% interval should cover
    # the truth in all but a few replicates
    rng = np.random.default_rng(1)
    cover = sum(1 for _ in range(100)
                if (lambda k: wilson_interval(k, 200)[0] <= 0.3
                    <= wilson_interval(k, 200)[1])(int(rng.binomial(200, 0.3))))
    assert cover >= 93


def cube(count: int, exclude_radius: float = 0.0, extent: float = 2.0) -> np.ndarray:
    """The count^3 grid over [-extent, extent]^3, less the exclusion ball."""
    ax = np.linspace(-extent, extent, count)
    return grid_points(ax, ax, ax, exclude_radius)


def test_grid_spec_points():
    ax = np.linspace(-2, 2, 41)
    full = grid_points(ax, ax, ax)
    assert full.shape == (41 ** 3, 3)
    # "ij" order: the third axis runs fastest
    assert np.array_equal(full[:41, 2], ax) and np.all(full[:41, :2] == -2.0)
    pts = cube(41, exclude_radius=1e-3)
    # only the origin falls inside the exclusion ball
    assert pts.shape == (41 ** 3 - 1, 3)
    assert np.all(np.linalg.norm(pts, axis=1) >= 1e-3)
    assert np.array_equal(pts, full[full.any(axis=1)])


def test_grid_spec_slice():
    ax = np.linspace(-2, 2, 21)
    pts = grid_points(ax, [0.0], ax, exclude_radius=1e-3)
    assert np.all(pts[:, 1] == 0.0)
    assert pts.shape == (21 * 21 - 1, 3)


def test_scan_requires_exclusion():
    cl = closed_loop(P44, D4)
    with pytest.raises(ValueError, match="exclude a ball of radius >= 1e-3"):
        scan_generator(cl, cube(5))


def test_scan_rejects_an_empty_grid():
    # both points of the 2-point cube lie inside the exclusion ball
    cl = closed_loop(P44, D4)
    pts = cube(2, exclude_radius=1e-3, extent=5e-4)
    assert pts.shape == (0, 3)
    with pytest.raises(ValueError, match="empty grid"):
        scan_generator(cl, pts)


def rings_and_axis() -> np.ndarray:
    """A set of states no axis-aligned grid holds: the 16-point rings
    (r cos t, r sin t, r) at the continuity radii down to 1e-3, the axis
    points (0, 0, +-r) at those radii and at 1, and three off-axis states."""
    angles = 2.0 * np.pi * np.arange(16) / 16
    radii = [r for r in CONTINUITY_RADII if r >= 1e-3]
    rings = [np.stack([r * np.cos(angles), r * np.sin(angles), np.full(16, r)], axis=-1)
             for r in radii]
    axis = [[0.0, 0.0, s * r] for r in [1.0] + radii for s in (-1.0, 1.0)]
    off = [[0.3, -1.2, 0.7], [-1.5, 0.4, -2.0], [1e-3, 0.0, 1.0]]
    return np.vstack(rings + [axis, off])


@pytest.mark.parametrize("p", (P44, SystemParams(1.0, 1.0, 1.0, 0.0)))
def test_checks_read_a_set_that_is_not_a_grid(p):
    pts = rings_and_axis()
    on_axis = (pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)
    assert len(pts) == 59 and on_axis.sum() == 8
    t = loop_columns(p, D4, pts[:, 0], pts[:, 1], pts[:, 2])
    cl = closed_loop(p, D4)
    rep = scan_generator(cl, pts)
    (lg1, lg2), (u1, u2) = t.lg, t.control
    assert np.array_equal(rep.points, pts)
    assert np.array_equal(rep.values, t.f_term + (lg1 * u1 + lg2 * u2))
    assert rep.on_axis_count == 8

    # L_g v2 vanishes on the axis alone, so the SCLF margins are F there
    sc = sclf_condition_check(p, D4, pts)
    assert np.array_equal(sc.points, pts[on_axis])
    assert np.array_equal(sc.margins, t.f_term[on_axis])
    assert sc.n_tested == 8 and not sc.vacuous
    if p == P44:
        assert rep.clean and sc.holds and sc.n_holds == 8
    else:
        # on the chained plant F vanishes at |x3| = 1, which fails the
        # strict condition and the strict sign of the generator
        assert not sc.holds and sc.n_holds == 6
        assert np.array_equal(sc.points[sc.margins >= 0.0],
                              [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(rep.violations, [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])

    with pytest.raises(ValueError, match="exclude a ball of radius >= 1e-3"):
        scan_generator(cl, np.vstack([pts, np.zeros((1, 3))]))
    with pytest.raises(ValueError, match="empty grid"):
        scan_generator(cl, np.empty((0, 3)))
    for check in (lambda q: scan_generator(cl, q),
                  lambda q: sclf_condition_check(p, D4, q)):
        with pytest.raises(ValueError, match=r"must have shape \(N, 3\)"):
            check(pts[:, :2])


ORACLE_PLANTS = (P44, SystemParams(1.0, 1.0, 1.0, 0.0),
                 SystemParams(1.0, 1.0, 1.0, 4.0),
                 SystemParams(2.0, -1.0, 3.0, 0.5))


@pytest.mark.parametrize("p", ORACLE_PLANTS)
@pytest.mark.parametrize("k", (0.0, 1e-4, 1e-2))
def test_scan_values_match_the_exact_oracle(p, k):
    # Off the x1 = x2 = 0 axis G > 0, and the Sontag law makes the generator
    # LV = F + L_g v2 . u equal to -hypot(F, G).  F and G are assembled here
    # from the exact oracle's v2 derivatives, drift and sigma.
    d = DiffusionDesign(k, k)
    cl = closed_loop(p, d)
    rep = scan_generator(cl, grid_points(np.linspace(-1.9, 1.7, 5),
                                         np.linspace(-1.3, 1.1, 5),
                                         np.linspace(-2.0, 2.0, 6), exclude_radius=1e-3))
    pts = rep.points
    assert len(pts) == 150 and np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 > 0.0)
    exact = exact_oracle.design(p, d, pts)
    grad, hess = exact_oracle.v2_derivatives(pts)
    s = exact["sigma"]
    f = (np.einsum("ni,ni->n", grad, exact["drift"])
         + 0.5 * np.einsum("ni,nij,nj->n", s, hess, s))
    lg = np.einsum("ni,nik->nk", grad, g_matrix(p, pts))
    want = -np.hypot(f, np.einsum("nk,nk->n", lg, lg))
    assert np.all(np.abs(rep.values - want) <= 1e-12 * np.abs(want))

    # On the axis L_g v2 = 0 and u = 0, so LV is the kernel's F, bit for
    # bit, and F is exactly 0 without noise.
    axis = scan_generator(cl, grid_points([0.0], [0.0], np.linspace(-2.0, 2.0, 9),
                                          exclude_radius=1e-3))
    x3 = axis.points[:, 2]
    assert len(x3) == 8
    f_axis = loop_columns(p, d, np.zeros_like(x3), np.zeros_like(x3), x3).f_term
    assert np.array_equal(axis.values, f_axis)
    if k == 0.0:
        assert np.all(axis.values == 0.0)


def test_scan_zero_noise_violations_sit_on_the_axis():
    # without noise the generator is 0 exactly where x1 = x2 = 0 and
    # strictly negative elsewhere
    cl = closed_loop(P44, DZ)
    rep = scan_generator(cl, cube(11, exclude_radius=1e-3))
    assert not rep.clean
    assert len(rep.violations) == 10  # 11 axis points minus the origin
    assert np.all(rep.violations[:, 0] == 0.0)
    assert np.all(rep.violations[:, 1] == 0.0)
    assert np.all(rep.violation_values == 0.0)
    assert rep.on_axis_count == 10
    off = rep.values[(rep.points[:, 0] != 0.0) | (rep.points[:, 1] != 0.0)]
    assert np.all(off < 0.0)


def test_scan_refinement_keeps_violations():
    cl = closed_loop(P44, DZ)
    coarse = scan_generator(cl, cube(11, exclude_radius=1e-3))
    fine = scan_generator(cl, cube(21, exclude_radius=1e-3))
    assert len(fine.violations) == 20
    fine_set = {tuple(v) for v in fine.violations}
    # the 11-point axis nests inside the 21-point axis exactly
    assert all(tuple(v) in fine_set for v in coarse.violations)


def test_scan_reference_design_is_clean():
    cl = closed_loop(P44, D4)
    rep = scan_generator(cl, cube(11, exclude_radius=1e-3))
    assert rep.clean
    assert rep.min_value < 0.0
    assert rep.on_axis_max < 0.0
    assert len(rep.violations) == 0 and len(rep.violation_values) == 0


def test_write_scan_csv(tmp_path):
    cl = closed_loop(P44, D4)
    rep = scan_generator(cl, cube(3, exclude_radius=1e-3, extent=1.0))
    out = tmp_path / "scan.csv"
    write_scan_csv(rep, out, header_lines=["demo"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "x1,x2,x3,LV"
    assert len(lines) == 2 + len(rep.points)
    data = np.loadtxt(out, delimiter=",", skiprows=2)
    assert np.array_equal(data[:, :3], rep.points)
    assert np.array_equal(data[:, 3], rep.values)


def test_sclf_check_reference_design():
    rep = sclf_condition_check(P44, D4, cube(11, exclude_radius=1e-3))
    # the control derivative only vanishes on the axis: 10 grid points
    assert rep.n_tested == 10
    assert rep.n_holds == 10
    assert rep.holds
    assert not rep.vacuous
    assert np.all(rep.margins < 0.0)


def test_sclf_check_rejects_sum_of_squares():
    # the quadratic candidate V1 = |x|^2 fails: on the axis L_g V1 vanishes,
    # and there its margin, the generator 2 x . f + |sigma|^2 along the Ito
    # loop, is positive wherever the noise acts
    pts = cube(11, exclude_radius=1e-3)
    axis = pts[(pts[:, 0] == 0.0) & (pts[:, 1] == 0.0)]
    assert len(axis) == 10
    drift = lambda y: ito_drift(P44, D4, y)
    sig = lambda y: sigma(P44, D4, y)
    br = generator(V1, drift, sig, axis, control_matrix=lambda y: g_matrix(P44, y))
    assert np.all(br.lg_v == 0.0)
    margins = (2.0 * np.einsum("ni,ni->n", axis, drift(axis))
               + np.einsum("ni,ni->n", sig(axis), sig(axis)))
    assert np.all(margins > 0.0)
    assert np.all(np.abs(br.value() - margins) <= 1e-12 * margins)


def test_sclf_check_vacuous_grid():
    # off the axis, and on the x3 = 0 plane where the axis meets it only at
    # the origin, which is not tested
    for grid in (grid_points([1.0], [1.0], np.linspace(0.0, 1.0, 3)),
                 grid_points(np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 3), [0.0])):
        rep = sclf_condition_check(P44, D4, grid)
        assert rep.vacuous
        assert rep.n_tested == 0
        assert not rep.holds


def test_sclf_check_leaves_out_the_origin():
    # the equilibrium has F = 0 by construction, so a grid that keeps it
    # gives the verdict of the grid that excludes it
    grid = cube(21)
    assert (grid == 0.0).all(axis=1).sum() == 1
    rep = sclf_condition_check(P44, D4, grid)
    assert (rep.n_tested, rep.n_holds, rep.holds) == (20, 20, True)
    assert np.all(rep.points.any(axis=1))
    chained = sclf_condition_check(SystemParams(1.0, 1.0, 1.0, 0.0), D4, grid)
    assert (chained.n_tested, chained.n_holds, chained.holds) == (20, 18, False)
    assert np.array_equal(chained.points[chained.margins >= 0.0],
                          [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("p", ORACLE_PLANTS)
@pytest.mark.parametrize("k", (1e-4, 1.0))
def test_sclf_margins_are_the_kernel_f(p, k):
    # On the axis L_g v2 = 0, so the pre-feedback adds nothing to the
    # generator and the paper's margin is the kernel's F, bit for bit.
    d = DiffusionDesign(k, k)
    pts = cube(21, exclude_radius=1e-3)
    rep = sclf_condition_check(p, d, pts)
    axis = pts[(pts[:, 0] == 0.0) & (pts[:, 1] == 0.0) & (pts[:, 2] != 0.0)]
    assert len(axis) == 20 and rep.n_tested == 20 and not rep.vacuous
    assert np.array_equal(rep.points, axis)
    t = loop_columns(p, d, axis[:, 0], axis[:, 1], axis[:, 2])
    assert np.array_equal(rep.margins, t.f_term)
    assert rep.n_holds == np.count_nonzero(t.f_term < 0.0)
    if p == SystemParams(1.0, 1.0, 1.0, 0.0):
        # with k1 = k2, F = -(1/2) B1^2 (1 - x3^2)^2 on the axis: it
        # vanishes at |x3| = 1, so the strict condition fails there
        x3 = axis[:, 2]
        want = -0.5 * t.b1 ** 2 * (1.0 - x3 ** 2) ** 2
        off = np.abs(x3) != 1.0
        assert np.all(np.abs(rep.margins[off] - want[off]) <= 1e-12 * np.abs(want[off]))
        assert rep.n_holds == 18 and rep.holds is False
        assert np.array_equal(rep.points[rep.margins >= 0.0],
                              [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])


def test_mc_zero_dynamics_freezes():
    # with zero gains and x0 on the axis there is no vector field at all:
    # every path stays put and nothing converges
    cl = closed_loop(P44, DZ)
    rep = mc_stability(cl, (0.0, 0.0, 1.0), dt=0.1, horizon=5.0, n_paths=20,
                       eps=5.0, conv_threshold=0.1, m_level=20.0, seed=4)
    assert rep.n_diverged == 0
    assert np.all(rep.terminal_states == np.array([0.0, 0.0, 1.0]))
    assert rep.p_converge == 0.0
    assert rep.p_sup_exceed == 0.0
    assert rep.sup_v2_exceedance == 0.0
    assert rep.v2_terminal_quantiles == (2.0, 2.0, 2.0)
    assert rep.v2_start == 2.0
    ok = rep.bucket_counts > 0
    assert np.all(rep.bucket_mean_drift[ok] == 0.0)
    assert rep.drift_nonpositive_2se


def test_mc_exceedance_level_is_honored():
    # same frozen ensemble, but a level below V2(x0) = 2 is exceeded by
    # every path from the first instant
    cl = closed_loop(P44, DZ)
    rep = mc_stability(cl, (0.0, 0.0, 1.0), dt=0.1, horizon=1.0, n_paths=10,
                       eps=5.0, conv_threshold=0.1, m_level=1.5, seed=4)
    assert rep.sup_v2_exceedance == 1.0
    assert rep.wilson_ci_halfwidth > 0.0


def test_mc_recording_shapes():
    cl = closed_loop(P44, D4)
    rep = mc_stability(cl, (0.0, 0.0, 1.0), dt=0.1, horizon=5.0, n_paths=3,
                       eps=5.0, conv_threshold=0.1, m_level=20.0, seed=2,
                       record_every=10)
    # 50 steps, every 10th plus the initial state: times 0.0 .. 5.0
    assert np.allclose(rep.record_times, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert rep.record_states.shape == (3, 6, 3)
    assert np.all(rep.record_states[:, 0] == np.array([0.0, 0.0, 1.0]))


def test_mc_reproducible_and_prefix_stable():
    cl = closed_loop(P44, D4)
    kw = dict(dt=0.1, horizon=2.0, eps=5.0, conv_threshold=0.1,
              m_level=20.0, seed=9)
    a = mc_stability(cl, (0.0, 0.0, 1.0), n_paths=4, **kw)
    b = mc_stability(cl, (0.0, 0.0, 1.0), n_paths=4, **kw)
    assert np.array_equal(a.terminal_states, b.terminal_states)
    # enlarging the ensemble must not disturb existing paths
    c = mc_stability(cl, (0.0, 0.0, 1.0), n_paths=8, **kw)
    assert np.array_equal(c.terminal_states[:4], a.terminal_states)


def test_mc_steps_match_plain_em_on_nondegenerate_plant():
    # b1 b4 - b2 b3 = 3 != 0, so the Ito drift carries f3 = -(3/2) B1 B2;
    # on the (1, 1, 4, 4) plant f3 vanishes and a kernel without it would
    # go unnoticed.  The gains are large enough for f3 to move the terminal
    # states by about 1e-4 relative over this horizon.
    p = SystemParams(1.0, 1.0, 1.0, 4.0)
    d = DiffusionDesign(1e-2, 1e-2)
    x0 = np.array([0.4, -0.3, 0.8])
    dt, n_steps, n_paths, seed = 1e-3, 200, 20, 5
    rep = mc_stability(closed_loop(p, d), x0, dt=dt, horizon=n_steps * dt,
                       n_paths=n_paths, eps=5.0, conv_threshold=0.1,
                       m_level=20.0, seed=seed)
    assert rep.n_steps == n_steps and rep.n_diverged == 0

    dw = np.stack([np.random.default_rng(int(s)).standard_normal(n_steps)
                   for s in path_seeds(seed, n_paths)]) * np.sqrt(dt)
    x = np.tile(x0, (n_paths, 1))
    for k in range(n_steps):
        drift, diffusion, _ = oracle_loop(p, d, x)
        x = x + drift * dt + diffusion * dw[:, k, None]
    err = np.abs(rep.terminal_states - x).max() / np.abs(x).max()
    assert err < 1e-9


# plant, gains, x0, horizon, n_paths, seed, record_every, paths that diverge
MC_CASES = [
    ((1, 1, 4, 4), (1e-4, 1e-4), (0.0, 0.0, 1.0), 0.2, 200, 1, 0, 0),
    ((1, 1, 4, 4), (1e-4, 1e-4), (0.0, 0.0, 1.0), 0.03, 2000, 2, 0, 0),
    ((1, 1, 1, 4), (1e-2, 1e-2), (0.4, -0.3, 0.8), 0.2, 20, 1, 7, 0),
    ((1, 1, 1, 4), (0.1, 0.1), (0.4, -0.3, 0.8), 0.2, 20, 1, 7, 5),
    ((1, 1, 4, 4), (1e-4, 1e-4), (1.5, -1.0, 2.0), 0.05, 10, 3, 5, 10),
    ((2, -1, 3, 0.5), (1e-4, 1e-4), (1.0, 1.0, 2.0), 0.3, 50, 4, 3, 9),
]


@functools.cache
def _mc_reference(case):
    """The case's closed loop and the reference loop's report."""
    plant, gains, x0, horizon, n_paths, seed, every, _ = case
    cl = closed_loop(SystemParams(*plant), DiffusionDesign(*gains))
    return cl, oracle_mc_stability(cl, x0, 1e-3, horizon, n_paths, 5.0, 0.1,
                                   20.0, seed, record_every=every)


def _assert_same_report(got, want):
    for field in dataclasses.fields(StabilityReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a is None) == (b is None), field.name
        assert a is None or np.array_equal(a, b, equal_nan=True), field.name


@pytest.mark.parametrize("case", MC_CASES)
def test_mc_equals_the_reference_loop(case):
    # the one-pass loop, evaluated at the new state and with its shortcut
    # while every path lives, must give the reference loop's report bit for
    # bit, recordings included, also where some or all paths diverge
    plant, gains, x0, horizon, n_paths, seed, every, n_diverged = case
    cl, want = _mc_reference(case)
    got = mc_stability(cl, x0, 1e-3, horizon, n_paths, 5.0, 0.1, 20.0, seed,
                       record_every=every)
    assert got.n_diverged == n_diverged
    _assert_same_report(got, want)
    if every:
        for states, controls in zip(got.record_states, got.record_controls):
            assert np.array_equal(controls, cl.control(states))


def _share_setup(monkeypatch, cpus):
    # one share per path, or per experiment run, on ``cpus`` CPUs; returns
    # the fork calls
    monkeypatch.setattr(verify, "SHARE_MIN_PATHS", 1)
    monkeypatch.setattr(verify, "SHARE_MIN_EVALUATIONS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("shares", [2, 3])
@pytest.mark.parametrize("case", MC_CASES)
def test_mc_shares_equal_the_reference_loop(monkeypatch, case, shares):
    # this process steps the first share, a child each other one, and this
    # process adds up the drift samples: the report is still the reference
    # loop's bit for bit, also where paths of several shares die at
    # different steps
    plant, gains, x0, horizon, n_paths, seed, every, n_diverged = case
    cl, want = _mc_reference(case)
    forks = _share_setup(monkeypatch, shares)
    got = mc_stability(cl, x0, 1e-3, horizon, n_paths, 5.0, 0.1, 20.0, seed,
                       record_every=every)
    assert len(forks) == shares - 1
    _assert_same_report(got, want)
    # a diverged path is parked at the origin
    dead = np.flatnonzero(~want.terminal_states.any(axis=1))
    assert len(dead) == n_diverged
    bounds = [s * n_paths // shares for s in range(1, shares)]
    assert n_diverged == 0 or len(set(np.searchsorted(bounds, dead, side="right"))) >= 2


@pytest.mark.parametrize("how, first, message", [
    ("raise", 13, "no noise for this share"),
    ("exit", 6, "the child process exited with code 7"),
    ("own", 0, "no noise for this share"),
])
def test_mc_share_failure_raises_in_the_parent(monkeypatch, how, first, message):
    # 20 paths on 3 CPUs are shares 0-5, stepped here, and 6-12 and 13-19,
    # stepped in children.  A child's failure is reaped with the others and
    # named, with the child's error or its exit code; a failure of this
    # process's own share propagates as it is, once every child is reaped
    # (the conftest guard sees any child left behind)
    forks = _share_setup(monkeypatch, 3)
    first_seed = path_seeds(1, 20)[first]
    draw = verify.wiener_increments

    def failing(dt, seeds, n_steps, out):
        if seeds[0] == first_seed:
            if how == "exit":
                os._exit(7)
            raise ValueError(message)
        return draw(dt, seeds, n_steps, out=out)

    monkeypatch.setattr(verify, "wiener_increments", failing)
    if how == "own":
        expected = pytest.raises(ValueError, match=f"^{message}$")
    else:
        expected = pytest.raises(RuntimeError, match=f"share from path {first}: {message}$")
    with expected:
        mc_stability(closed_loop(P44, D4), (0.0, 0.0, 1.0), dt=1e-3, horizon=0.01,
                     n_paths=20, eps=5.0, conv_threshold=0.1, m_level=20.0, seed=1)
    assert len(forks) == 2


def test_mc_below_the_share_minimum_never_forks(monkeypatch):
    # each share holds at least SHARE_MIN_PATHS paths, so one path short of
    # two shares is stepped in this process, however many CPUs are free
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    n_paths = 2 * verify.SHARE_MIN_PATHS - 1
    minimum = verify.SHARE_MIN_PATHS
    assert sde._n_shares(n_paths, n_paths, minimum) == 1
    assert sde._n_shares(n_paths + 1, n_paths + 1, minimum) == 2
    rep = mc_stability(closed_loop(P44, D4), (0.0, 0.0, 1.0), dt=1e-3,
                       horizon=1e-3, n_paths=n_paths, eps=5.0, conv_threshold=0.1,
                       m_level=20.0, seed=1)
    assert rep.n_steps == 1 and rep.terminal_states.shape == (n_paths, 3)


def _per_column_buckets(z, death):
    """The drift statistics added up one column at a time, in step order."""
    n_steps = z.shape[1]
    bucket_of = (np.arange(n_steps) * verify.N_BUCKETS) // n_steps
    bsum, bsumsq = np.zeros(verify.N_BUCKETS), np.zeros(verify.N_BUCKETS)
    count = np.zeros(verify.N_BUCKETS, dtype=np.int64)
    for k in range(n_steps):
        zk = z[death > k, k]
        bsum[bucket_of[k]] += zk.sum()
        bsumsq[bucket_of[k]] += (zk * zk).sum()
        count[bucket_of[k]] += len(zk)
    return bsum, bsumsq, count


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("n_paths, n_steps", [(200, 500), (10000, 7), (1237, 77), (3, 40)])
def test_drift_buckets_in_blocks_equal_the_per_column_sums(monkeypatch, n_paths, n_steps, block):
    # the columns before the first death are summed as rows of contiguous
    # blocks (of 1000 samples: 5, 1, 1 and 333 columns), the rest one by
    # one over the paths alive; the sums are the per-column sums' bits
    if block:
        monkeypatch.setattr(verify, "_BUCKET_BLOCK", block)
    rng = np.random.default_rng(n_paths)
    z = rng.standard_normal((n_paths, n_steps)) * np.exp(rng.uniform(-30, 30, (n_paths, n_steps)))
    for death in (np.full(n_paths, n_steps), rng.integers(n_steps // 2, n_steps + 1, n_paths)):
        bsum, bsumsq, count = _per_column_buckets(z, death)
        mean, se, got_count = verify._drift_buckets(z, death)
        assert np.array_equal(got_count, count)
        nz = count > 0
        assert np.array_equal(mean[nz], bsum[nz] / count[nz])
        multi = count > 1
        var = np.maximum(bsumsq[multi] / count[multi] - mean[multi] ** 2, 0.0)
        assert np.array_equal(se[multi], np.sqrt(var / count[multi]))


def test_mc_steps_allocate_no_columns(monkeypatch):
    # from the noise draw to the drift statistics, a share allocates its
    # three state columns, the previous step's v2 and two boolean columns,
    # and nothing else of its size: its workspace is mapped, like the noise
    # and the results, out of tracemalloc's sight, and every step computes
    # into it.  A kernel that made fresh temporaries held dozens of columns
    # at once.  On one CPU the whole ensemble steps in this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cl = closed_loop(P44, D4)
    marks = {}
    draw, buckets = verify.wiener_increments, verify._drift_buckets

    def reset_after_draw(*args, **kwargs):
        out = draw(*args, **kwargs)
        tracemalloc.reset_peak()
        marks["start"] = tracemalloc.get_traced_memory()[0]
        return out

    def peak_before(*args):
        marks["peak"] = tracemalloc.get_traced_memory()[1]
        return buckets(*args)

    monkeypatch.setattr(verify, "wiener_increments", reset_after_draw)
    monkeypatch.setattr(verify, "_drift_buckets", peak_before)
    n_paths = 4000
    tracemalloc.start()
    try:
        rep = mc_stability(cl, (0.0, 0.0, 1.0), 1e-3, 0.05, n_paths, 5.0, 0.1, 20.0, seed=1)
    finally:
        tracemalloc.stop()
    assert rep.n_steps == 50 and rep.n_diverged == 0
    # 4.5 columns here; 54 with fresh temporaries
    assert marks["peak"] - marks["start"] <= 6 * 8 * n_paths


def test_mc_overflow_counts_as_divergence():
    # From this off-axis start some paths leave the float range within a few
    # steps; they must be counted, not leak overflow warnings or NaN stats.
    cl = closed_loop(SystemParams(1.0, 1.0, 1.0, 4.0), DiffusionDesign(0.1, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = mc_stability(cl, (0.4, -0.3, 0.8), dt=1e-3, horizon=0.2,
                           n_paths=20, eps=5.0, conv_threshold=0.1,
                           m_level=20.0, seed=1)
    assert rep.n_diverged > 0
    multi = rep.bucket_counts > 1
    assert np.all(np.isfinite(rep.bucket_mean_drift[multi]))
    assert np.all(np.isfinite(rep.bucket_stderr[multi]))
    assert rep.v2_terminal_quantiles[2] == np.inf


def test_mc_validation():
    cl = closed_loop(P44, D4)
    with pytest.raises(ValueError):
        mc_stability(cl, (0, 0, 1), dt=0.0, horizon=1.0, n_paths=2,
                     eps=5.0, conv_threshold=0.1, m_level=20.0, seed=1)
    with pytest.raises(ValueError):
        mc_stability(cl, (0, 0, 1), dt=0.5, horizon=0.1, n_paths=2,
                     eps=5.0, conv_threshold=0.1, m_level=20.0, seed=1)
    with pytest.raises(ValueError):
        mc_stability(cl, (0, 0, 1), dt=0.1, horizon=1.0, n_paths=0,
                     eps=5.0, conv_threshold=0.1, m_level=20.0, seed=1)


@pytest.mark.parametrize("bad, name", [
    ({"dt": np.nan}, "dt"),
    ({"horizon": np.nan}, "horizon"),
    ({"horizon": np.inf}, "horizon"),
    ({"record_every": -1}, "record_every"),
    ({"record_every": 2.5}, "record_every"),
    ({"n_paths": 2.5}, "n_paths"),
    ({"n_paths": True}, "n_paths"),
    ({"eps": np.nan}, "eps"),
    ({"eps": 0.0}, "eps"),
    ({"conv_threshold": np.inf}, "conv_threshold"),
    ({"conv_threshold": -0.1}, "conv_threshold"),
    ({"m_level": np.nan}, "m_level"),
    ({"m_level": np.inf}, "m_level"),
    # numpy would draw a None seed from OS entropy and run a bool as 0 or 1
    ({"seed": None}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
], ids=("nan-dt", "nan-horizon", "inf-horizon", "negative-every", "fractional-every",
        "fractional-paths", "bool-paths", "nan-eps", "zero-eps", "inf-threshold",
        "negative-threshold", "nan-level", "inf-level", "none-seed", "bool-seed",
        "negative-seed", "fractional-seed"))
def test_mc_rejects_bad_steps_and_record_every(monkeypatch, bad, name):
    # refused with the argument's name, before any noise is drawn or any
    # process forked
    monkeypatch.setattr(verify, "wiener_increments",
                        lambda *a, **kw: pytest.fail("noise drawn"))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    kw = dict(dt=0.1, horizon=1.0, n_paths=2, eps=5.0, conv_threshold=0.1,
              m_level=20.0, seed=1, record_every=0)
    with pytest.raises(ValueError, match=f"^{name} must"):
        mc_stability(closed_loop(P44, D4), (0.0, 0.0, 1.0), **{**kw, **bad})


def test_mc_refuses_a_run_beyond_physical_memory(monkeypatch):
    # 4 paths of 10 steps recorded every 3 steps keep 5 rows: 4 (8 * 10 +
    # 40 * 5 + 64) bytes of noise, recording and results.  One byte less is
    # refused before anything is mapped, drawn or forked; exactly that runs.
    need = 4 * (8 * 10 + 40 * 5 + 64)
    cl = closed_loop(P44, D4)
    kw = dict(dt=1e-3, horizon=0.01, n_paths=4, eps=5.0, conv_threshold=0.1,
              m_level=20.0, seed=1, record_every=3)
    for memory in (need - 1, need):
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1,
                                            "SC_PHYS_PAGES": memory}.__getitem__)
        if memory < need:
            with monkeypatch.context() as m:
                m.setattr(verify.mmap, "mmap", lambda *a: pytest.fail("mmap.mmap ran"))
                m.setattr(verify, "wiener_increments",
                          lambda *a, **kw: pytest.fail("noise drawn"))
                m.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
                with pytest.raises(ValueError, match=r"^n_paths = 4, n_steps = 10 "
                                   r"and record_every = 3 need .* GiB .* physical memory$"):
                    mc_stability(cl, (0.0, 0.0, 1.0), **kw)
        else:
            rep = mc_stability(cl, (0.0, 0.0, 1.0), **kw)
            assert rep.record_states.shape == (4, 5, 3)
            assert np.array_equal(rep.record_times, np.array([0, 3, 6, 9, 10]) * 1e-3)


@pytest.mark.parametrize("x0", [(0.0, 1.0), (0.0, 0.0, 1.0, 2.0), [[0.0, 0.0, 1.0]], 1.0,
                                (np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0)])
def test_mc_rejects_x0_of_the_wrong_shape(x0):
    # a start of the right shape must also be finite
    cl = closed_loop(P44, D4)
    if np.shape(x0) == (3,):
        message = r"x0 must be finite, got \("
    else:
        message = r"x0 must have shape \(3,\), got \("
    with pytest.raises(ValueError, match=message):
        mc_stability(cl, x0, dt=0.1, horizon=1.0, n_paths=2,
                     eps=5.0, conv_threshold=0.1, m_level=20.0, seed=1)


def test_small_control_scan_decays():
    cl = closed_loop(P44, D4)
    rep = small_control_scan(cl, n_dirs=100, seed=1)
    assert rep.non_increasing
    assert rep.max_control[-1] < 1e-4
    assert rep.max_control[0] > rep.max_control[-1]
    assert rep.radii == (1e-1, 1e-2, 1e-3, 1e-4)


def formula_deviations(p, d, ax) -> tuple:
    """Three hand-derived expressions against the kernel :func:`loop_columns`.

    (a) The drift term grad v2 . (0, 0, (1/2)(b2 b3 - b1 b4) B1 B2) against
    its expanded closed form; (b) on the x3 = 0 slice, ||L_g v2||^2 against
    b1^2 x1^2 + b2^2 x2^2; (c) same slice, the noise quadratic B^T H B
    against its expanded form.  All skip X <= 1e-3, where the expansions
    lose meaning.  Returns the number of points, the largest drift-term
    deviation, the number of slice points, and the largest deviations of
    (b) and (c).  The points are the grid of ``ax`` on every axis and its
    x3 = 0 slice.
    """
    pts = grid_points(ax, ax, ax)
    big_x = pts[:, 0] ** 2 + pts[:, 1] ** 2
    pts = pts[big_x > 1e-3]
    big_x = big_x[big_x > 1e-3]
    x3 = pts[:, 2]
    t = loop_columns(p, d, pts[:, 0], pts[:, 1], x3)
    coef = p.b2 * p.b3 - p.b1 * p.b4
    direct = v2_gradient(pts)[:, 2] * (0.5 * coef * t.b1 * t.b2)
    closed = -(2.0 ** (-1.0 - 0.5 * x3 ** 2)) * t.b1 * t.b2 * coef * x3 * (
        2.0 ** (0.5 * x3 ** 2) * (big_x - 4.0)
        + big_x ** (1.0 + 0.5 * x3 ** 2) * np.log(2.0 / big_x))
    max_drift = float(np.abs(direct - closed).max()) if len(pts) else 0.0

    flat = grid_points(ax, ax, [0.0])
    xf = flat[:, 0] ** 2 + flat[:, 1] ** 2
    flat = flat[xf > 1e-3]
    xf = xf[xf > 1e-3]
    tf = loop_columns(p, d, flat[:, 0], flat[:, 1], flat[:, 2])
    g_closed = p.b1 ** 2 * flat[:, 0] ** 2 + p.b2 ** 2 * flat[:, 1] ** 2
    max_g = float(np.abs(tf.g_term - g_closed).max()) if len(flat) else 0.0

    # On x3 = 0 the drift term of F vanishes, so 2F = sigma^T Hess sigma = B^T H B.
    cross = (p.b4 * tf.b2 * flat[:, 0] - p.b3 * tf.b1 * flat[:, 1]) ** 2
    bhb_closed = p.b1 ** 2 * tf.b1 ** 2 + p.b2 ** 2 * tf.b2 ** 2 \
        - xf * cross * np.log(2.0 / xf) - (xf - 4.0) * cross
    max_bhb = float(np.abs(2.0 * tf.f_term - bhb_closed).max()) if len(flat) else 0.0
    return len(pts), max_drift, len(flat), max_g, max_bhb


def test_formula_check_reference_parameters():
    n_points, max_drift, n_slice, max_g, max_bhb = formula_deviations(
        P44, D4, np.linspace(-2, 2, 21))
    # b2 b3 - b1 b4 = 0 kills the drift term identically
    assert max_drift == 0.0
    assert max_g < 1e-12
    assert max_bhb < 1e-12
    assert n_points > 0 and n_slice > 0


def test_formula_check_generic_parameters():
    chained = SystemParams(1.0, 1.0, 1.0, 0.0)
    n_points, max_drift, n_slice, max_g, max_bhb = formula_deviations(
        chained, D4, np.linspace(-2, 2, 21))
    # 21^3 minus the 21 axis points; slice is 21^2 minus its axis point
    assert n_points == 21 ** 3 - 21
    assert n_slice == 21 ** 2 - 1
    assert max_drift < 1e-8
    assert max_g == 0.0
    assert max_bhb < 1e-15


def test_wong_zakai_small_experiment():
    rep = wong_zakai_experiment(1.0, 1.0, (4, 16), n_real=50, seed=11)
    assert rep.non_increasing and not rep.vacuous
    assert rep.mse[0] > rep.mse[1]
    assert rep.mse[1] < 1e-4
    assert rep.n_fine == 64
    # uncorrected Euler-Maruyama lands on the -T/2 drift offset
    assert rep.ito_mean_log_ratio == pytest.approx(-0.5, abs=0.15)


def test_wong_zakai_zero_start():
    # from x0 = 0 every path stays at 0, so a zero MSE would pass vacuously;
    # a start or horizon that no float path can follow is refused as well
    for x0, horizon, name in ((0.0, 1.0, "x0"), (np.nan, 1.0, "x0"),
                              (np.inf, 1.0, "x0"), (1.0, 0.0, "horizon"),
                              (1.0, -1.0, "horizon"), (1.0, np.inf, "horizon"),
                              (1.0, np.nan, "horizon")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            wong_zakai_experiment(x0, horizon, (4, 16), n_real=50, seed=11)


def test_wong_zakai_mismatched_noise_does_not_converge():
    """Negative control: pairing the ODE with a different path's oracle."""
    seeds = path_seeds(11, 50)
    zero = lambda x: np.zeros_like(x)
    ident = lambda x: np.asarray(x, float)
    sys = SdeSystem(1, zero, ident, STRATONOVICH)
    bad = []
    for i in range(50):
        path = sample_wiener(1.0 / 64, 1.0, int(seeds[i]))
        other = sample_wiener(1.0 / 64, 1.0, int(seeds[(i + 1) % 50]))
        traj = ode_drive(sys, [1.0], piecewise_linear_lift(path, 4))
        bad.append((traj.terminal[0] - np.exp(other.values[-1])) ** 2)
    matched = wong_zakai_experiment(1.0, 1.0, (4, 16), n_real=50, seed=11)
    assert np.mean(bad) > 1e3 * matched.mse[1]


def test_wong_zakai_validation():
    with pytest.raises(ValueError):
        wong_zakai_experiment(1.0, 1.0, (16,), n_real=50, seed=1)
    with pytest.raises(ValueError):
        wong_zakai_experiment(1.0, 1.0, (64, 16), n_real=50, seed=1)
    with pytest.raises(ValueError):
        wong_zakai_experiment(1.0, 1.0, (16, 64), n_real=10, seed=1)
    with pytest.raises(ValueError):
        wong_zakai_experiment(1.0, 1.0, (3, 5), n_real=50, seed=1)


def test_strong_order_runge_kutta_reference():
    # deterministic linear growth: RK4's quartic truncation shows up as a
    # log-log slope near 4 before rounding takes over
    zero = lambda x: np.zeros_like(x)
    ident = lambda x: np.asarray(x, float)
    sys = SdeSystem(1, ident, zero, ITO)
    rk4 = lambda s, x0, path: ode_drive(s, x0, piecewise_linear_lift(path, 1))
    slope = strong_order_estimate(rk4, sys, lambda x0, T, wT: x0 * np.exp(T),
                                  [1.0], 1.0, [2.0 ** -k for k in range(2, 6)],
                                  n_paths=3, seed=5)
    assert slope > 3.5


def test_strong_order_heun_is_first_order():
    # Heun resolves the single-channel noise exactly enough to reach
    # strong order one on this system
    zero = lambda x: np.zeros_like(x)
    ident = lambda x: np.asarray(x, float)
    sys = SdeSystem(1, zero, ident, STRATONOVICH)
    slope = strong_order_estimate(
        heun_stratonovich, sys, lambda x0, T, wT: x0 * np.exp(wT),
        [1.0], 1.0, [2.0 ** -k for k in range(6, 13)], n_paths=200, seed=7)
    assert 0.8 <= slope <= 1.2


def block_sizes(n_paths, row_samples):
    return [blk.stop - blk.start for blk in verify._path_blocks(n_paths, row_samples)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 500), st.integers(1, 1 << 18),
       st.one_of(st.just(verify._BLOCK_SAMPLES), st.integers(1, 1 << 22)))
def test_path_blocks_split_evenly_under_the_budget(n_paths, row_samples, budget):
    with mock.patch.object(verify, "_BLOCK_SAMPLES", budget):
        blocks = list(verify._path_blocks(n_paths, row_samples))
    cap = max(1, budget // row_samples)
    assert all(blk.step is None for blk in blocks)
    # consecutive, in order, covering every path once
    assert [blk.start for blk in blocks] == [0] + [blk.stop for blk in blocks[:-1]]
    assert blocks[-1].stop == n_paths
    sizes = [blk.stop - blk.start for blk in blocks]
    assert min(sizes) >= 1 and max(sizes) <= cap
    assert max(sizes) - min(sizes) <= 1
    assert len(blocks) == -(-n_paths // cap)


def test_path_blocks_at_the_experiment_sizes():
    # at 4096 fine steps a strong-order row holds its path and one history
    # (31 rows a block): the 200 paths of criterion 6 and 2 paths.  A
    # Wong-Zakai row holds its path alone (63 rows a block): the
    # benchmark's 50 realizations, the 100 of criterion 5, and 200
    strong, wong_zakai = 2 * 4097, 4097
    assert block_sizes(200, strong) == [29] * 4 + [28] * 3
    assert block_sizes(2, strong) == [2]
    assert block_sizes(50, wong_zakai) == [50]
    assert block_sizes(100, wong_zakai) == [50, 50]
    assert block_sizes(200, wong_zakai) == [50] * 4
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match=f"n_paths must be positive, got {n_paths}"):
            block_sizes(n_paths, wong_zakai)


def test_wong_zakai_holds_one_block_budget(monkeypatch):
    # a block holds its fine path, 8 bytes per sample of the budget: the
    # lifts are views of it and every run keeps only its final state, so
    # 50 rows of 4097 samples (1.6 MiB) run as one block, and 100 as two
    # blocks that never sit side by side.  A copied lift beside the path,
    # or an array of its slopes, would pass 2 MiB.  A small run first, so
    # one-time allocations of the first call (about 0.7 MiB) are not
    # counted.  On one CPU every run is traced here, none in a child.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    wong_zakai_experiment(1.0, 1.0, (2, 4), n_real=50, seed=3)
    for n_real in (50, 100):
        tracemalloc.start()
        try:
            wong_zakai_experiment(1.0, 1.0, (16, 64, 256, 1024), n_real=n_real, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * verify._BLOCK_SAMPLES


def test_blocked_experiments_equal_the_per_path_loops(monkeypatch):
    # 13 rows of 65 samples per block on a 64-step fine mesh: the
    # strong-order rows hold 130 samples, so 40 paths span blocks of
    # 6/6/6/6/6/5/5, and 50 realizations span 13/13/12/12
    monkeypatch.setattr(verify, "_BLOCK_SAMPLES", 65 * 13)
    assert block_sizes(40, 2 * 65) == [6] * 5 + [5] * 2
    assert block_sizes(50, 65) == [13, 13, 12, 12]
    zero = lambda x: np.zeros_like(x)
    ident = lambda x: np.asarray(x, float)
    dts = [2.0 ** -k for k in range(3, 7)]
    em = (euler_maruyama, SdeSystem(1, zero, ident, ITO),
          lambda x0, T, wT: x0 * np.exp(wT - 0.5 * T))
    heun = (heun_stratonovich, SdeSystem(1, zero, ident, STRATONOVICH),
            lambda x0, T, wT: x0 * np.exp(wT))
    for integrate, sys, exact in (em, heun):
        args = (integrate, sys, exact, [1.0], 1.0, dts, 40, 7)
        assert strong_order_estimate(*args) == strong_order_slope(*args)
    for x0 in (1.0, 0.5):
        rep = wong_zakai_experiment(x0, 1.0, (4, 16), n_real=50, seed=11)
        mse, mean, std = wong_zakai_stats(x0, 1.0, (4, 16), 50, 11)
        assert np.array_equal(rep.mse, mse)
        assert rep.ito_mean_log_ratio == mean
        assert rep.ito_std_log_ratio == std


ZERO = lambda x: np.zeros_like(x)
IDENT = lambda x: np.asarray(x, float)
EM_CASE = (euler_maruyama, SdeSystem(1, ZERO, IDENT, ITO),
           lambda x0, T, wT: x0 * np.exp(wT - 0.5 * T))
HEUN_CASE = (heun_stratonovich, SdeSystem(1, ZERO, IDENT, STRATONOVICH),
             lambda x0, T, wT: x0 * np.exp(wT))
# 4 levels on a 64-step fine mesh: 8, 16, 32 and 64 steps
LEVELS = [2.0 ** -k for k in range(3, 7)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_experiment_shares_equal_the_per_path_loops(monkeypatch, cpus):
    # in blocks of 6/6/6/6/6/5/5 paths and 13/13/12/12 realizations (as in
    # test_blocked_experiments_equal_the_per_path_loops), each block's runs
    # are shared out: 1, 2 or 3 shares of the 4 levels (8 + 16 + 32 | 64,
    # 8 + 16 | 32 | 64) and of the lifts and contrast (16 + 64 | 64 drift
    # evaluations, 16 | 64 | 64); every share count gives the loops' bits
    monkeypatch.setattr(verify, "_BLOCK_SAMPLES", 65 * 13)
    forks = _share_setup(monkeypatch, cpus)
    for integrate, sys, exact in (EM_CASE, HEUN_CASE):
        args = (integrate, sys, exact, [1.0], 1.0, LEVELS, 40, 7)
        assert strong_order_estimate(*args) == strong_order_slope(*args)
    assert len(forks) == 2 * 7 * (min(cpus, 3) - 1)
    del forks[:]
    for x0 in (1.0, 0.5):
        rep = wong_zakai_experiment(x0, 1.0, (4, 16), n_real=50, seed=11)
        mse, mean, std = wong_zakai_stats(x0, 1.0, (4, 16), 50, 11)
        assert np.array_equal(rep.mse, mse)
        assert rep.ito_mean_log_ratio == mean
        assert rep.ito_std_log_ratio == std
    assert len(forks) == 2 * 4 * (min(cpus, 3) - 1)


def test_experiments_below_the_share_minimum_never_fork(monkeypatch):
    # each share holds at least SHARE_MIN_EVALUATIONS drift evaluations:
    # 8 + 16 + 32 + 64 level steps, or 4 * (16 + 64) lift evaluations plus a
    # 256-step contrast, run in this process however many CPUs are free
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    minimum = verify.SHARE_MIN_EVALUATIONS
    assert 4 * (16 + 64) + 256 < 2 * minimum
    assert sde._n_shares(3, 2 * minimum - 1, minimum) == 1
    assert sde._n_shares(3, 2 * minimum, minimum) == 2
    strong_order_estimate(*EM_CASE, [1.0], 1.0, LEVELS, 40, 7)
    wong_zakai_experiment(1.0, 1.0, (16, 64), n_real=50, seed=3)


def _diverging_finest_level(sys, x0, path):
    # only the finest level diverges: a drift of 1e4 x leaves the finite
    # range within a few steps of 1/64
    if path.dt == LEVELS[-1]:
        sys = SdeSystem(1, lambda x: 1e4 * np.asarray(x, float), IDENT, ITO)
    return euler_maruyama(sys, x0, path)


def test_a_level_that_diverges_in_a_child_raises_its_exception_here(monkeypatch):
    # on 2 CPUs the finest level is a share of its own, stepped in a child;
    # its IntegrationDiverged comes back with the time, the states and the
    # text of the one-process run's, after one fork for the first block
    args = (_diverging_finest_level, EM_CASE[1], EM_CASE[2], [1.0], 1.0, LEVELS, 40, 7)
    _share_setup(monkeypatch, 1)
    with pytest.raises(IntegrationDiverged) as here:
        strong_order_estimate(*args)
    forks = _share_setup(monkeypatch, 2)
    with pytest.raises(IntegrationDiverged) as child:
        strong_order_estimate(*args)
    assert len(forks) == 1
    assert type(child.value) is IntegrationDiverged
    assert str(child.value) == str(here.value)
    assert child.value.time == here.value.time
    assert child.value.state.shape == (40, 1)
    assert np.array_equal(child.value.state, here.value.state)


@pytest.mark.parametrize("failing, first", [
    ({2, 3}, 2),      # both children fail: the earlier level wins
    ({1, 3}, 1),      # this process's share and a child fail
    ({3}, 3),
])
def test_the_earliest_failing_level_wins(monkeypatch, failing, first):
    # on 3 CPUs the 4 levels are shared 8 + 16 | 32 | 64 steps: levels 0-1
    # here and levels 2 and 3 in one child each; the error raised is the one
    # the one-process loop meets first
    forks = _share_setup(monkeypatch, 3)

    def integrate(sys, x0, path):
        level = LEVELS.index(path.dt)
        if level in failing:
            raise ValueError(f"level {level} failed")
        return euler_maruyama(sys, x0, path)

    with pytest.raises(ValueError, match=f"^level {first} failed$"):
        strong_order_estimate(integrate, *EM_CASE[1:], [1.0], 1.0, LEVELS, 4, 7)
    assert len(forks) == 2


def test_a_wong_zakai_contrast_that_fails_in_a_child_raises_here(monkeypatch):
    # on 2 CPUs the lifts of meshes 4 and 16 run here and the contrast in a
    # child; a contrast that diverges raises what the one-process run raises
    em_step = verify._em_step

    def diverging(sys, path):
        step = em_step(sys, path)
        return lambda x, k: step(x, k) * (1e13 if k == 10 else 1.0)

    monkeypatch.setattr(verify, "_em_step", diverging)
    _share_setup(monkeypatch, 1)
    with pytest.raises(IntegrationDiverged) as here:
        wong_zakai_experiment(1.0, 1.0, (4, 16), n_real=50, seed=11)
    forks = _share_setup(monkeypatch, 2)
    with pytest.raises(IntegrationDiverged) as child:
        wong_zakai_experiment(1.0, 1.0, (4, 16), n_real=50, seed=11)
    assert len(forks) == 1
    assert str(child.value) == str(here.value) == "integration diverged at t=0.171875"
    assert np.array_equal(child.value.state, here.value.state)


def test_strong_order_validation():
    zero = lambda x: np.zeros_like(x)
    ident = lambda x: np.asarray(x, float)
    sys = SdeSystem(1, zero, ident, ITO)
    with pytest.raises(ValueError):
        strong_order_estimate(euler_maruyama, sys,
                              lambda x0, T, wT: x0, [1.0], 1.0,
                              [0.5, 0.25, 0.125], 10, 1)
    with pytest.raises(ValueError):
        strong_order_estimate(euler_maruyama, sys,
                              lambda x0, T, wT: x0, [1.0], 1.0,
                              [0.5, 0.25, 0.2, 0.1], 10, 1)
    # an exact integrator leaves nothing to regress on
    const_sys = SdeSystem(1, zero, zero, ITO)
    with pytest.raises(ValueError):
        strong_order_estimate(euler_maruyama, const_sys,
                              lambda x0, T, wT: x0, [1.0], 1.0,
                              [2.0 ** -k for k in range(2, 6)], 5, 1)
    # no paths means no RMS error at all, not a nan slope
    dts = [2.0 ** -k for k in range(2, 6)]
    for n_paths in (0, -3):
        with pytest.raises(ValueError, match=f"n_paths must be positive, got {n_paths}"):
            strong_order_estimate(euler_maruyama, sys, lambda x0, T, wT: x0,
                                  [1.0], 1.0, dts, n_paths, 1)


def test_write_summary(tmp_path):
    out = tmp_path / "summary.txt"
    write_summary(out, [("alpha", 1), ("beta", "two")], header_lines=["h1"])
    lines = out.read_text().splitlines()
    assert lines == ["# h1", "alpha = 1", "beta = two"]
