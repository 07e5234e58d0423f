"""Scans, ensembles, interval arithmetic, and the convergence experiments."""

import warnings

import numpy as np
import pytest

from stostab import (DiffusionDesign, GridSpec, SdeSystem, SystemParams,
                     closed_loop, diffusion_b, euler_maruyama, g_matrix,
                     heun_stratonovich, lfv2_formula_check, mc_stability,
                     ode_drive, piecewise_linear_lift, sample_wiener,
                     scan_generator, sclf_condition_check, small_control_scan,
                     strong_order_estimate, v1_field, v2_field, v2_gradient,
                     wilson_interval, wong_zakai_experiment, write_scan_csv,
                     write_summary)
from stostab import verify
from stostab.sde import ITO, STRATONOVICH
from stostab.verify import path_seeds, wilson_halfwidth

from loop_oracle import oracle_loop
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


def test_grid_spec_points():
    grid = GridSpec.cube(-2, 2, 41, exclude_radius=1e-3)
    pts = grid.points()
    # only the origin falls inside the exclusion ball
    assert pts.shape == (41 ** 3 - 1, 3)
    assert np.all(np.linalg.norm(pts, axis=1) >= 1e-3)
    assert len(GridSpec.cube(-2, 2, 41).points()) == 41 ** 3
    assert np.array_equal(grid.axis_values(0), np.linspace(-2, 2, 41))


def test_grid_spec_slice():
    grid = GridSpec.slice_x2(-2, 2, 21, exclude_radius=1e-3)
    pts = grid.points()
    assert np.all(pts[:, 1] == 0.0)
    assert pts.shape == (21 * 21 - 1, 3)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 0), (0.0, 1.0, 2), (0.0, 1.0, 2))
    with pytest.raises(ValueError):
        GridSpec((0.0, 1.0, 1), (0.0, 1.0, 2), (0.0, 1.0, 2))  # 1 point needs lo == hi
    with pytest.raises(ValueError):
        GridSpec((1.0, 0.0, 5), (0.0, 1.0, 2), (0.0, 1.0, 2))
    with pytest.raises(ValueError):
        GridSpec.cube(-1, 1, 3, exclude_radius=-0.5)


def test_scan_requires_exclusion():
    cl = closed_loop(P44, D4)
    with pytest.raises(ValueError):
        scan_generator(cl, GridSpec.cube(-2, 2, 5))


def test_scan_zero_noise_violations_sit_on_the_axis():
    # without noise the generator is 0 exactly where x1 = x2 = 0 and
    # strictly negative elsewhere
    cl = closed_loop(P44, DZ)
    rep = scan_generator(cl, GridSpec.cube(-2, 2, 11, exclude_radius=1e-3))
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
    coarse = scan_generator(cl, GridSpec.cube(-2, 2, 11, exclude_radius=1e-3))
    fine = scan_generator(cl, GridSpec.cube(-2, 2, 21, exclude_radius=1e-3))
    assert len(fine.violations) == 20
    fine_set = {tuple(v) for v in fine.violations}
    # the 11-point axis nests inside the 21-point axis exactly
    assert all(tuple(v) in fine_set for v in coarse.violations)


def test_scan_reference_design_is_clean():
    cl = closed_loop(P44, D4)
    rep = scan_generator(cl, GridSpec.cube(-2, 2, 11, exclude_radius=1e-3))
    assert rep.clean
    assert rep.min_value < 0.0
    assert rep.on_axis_max < 0.0
    assert len(rep.violations) == 0 and len(rep.violation_values) == 0


def test_write_scan_csv(tmp_path):
    cl = closed_loop(P44, D4)
    rep = scan_generator(cl, GridSpec.cube(-1, 1, 3, exclude_radius=1e-3))
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
    g_fn = lambda y: g_matrix(P44, y)
    b_fn = lambda y: diffusion_b(D4, P44, y)
    grid = GridSpec.cube(-2, 2, 11, exclude_radius=1e-3)
    rep = sclf_condition_check(None, g_fn, b_fn, v2_field(), grid)
    # the control derivative only vanishes on the axis: 10 grid points
    assert rep.n_tested == 10
    assert rep.n_holds == 10
    assert rep.holds
    assert not rep.vacuous
    assert np.all(rep.margins < 0.0)


def test_sclf_check_rejects_sum_of_squares():
    # the quadratic candidate fails: its noise condition cannot hold on
    # the axis because L_g V1 vanishes there together with the quadratic's
    # favorable curvature
    g_fn = lambda y: g_matrix(P44, y)
    b_fn = lambda y: diffusion_b(D4, P44, y)
    grid = GridSpec.cube(-2, 2, 11, exclude_radius=1e-3)
    rep = sclf_condition_check(None, g_fn, b_fn, v1_field(), grid)
    assert rep.n_tested > 0
    assert rep.n_holds == 0
    assert not rep.holds


def test_sclf_check_vacuous_grid():
    g_fn = lambda y: g_matrix(P44, y)
    b_fn = lambda y: diffusion_b(D4, P44, y)
    grid = GridSpec((1.0, 1.0, 1), (1.0, 1.0, 1), (0.0, 1.0, 3))
    rep = sclf_condition_check(None, g_fn, b_fn, v2_field(), grid)
    assert rep.vacuous
    assert rep.n_tested == 0
    assert not rep.holds


def test_sclf_check_with_drift():
    # a drift adds exactly L_f V = grad V . f to the margin at each point
    g_fn = lambda y: g_matrix(P44, y)
    b_fn = lambda y: diffusion_b(D4, P44, y)
    f_fn = lambda y: np.stack([y[..., 1], -y[..., 0], -0.5 * y[..., 2]], axis=-1)
    grid = GridSpec.cube(-2, 2, 11, exclude_radius=1e-3)
    bare = sclf_condition_check(None, g_fn, b_fn, v2_field(), grid)
    rep = sclf_condition_check(f_fn, g_fn, b_fn, v2_field(), grid)
    assert rep.n_tested == bare.n_tested == 10
    assert np.array_equal(rep.points, bare.points)
    lf = np.einsum('...i,...i->...', v2_gradient(rep.points), f_fn(rep.points))
    assert np.all(lf != 0.0)
    assert np.all(np.abs(rep.margins - bare.margins - lf) <= 1e-10 * np.abs(lf))


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


def test_small_control_scan_decays():
    cl = closed_loop(P44, D4)
    rep = small_control_scan(cl, (1e-1, 1e-2, 1e-3, 1e-4), n_dirs=100, seed=1)
    assert rep.non_increasing
    assert rep.max_control[-1] < 1e-4
    assert rep.max_control[0] > rep.max_control[-1]
    assert rep.radii == (1e-1, 1e-2, 1e-3, 1e-4)


def test_small_control_scan_validation():
    cl = closed_loop(P44, D4)
    with pytest.raises(ValueError):
        small_control_scan(cl, (1e-2, 1e-1), n_dirs=10, seed=1)
    with pytest.raises(ValueError):
        small_control_scan(cl, (1e-1, 1e-1), n_dirs=10, seed=1)
    with pytest.raises(ValueError):
        small_control_scan(cl, (1e-1, 0.0), n_dirs=10, seed=1)


def test_formula_check_reference_parameters():
    rep = lfv2_formula_check(P44, D4, GridSpec.cube(-2, 2, 21))
    # b2 b3 - b1 b4 = 0 kills the drift term identically
    assert rep.max_abs_drift_term == 0.0
    assert rep.max_abs_control_quadratic < 1e-12
    assert rep.max_abs_noise_quadratic < 1e-12
    assert rep.n_points > 0 and rep.n_slice > 0


def test_formula_check_generic_parameters():
    chained = SystemParams(1.0, 1.0, 1.0, 0.0)
    rep = lfv2_formula_check(chained, D4, GridSpec.cube(-2, 2, 21))
    # 21^3 minus the 21 axis points; slice is 21^2 minus its axis point
    assert rep.n_points == 21 ** 3 - 21
    assert rep.n_slice == 21 ** 2 - 1
    assert rep.max_abs_drift_term < 1e-8
    assert rep.max_abs_control_quadratic == 0.0
    assert rep.max_abs_noise_quadratic < 1e-15


def test_wong_zakai_small_experiment():
    rep = wong_zakai_experiment(1.0, 1.0, (4, 16), n_real=50, seed=11)
    assert rep.non_increasing
    assert rep.mse[0] > rep.mse[1]
    assert rep.mse[1] < 1e-4
    assert rep.n_fine == 64
    # uncorrected Euler-Maruyama lands on the -T/2 drift offset
    assert rep.ito_mean_log_ratio == pytest.approx(-0.5, abs=0.15)


def test_wong_zakai_zero_start():
    rep = wong_zakai_experiment(0.0, 1.0, (4, 16), n_real=50, seed=11)
    assert np.all(rep.mse == 0.0)
    assert rep.ito_mean_log_ratio == 0.0
    assert rep.ito_std_log_ratio == 0.0


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


def test_blocked_experiments_equal_the_per_path_loops(monkeypatch):
    # 16 paths per block on a 64-step fine mesh: 40 paths and 50
    # realizations span three and four blocks, the last one partial
    monkeypatch.setattr(verify, "_BLOCK_SAMPLES", 16 * 64)
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


def test_write_summary(tmp_path):
    out = tmp_path / "summary.txt"
    write_summary(out, [("alpha", 1), ("beta", "two")], header_lines=["h1"])
    lines = out.read_text().splitlines()
    assert lines == ["# h1", "alpha = 1", "beta = two"]
