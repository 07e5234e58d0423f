"""End-to-end acceptance checks, one per numbered claim.

Each test prints a single [PASS]/[FAIL] line (visible under ``pytest -s``)
and then asserts, so the suite both documents and enforces the contract.
The Monte Carlo ensemble and the large grid scan are shared module-scoped
fixtures; everything else is cheap enough to recompute.
"""

import numpy as np
import pytest

from stostab import (DiffusionDesign, SdeSystem, SystemParams, cli,
                     closed_loop, controllability_rank, euler_maruyama,
                     grid_points, mc_stability, sample_wiener,
                     scan_generator, small_control_scan, strong_order_estimate,
                     v2_gradient, v2_hessian, wong_zakai_experiment)
from stostab.sde import ITO

import exact_oracle
from loop_oracle import ito_drift, jacobian_fd

P44 = SystemParams(1.0, 1.0, 4.0, 4.0)
CHAINED = SystemParams(1.0, 1.0, 1.0, 0.0)
# b1 b4 - b2 b3 = 3: the Ito drift keeps its third component, which
# vanishes on P44.
P1114 = SystemParams(1.0, 1.0, 1.0, 4.0)
D4 = DiffusionDesign(1e-4, 1e-4)


def scan_sets(count: int) -> tuple:
    """The count^3 cube over [-2, 2]^3 and its x2 = 0 slice, less the
    ball of radius 1e-3 around the origin."""
    ax = np.linspace(-2, 2, count)
    return grid_points(ax, ax, ax, 1e-3), grid_points(ax, [0.0], ax, 1e-3)


def report(num, desc, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def loop44():
    return closed_loop(P44, D4)


@pytest.fixture(scope="module")
def big_scan(loop44):
    return scan_generator(loop44, scan_sets(41)[0])


@pytest.fixture(scope="module")
def ensemble(loop44):
    # the long run: 200 paths, 50000 steps each
    return mc_stability(loop44, (0.0, 0.0, 1.0), dt=1e-3, horizon=50.0,
                        n_paths=200, eps=5.0, conv_threshold=0.1,
                        m_level=20.0, seed=1)


def test_criterion_1_hessian_on_axis():
    worst = 0.0
    for c in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        h = v2_hessian(np.array([0.0, 0.0, c]))
        want = np.diag([-(1.0 + c * c), -(1.0 + c * c), 4.0])
        worst = max(worst, np.abs(h - want).max())
    report(1, f"axis Hessian equals diag(-(1+x3^2), -(1+x3^2), 4), "
              f"max dev {worst:.2e}", worst < 1e-9)


def test_criterion_2_derivative_oracles():
    rng = np.random.default_rng(12345)
    pts = rng.uniform(-3, 3, (4000, 3))
    pts = pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 > 1e-3][:1000]
    assert len(pts) == 1000
    grad_ex, hess_ex = exact_oracle.v2_derivatives(pts)
    grad = v2_gradient(pts)
    ge = (np.linalg.norm(grad - grad_ex, axis=-1)
          / np.linalg.norm(grad_ex, axis=-1)).max()
    hess = v2_hessian(pts)
    he = (np.linalg.norm((hess - hess_ex).reshape(len(pts), -1), axis=-1)
          / np.linalg.norm(hess_ex.reshape(len(pts), -1), axis=-1)).max()
    hess_fg = jacobian_fd(v2_gradient, pts)
    hg = (np.linalg.norm((hess - hess_fg).reshape(len(pts), -1), axis=-1)
          / np.linalg.norm(hess_fg.reshape(len(pts), -1), axis=-1)).max()
    report(2, f"gradient/Hessian match the exact oracle at 1000 points "
              f"(rel {ge:.2e} / {he:.2e}), Hessian matches differences of "
              f"the gradient (rel {hg:.2e})",
           ge < 1e-12 and he < 1e-12 and hg < 1e-5)


def test_criterion_3_generator_negative_on_grid(loop44, big_scan):
    sl = scan_generator(loop44, scan_sets(41)[1])
    loop1114 = closed_loop(P1114, D4)
    scans1114 = [scan_generator(loop1114, pts) for pts in scan_sets(21)]
    n1114 = sum(len(s.violations) for s in scans1114)
    ok = big_scan.clean and np.all(sl.values < 0.0) and n1114 == 0
    report(3, f"41^3 scan has {len(big_scan.violations)} violations, "
              f"slice max {sl.values.max():.2e}; plant (1, 1, 1, 4): "
              f"{n1114} violations on the 21^3 scan and slice", ok)


def test_criterion_4_zero_noise_violations_on_axis():
    cl0 = closed_loop(P44, DiffusionDesign(0.0, 0.0))
    rep = scan_generator(cl0, scan_sets(41)[0])
    axis_pts = {(0.0, 0.0, float(c)) for c in np.linspace(-2, 2, 41)
                if abs(c) >= 1e-3}
    got = {tuple(v) for v in rep.violations}
    ok = got == axis_pts and len(rep.violations) == 40
    report(4, f"zero-gain violations are exactly the {len(axis_pts)} "
              f"axis points", ok)


def test_criterion_5_wong_zakai_limit():
    rep = wong_zakai_experiment(1.0, 1.0, (16, 64, 256, 1024),
                                n_real=100, seed=3)
    ok = rep.non_increasing and abs(rep.ito_mean_log_ratio + 0.5) <= 0.1
    report(5, f"MSE non-increasing {rep.non_increasing}, uncorrected "
              f"log-ratio {rep.ito_mean_log_ratio:.4f} vs -0.5", ok)


def test_criterion_6_euler_maruyama_strong_order():
    zero = lambda x: np.zeros_like(x)
    ident = lambda x: np.asarray(x, float)
    sys = SdeSystem(1, zero, ident, ITO)
    slope = strong_order_estimate(
        euler_maruyama, sys, lambda x0, T, wT: x0 * np.exp(wT - 0.5 * T),
        [1.0], 1.0, [2.0 ** -k for k in range(6, 13)], n_paths=200, seed=7)
    report(6, f"strong order {slope:.3f} in [0.4, 0.6]", 0.4 <= slope <= 0.6)


def test_criterion_7_small_control_property(loop44):
    rep = small_control_scan(loop44, n_dirs=1000, seed=1)
    ok = rep.holds
    report(7, f"max |u| decays {np.array2string(rep.max_control, precision=3)} "
              f"and ends below 1e-4", ok)


def test_criterion_7_control_decays_linearly(loop44):
    # |u| ~ r near the origin, so the gate above holds with max|u|/r just
    # below 1 and a margin of order 1e-10; the slope shows the decay law and
    # the printed margin shows how close a rounding change comes to the gate.
    rep = small_control_scan(loop44, n_dirs=1000, seed=1)
    slope = np.polyfit(np.log(rep.radii[-3:]), np.log(rep.max_control[-3:]), 1)[0]
    margin = rep.radii[-1] - rep.max_control[-1]
    report("7 (slope)", f"log max |u| against log r has slope {slope:.4f} over "
                        f"the last three radii; gate margin {margin:.3g} "
                        f"(max |u| / r = {rep.max_control[-1] / rep.radii[-1]:.8f})",
           slope >= 0.99)


def test_criterion_8_monte_carlo_stabilization(ensemble):
    median = ensemble.v2_terminal_quantiles[1]
    ok = (ensemble.v2_start == 2.0 and median < 2.0
          and ensemble.drift_nonpositive_2se and ensemble.n_diverged == 0)
    report(8, f"v2 descends from v2 = {ensemble.v2_start:g} at (0, 0, 1): median "
              f"terminal V2 {median:.4g} < 2, every drift bucket nonpositive "
              f"within 2 SE, {ensemble.n_diverged} paths diverged", ok)


def test_criterion_9_supremum_bound(ensemble):
    bound = 2.0 / ensemble.m_level + ensemble.wilson_ci_halfwidth
    ok = ensemble.sup_v2_exceedance <= bound
    report(9, f"sup V2 >= 20 on fraction {ensemble.sup_v2_exceedance:.4f} "
              f"<= {bound:.4f}", ok)


def test_criterion_10_design_gate(tmp_path):
    ok_dir = tmp_path / "ok"
    rc_ok = cli.main(["check-design", "--out", str(ok_dir)])
    sab_dir = tmp_path / "sab"
    rc_sab = cli.main(["check-design", "--sabotage-b1", "--out", str(sab_dir)])
    text = (sab_dir / "design_report.txt").read_text()
    rc_1114 = cli.main(["check-design", "--b3", "1", "--out", str(tmp_path / "b3")])
    ok = rc_ok == 0 and rc_sab == 4 and "brockett6 = FAIL" in text and rc_1114 == 0
    report(10, f"design gate exits {rc_ok} clean / {rc_sab} sabotaged, "
               f"names brockett6; exits {rc_1114} on plant (1, 1, 1, 4)", ok)


def test_criterion_11_controllability():
    rng = np.random.default_rng(31)
    pts = rng.uniform(-5, 5, (100, 3))
    ranks = np.concatenate([controllability_rank(p, pts) for p in (P44, CHAINED)])
    ok = all(r == 3 for r in ranks)
    report(11, f"rank 3 at {len(ranks)} sampled states for both parameter "
               f"sets", ok)


def test_criterion_12_prefeedback_cancellation():
    rng = np.random.default_rng(2026)
    pts = rng.uniform(-3, 3, (10000, 3))
    scale = 1.0 + np.einsum('ij,ij->i', pts, pts)
    rd = ito_drift(P44, D4, pts)
    planar = (np.abs(rd[:, :2]).max(axis=1) / scale).max()
    third = np.abs(rd[:, 2]).max()
    ok44 = planar < 1e-8 and third < 1e-8
    # On P1114 the third component is nonzero.  The exact oracle assembles
    # g v + (1/2)(d sigma/dx) sigma term by term, with the pre-feedback v
    # built from d sigma/dx; the kernel's Ito row is the grouped form.
    off = pts[:400][pts[:400, 0] ** 2 + pts[:400, 1] ** 2 > 1e-3][:200]
    want = exact_oracle.design(P1114, D4, off)["drift"]
    got = ito_drift(P1114, D4, off)
    rel = (np.abs(got[:, 2] - want[:, 2]) / np.abs(want[:, 2])).max()
    exact_planar = np.abs(want[:, :2]).max() / np.abs(want[:, 2]).max()
    ok1114 = (rel <= 1e-11 and exact_planar <= 1e-30
              and np.all(got[:, :2] == 0.0))
    report(12, f"plant (1, 1, 4, 4): planar drift residue {planar:.2e}, "
               f"third component {third:.2e}; plant (1, 1, 1, 4): third "
               f"component matches the exact g v + (1/2)(d sigma/dx) sigma "
               f"at {len(off)} points (rel {rel:.2e}), exact planar part "
               f"{exact_planar:.1e} of its scale", ok44 and ok1114)
