"""Wiener sampling, lifts, convention conversion, and the three integrators."""

import numpy as np
import pytest

from stostab import (ITO, STRATONOVICH, IntegrationDiverged, SdeSystem,
                     Trajectory, WienerPath, euler_maruyama, heun_stratonovich,
                     ode_drive, piecewise_linear_lift, sample_wiener,
                     stratonovich_to_ito, trajectory_to_csv)
from stostab.sde import jacobian_fd, wiener_increments
from stostab.verify import path_seeds

ZERO = lambda x: np.zeros_like(x)
IDENT = lambda x: np.asarray(x, float)


def test_sample_wiener_basic():
    path = sample_wiener(0.01, 1.0, seed=42)
    assert path.values[0] == 0.0
    assert len(path.values) == 101
    assert path.horizon == pytest.approx(1.0)
    assert np.allclose(path.times[:3], [0.0, 0.01, 0.02])
    again = sample_wiener(0.01, 1.0, seed=42)
    assert np.array_equal(path.values, again.values)
    other = sample_wiener(0.01, 1.0, seed=43)
    assert not np.array_equal(path.values, other.values)


def test_sample_wiener_validation():
    with pytest.raises(ValueError):
        sample_wiener(0.0, 1.0, seed=1)
    with pytest.raises(ValueError):
        sample_wiener(0.5, 0.25, seed=1)


def test_wiener_path_validation():
    with pytest.raises(ValueError):
        WienerPath(0.0, 1.0, np.array([0.5, 1.0]), 0)  # must start at 0
    with pytest.raises(ValueError):
        WienerPath(0.0, 1.0, np.array([0.0]), 0)
    with pytest.raises(ValueError):
        WienerPath(0.0, -1.0, np.array([0.0, 1.0]), 0)


def test_wiener_increments_rows_are_per_seed_paths():
    # row i is path i's own stream: a larger batch leaves earlier rows alone,
    # and sample_wiener's path is the running sum of the same row
    seeds = path_seeds(8, 5)
    dw = wiener_increments(0.01, seeds, 100)
    assert dw.shape == (5, 100)
    assert np.array_equal(wiener_increments(0.01, seeds[:3], 100), dw[:3])
    path = sample_wiener(0.01, 1.0, int(seeds[4]))
    assert np.array_equal(path.values[1:], np.cumsum(dw[4]))


def test_increment_sample_variance():
    # dt = 0.01, so the pooled sample variance over 1e4 paths must sit
    # tightly around 0.01.
    seeds = path_seeds(99, 10000)
    incs = np.stack([sample_wiener(0.01, 1.0, int(s)).increments()
                     for s in seeds])
    sv = incs.var(ddof=1)
    assert 0.0097 <= sv <= 0.0103


def test_coarsen_sums_increments():
    path = sample_wiener(0.125, 1.0, seed=5)
    coarse = path.coarsen(2)
    assert coarse.dt == 0.25
    assert np.array_equal(coarse.values, path.values[::2])
    # coarse increments are exact sums of fine pairs
    assert np.allclose(coarse.increments(),
                       path.increments().reshape(-1, 2).sum(axis=1))
    assert path.coarsen(1).values is not path.values
    assert np.array_equal(path.coarsen(1).values, path.values)


def test_coarsen_validation():
    path = sample_wiener(0.125, 1.0, seed=5)  # 8 increments
    with pytest.raises(ValueError):
        path.coarsen(3)
    with pytest.raises(ValueError):
        path.coarsen(0)


def test_piecewise_linear_lift_interpolates():
    path = sample_wiener(0.25, 1.0, seed=9)
    lift = piecewise_linear_lift(path, 1)
    assert np.allclose(lift(path.times), path.values)
    mid = 0.5 * (path.values[1] + path.values[2])
    assert lift(0.375) == pytest.approx(mid)
    # coarsening by 2 keeps every other knot
    lift2 = piecewise_linear_lift(path, 2)
    assert np.allclose(lift2.knot_values, path.values[::2])
    # a non-divisor coarsening still pins the final sample as a knot
    lift3 = piecewise_linear_lift(path, 3)
    assert np.array_equal(lift3.knot_times, path.times[[0, 3, 4]])
    with pytest.raises(ValueError):
        piecewise_linear_lift(path, 0)


def test_stratonovich_to_ito_constant_sigma():
    # constant noise has zero correction
    sys = SdeSystem(1, ZERO, lambda x: np.full_like(x, 2.0), STRATONOVICH)
    conv = stratonovich_to_ito(sys)
    assert conv.convention == ITO
    x = np.array([1.5])
    assert np.allclose(conv.drift(x), 0.0)


def test_stratonovich_to_ito_linear_sigma():
    # sigma = x gives correction x/2
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    conv = stratonovich_to_ito(sys)
    for v in (0.5, -2.0, 3.0):
        x = np.array([v])
        assert conv.drift(x)[0] == pytest.approx(0.5 * v, rel=1e-8)


def test_stratonovich_to_ito_quadratic_sigma():
    # sigma = x^2 gives correction (1/2)(2x)(x^2) = x^3
    sys = SdeSystem(1, ZERO, lambda x: np.asarray(x, float) ** 2, STRATONOVICH)
    conv = stratonovich_to_ito(sys)
    x = np.array([1.5])
    assert conv.drift(x)[0] == pytest.approx(1.5 ** 3, rel=1e-6)


def test_stratonovich_to_ito_rejects_ito_input():
    sys = SdeSystem(1, ZERO, IDENT, ITO)
    with pytest.raises(ValueError):
        stratonovich_to_ito(sys)


def test_euler_maruyama_zero_fields_is_constant():
    sys = SdeSystem(2, ZERO, ZERO, ITO)
    path = sample_wiener(0.1, 1.0, seed=3)
    traj = euler_maruyama(sys, [1.0, -2.0], path)
    assert np.all(traj.states == np.array([1.0, -2.0]))
    assert len(traj.times) == len(path.values)


def test_euler_maruyama_single_step():
    sys = SdeSystem(3, lambda x: np.array([1.0, 0.0, 0.0]), ZERO, ITO)
    path = WienerPath(0.0, 0.5, np.array([0.0, 0.7]), 0)
    traj = euler_maruyama(sys, [0.0, 0.0, 0.0], path)
    assert np.allclose(traj.terminal, [0.5, 0.0, 0.0])


def test_euler_maruyama_convention_guard():
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    with pytest.raises(ValueError):
        euler_maruyama(sys, [1.0], sample_wiener(0.1, 1.0, seed=1))


def test_euler_maruyama_divergence():
    # super-linear drift explodes in a handful of steps
    sys = SdeSystem(1, lambda x: x ** 7, ZERO, ITO)
    path = sample_wiener(0.5, 10.0, seed=1)
    with pytest.raises(IntegrationDiverged) as ei:
        euler_maruyama(sys, [4.0], path)
    assert ei.value.time > 0.0
    assert np.isfinite(ei.value.state).all()


def test_heun_zero_fields_is_constant():
    sys = SdeSystem(1, ZERO, ZERO, STRATONOVICH)
    path = sample_wiener(0.1, 1.0, seed=3)
    traj = heun_stratonovich(sys, [4.0], path)
    assert np.all(traj.states == 4.0)


def test_heun_single_step_closed_form():
    # predictor x + x dw, corrector x + (x + predictor) dw / 2
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    path = WienerPath(0.0, 1.0, np.array([0.0, 0.3]), 0)
    traj = heun_stratonovich(sys, [2.0], path)
    assert traj.terminal[0] == pytest.approx(2.0 * (1.0 + 0.3 + 0.5 * 0.09))


def test_heun_matches_converted_euler_in_the_limit():
    """The two schemes solve the same SDE, so their gap shrinks with dt."""
    strat = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    ito = stratonovich_to_ito(strat)
    rms = []
    for k in (6, 8, 10):
        dt = 2.0 ** -k
        acc = 0.0
        for s in range(40):
            path = sample_wiener(dt, 1.0, 1000 + s)
            a = heun_stratonovich(strat, [1.0], path).terminal[0]
            b = euler_maruyama(ito, [1.0], path).terminal[0]
            acc += (a - b) ** 2
        rms.append(np.sqrt(acc / 40))
    assert rms[0] > rms[1] > rms[2]


def test_ode_drive_pure_drift():
    sys = SdeSystem(3, lambda x: np.array([0.0, 0.0, 1.0]), ZERO, ITO)
    path = sample_wiener(0.25, 2.0, seed=7)
    traj = ode_drive(sys, [0.0, 0.0, 0.5], piecewise_linear_lift(path, 1))
    assert traj.terminal[2] == pytest.approx(2.5, abs=1e-8)


def test_ode_drive_exponential_of_the_noise():
    # dx/dt = x dw/dt has chain-rule solution x0 exp(w(t)); RK4 on a
    # 256-knot lift reproduces it to high accuracy at the terminal knot.
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    path = sample_wiener(1.0 / 256, 1.0, seed=2)
    traj = ode_drive(sys, [1.0], piecewise_linear_lift(path, 1))
    oracle = np.exp(path.values[-1])
    assert traj.terminal[0] == pytest.approx(oracle, rel=1e-6)


def test_ode_drive_validation():
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    path = sample_wiener(0.25, 1.0, seed=1)
    lift = piecewise_linear_lift(path, 1)
    with pytest.raises(ValueError):
        ode_drive(sys, [1.0], lift, substeps=0)
    with pytest.raises(ValueError):
        ode_drive(sys, [1.0, 2.0], lift)


def test_jacobian_fd_quadratic_map():
    fn = lambda y: np.stack([y[..., 0] ** 2, y[..., 0] * y[..., 1]], axis=-1)
    x = np.array([1.5, -0.5])
    jac = jacobian_fd(fn, x)
    assert np.allclose(jac, [[3.0, 0.0], [-0.5, 1.5]], atol=1e-8)
    # batched input keeps the leading axis
    xs = np.array([[1.0, 2.0], [0.0, 1.0]])
    jb = jacobian_fd(fn, xs)
    assert jb.shape == (2, 2, 2)
    assert np.allclose(jb[1], [[0.0, 0.0], [1.0, 0.0]], atol=1e-8)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))


def test_trajectory_csv_round_trip(tmp_path):
    sys = SdeSystem(1, ZERO, IDENT, ITO)
    path = sample_wiener(0.25, 1.0, seed=6)
    traj = euler_maruyama(sys, [1.0], path)
    out = tmp_path / "traj.csv"
    trajectory_to_csv(traj, out, header_lines=["alpha", "beta"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# alpha"
    assert lines[1] == "# beta"
    assert lines[2] == "t,x1"
    data = np.loadtxt(out, delimiter=",", skiprows=3)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(data[:, 1], traj.states[:, 0])


def test_trajectory_csv_with_controls(tmp_path):
    times = np.array([0.0, 1.0])
    states = np.array([[1.0, 2.0], [3.0, 4.0]])
    controls = np.array([[0.5], [0.25]])
    traj = Trajectory(times, states, controls)
    out = tmp_path / "tc.csv"
    trajectory_to_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1"
    assert lines[2] == "1,3,4,0.25"
