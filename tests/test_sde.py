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


def _field3(x):
    # a nonlinear 3-d drift built from products only, so the single-path
    # and batched runs evaluate the same IEEE operations
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([-x1 + x2 * x3, -x2 - x1 * x3, 0.5 * x1 * x2 - x3], axis=-1)


def _noise3(x):
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([x2, -x1, 1.0 + 0.1 * x3 * x3], axis=-1)


SEEDS = path_seeds(21, 5)
X0_3 = np.array([[0.3, -0.2, 0.9], [1.0, 0.5, -0.4], [0.0, 0.0, 1.0],
                 [-0.7, 0.2, 0.1], [0.4, 0.4, 0.4]])


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


def test_wiener_increments_fill_out():
    seeds = path_seeds(8, 3)
    buf = np.zeros((3, 51))
    dw = wiener_increments(0.01, seeds, 50, out=buf[:, 1:])
    assert dw.base is buf
    assert np.array_equal(buf[:, 1:], wiener_increments(0.01, seeds, 50))
    assert np.all(buf[:, 0] == 0.0)
    with pytest.raises(ValueError):
        wiener_increments(0.01, seeds, 50, out=np.empty((3, 49)))


def test_batched_paths_equal_single_seed_paths():
    batch = sample_wiener(1.0 / 64, 1.0, SEEDS)
    assert batch.values.shape == (5, 65)
    assert batch.seed == tuple(int(s) for s in SEEDS)
    assert np.array_equal(batch.times, sample_wiener(1.0 / 64, 1.0, 1).times)
    coarse = batch.coarsen(4)
    lift = piecewise_linear_lift(batch, 3)
    for i, seed in enumerate(SEEDS):
        single = sample_wiener(1.0 / 64, 1.0, int(seed))
        assert np.array_equal(batch.values[i], single.values)
        assert np.array_equal(batch.increments()[i], single.increments())
        assert np.array_equal(coarse.values[i], single.coarsen(4).values)
        one = piecewise_linear_lift(single, 3)
        assert np.array_equal(lift.knot_times, one.knot_times)
        assert np.array_equal(lift.knot_values[i], one.knot_values)
        assert np.array_equal(lift.slopes[i], one.slopes)
    with pytest.raises(ValueError):
        sample_wiener(0.01, 1.0, [])


def _scalar_system(convention):
    return SdeSystem(1, ZERO, IDENT, convention)


@pytest.mark.parametrize("run, convention", [
    (euler_maruyama, ITO),
    (heun_stratonovich, STRATONOVICH),
    (lambda sys, x0, path: ode_drive(sys, x0, piecewise_linear_lift(path, 2), 2),
     STRATONOVICH),
])
def test_batched_integrators_equal_single_path_runs(run, convention):
    batch = sample_wiener(1.0 / 32, 1.0, SEEDS)
    scalar = _scalar_system(convention)
    system3 = SdeSystem(3, _field3, _noise3, convention)
    # x0 of shape (dim,) is shared by every row; (N, dim) gives one per row
    for sys, x0 in ((scalar, [1.5]), (system3, X0_3)):
        traj = run(sys, x0, batch)
        assert traj.states.shape == (len(traj.times), 5, sys.dim)
        for i, seed in enumerate(SEEDS):
            row_x0 = x0 if np.ndim(x0) == 1 else x0[i]
            one = run(sys, row_x0, sample_wiener(1.0 / 32, 1.0, int(seed)))
            assert np.array_equal(traj.times, one.times)
            assert np.array_equal(traj.states[:, i], one.states)


def test_batched_x0_must_match_the_batch():
    batch = sample_wiener(0.25, 1.0, SEEDS)
    sys = _scalar_system(ITO)
    with pytest.raises(ValueError):
        euler_maruyama(sys, np.ones((4, 1)), batch)
    with pytest.raises(ValueError):
        euler_maruyama(sys, np.ones((5, 1)), sample_wiener(0.25, 1.0, 1))
    with pytest.raises(ValueError):
        ode_drive(sys, np.ones((5, 2)), piecewise_linear_lift(batch, 1))


def test_one_diverging_row_stops_the_batch_at_its_time():
    # only the row started at 4 explodes under x' = x^3; the batch must
    # fail where that row's own run fails, with every row's last state
    cubic = SdeSystem(1, lambda x: x * x * x, ZERO, ITO)
    x0 = np.array([[0.1], [0.2], [4.0]])
    batch = sample_wiener(0.5, 10.0, SEEDS[:3])
    runs = (euler_maruyama,
            lambda sys, x, path: ode_drive(sys, x, piecewise_linear_lift(path, 1)))
    for run in runs:
        with pytest.raises(IntegrationDiverged) as single:
            run(cubic, x0[2], sample_wiener(0.5, 10.0, int(SEEDS[2])))
        with pytest.raises(IntegrationDiverged) as batched:
            run(cubic, x0, batch)
        assert str(batched.value) == str(single.value)
        assert str(batched.value).startswith("integration diverged at t=")
        assert batched.value.time == single.value.time
        assert batched.value.state.shape == (3, 1)
        assert np.array_equal(batched.value.state[2], single.value.state)
        # the calm rows alone integrate to the end
        assert np.all(np.isfinite(run(cubic, x0[:2], sample_wiener(
            0.5, 10.0, SEEDS[:2])).terminal))


def test_increment_sample_variance():
    # dt = 0.01, so the pooled sample variance over 1e4 paths must sit
    # tightly around 0.01.
    seeds = path_seeds(99, 10000)
    incs = sample_wiener(0.01, 1.0, seeds).increments()
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
        path = sample_wiener(2.0 ** -k, 1.0, range(1000, 1040))
        a = heun_stratonovich(strat, [1.0], path).terminal[:, 0]
        b = euler_maruyama(ito, [1.0], path).terminal[:, 0]
        acc = 0.0
        for d in a - b:     # a running total in seed order
            acc += d ** 2
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
