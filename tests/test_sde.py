"""Wiener sampling, lifts, and the three integrators."""

import os
import pickle
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stostab import (ITO, STRATONOVICH, IntegrationDiverged,
                     PiecewiseLinearNoise, SdeSystem, Trajectory, WienerPath,
                     euler_maruyama, heun_stratonovich, ode_drive,
                     piecewise_linear_lift, sample_wiener, trajectory_to_csv)
from stostab import sde, verify
from stostab.sde import (DIVERGENCE_BOUND, NORM_SQ_BOUND, _em_step, _final_state,
                         _finite, _initial_state, _rk4_step, _step_path,
                         seed_states, wiener_increments, write_csv,
                         write_path_csvs)
from stostab.verify import path_seeds

import csv_oracle
import step_oracle
from loop_oracle import jacobian_fd

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
        WienerPath(1.0, np.array([0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        WienerPath(1.0, np.array([0.0]))
    with pytest.raises(ValueError):
        WienerPath(-1.0, np.array([0.0, 1.0]))


def test_system_validation():
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        SdeSystem(0, ZERO, IDENT)
    with pytest.raises(ValueError, match="unknown convention 'levy'"):
        SdeSystem(1, ZERO, IDENT, "levy")


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


# seeds at the word boundaries of numpy's seed hash: one 32-bit word, two,
# the top bit, and the largest accepted seed
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def _numpy_state(seed):
    return np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)


def test_seed_states_match_numpy_seed_sequence():
    seeds = np.concatenate([np.array(EDGE_SEEDS, np.uint64), path_seeds(2026, 2000)])
    states = seed_states(seeds)
    assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
    for seed, state in zip(seeds, states):
        assert np.array_equal(state, _numpy_state(seed)), int(seed)


def test_wiener_increments_rows_equal_default_rng():
    # Python ints, numpy uint64 scalars and a uint64 array give the same rows,
    # and each row is numpy's own generator on that seed
    words = path_seeds(2026, 2000)
    seeds = EDGE_SEEDS + [np.uint64(s) for s in EDGE_SEEDS] + list(words)
    dw = wiener_increments(0.01, seeds, 16)
    assert np.array_equal(wiener_increments(0.01, words, 16), dw[-len(words):])
    for seed, row in zip(seeds, dw):
        want = np.random.default_rng(int(seed)).standard_normal(16) * np.sqrt(0.01)
        assert np.array_equal(row, want), int(seed)
    assert np.array_equal(sample_wiener(0.01, 0.16, np.uint64(2**64 - 1)).values[1:],
                          np.cumsum(dw[len(EDGE_SEEDS) - 1]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_seeding_equals_numpy_for_any_seed(seed):
    assert np.array_equal(seed_states(np.array([seed], np.uint64))[0], _numpy_state(seed))
    assert np.array_equal(wiener_increments(1.0, [seed], 8)[0],
                          np.random.default_rng(seed).standard_normal(8))


@pytest.mark.parametrize("bad", [1.7, 2.0, np.float64(1.0), True, np.bool_(False),
                                 -1, np.int64(-3), 2**64, 2**70])
def test_bad_seeds_raise_naming_the_seed(bad):
    # an integral float or a bool must not pass as the integer it equals
    named = re.escape(f"seed {bad!r} ")
    with pytest.raises(ValueError, match=named):
        sample_wiener(0.1, 1.0, bad)
    with pytest.raises(ValueError, match=named):
        sample_wiener(0.1, 1.0, [3, bad])
    with pytest.raises(ValueError, match=named):
        wiener_increments(0.1, (3, bad), 4)


@pytest.mark.parametrize("bad", [np.array([0.5, 1.0]), np.array([True]),
                                 np.array([4, -2], np.int64), np.array([3, 2**64], object)])
def test_bad_seed_arrays_raise(bad):
    with pytest.raises(ValueError, match="is not an integer in \\[0, 2\\*\\*64\\)"):
        wiener_increments(0.1, bad, 4)


def test_batched_paths_equal_single_seed_paths():
    batch = sample_wiener(1.0 / 64, 1.0, SEEDS)
    assert batch.values.shape == (5, 65)
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
        # a batched lift evaluates each row on its own
        for t in (0.3, np.array([0.0, 0.3, 0.51, 1.0]), np.full((2, 2), 0.7)):
            assert lift(t).shape == (5,) + np.shape(t)
            assert np.array_equal(lift(t)[i], np.interp(t, lift.knot_times,
                                                        lift.knot_values[i]))
            assert np.array_equal(lift(t)[i], one(t))
    with pytest.raises(ValueError):
        sample_wiener(0.01, 1.0, [])


def _scalar_system(convention):
    return SdeSystem(1, ZERO, IDENT, convention)


@pytest.mark.parametrize("run, convention", [
    (euler_maruyama, ITO),
    (heun_stratonovich, STRATONOVICH),
    (lambda sys, x0, path: ode_drive(sys, x0, piecewise_linear_lift(path, 2)),
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
    # every level is a strided view of the fine samples, as a lift's knots are
    assert np.shares_memory(coarse.values, path.values)
    assert np.shares_memory(path.coarsen(1).values, path.values)


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


@pytest.mark.parametrize("times, values, message", [
    ([0.0, 1.0], np.zeros((2, 3)), "equal length"),
    ([0.0], np.zeros(1), "at least two knots"),
    ([0.0, 1.0, 1.0], np.zeros(3), "strictly increasing"),
])
def test_piecewise_linear_noise_validation(times, values, message):
    with pytest.raises(ValueError, match=message):
        PiecewiseLinearNoise(np.array(times), values)


def test_euler_maruyama_zero_fields_is_constant():
    sys = SdeSystem(2, ZERO, ZERO, ITO)
    path = sample_wiener(0.1, 1.0, seed=3)
    traj = euler_maruyama(sys, [1.0, -2.0], path)
    assert np.all(traj.states == np.array([1.0, -2.0]))
    assert len(traj.times) == len(path.values)


def test_euler_maruyama_single_step():
    sys = SdeSystem(3, lambda x: np.array([1.0, 0.0, 0.0]), ZERO, ITO)
    path = WienerPath(0.5, np.array([0.0, 0.7]))
    traj = euler_maruyama(sys, [0.0, 0.0, 0.0], path)
    assert np.allclose(traj.terminal, [0.5, 0.0, 0.0])


def test_euler_maruyama_convention_guard():
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    with pytest.raises(ValueError):
        euler_maruyama(sys, [1.0], sample_wiener(0.1, 1.0, seed=1))
    with pytest.raises(ValueError, match="expects a Stratonovich system"):
        heun_stratonovich(SdeSystem(1, ZERO, IDENT, ITO), [1.0], sample_wiener(0.1, 1.0, seed=1))


def test_euler_maruyama_divergence():
    # super-linear drift explodes in a handful of steps
    sys = SdeSystem(1, lambda x: x ** 7, ZERO, ITO)
    path = sample_wiener(0.5, 10.0, seed=1)
    with pytest.raises(IntegrationDiverged) as ei:
        euler_maruyama(sys, [4.0], path)
    assert ei.value.time > 0.0
    assert np.isfinite(ei.value.state).all()


def test_divergence_bound_on_the_squared_norm_is_exact():
    # |x|^2 <= NORM_SQ_BOUND must accept exactly the squared norms whose
    # rounded root is <= DIVERGENCE_BOUND; DIVERGENCE_BOUND ** 2 alone
    # rejects one double too many
    assert np.sqrt(NORM_SQ_BOUND) <= DIVERGENCE_BOUND
    assert np.sqrt(np.nextafter(NORM_SQ_BOUND, np.inf)) > DIVERGENCE_BOUND
    assert NORM_SQ_BOUND > DIVERGENCE_BOUND ** 2


# Entries whose squares straddle NORM_SQ_BOUND (DIVERGENCE_BOUND squares to
# just below it, its upper neighbour to just above), values that fill a row's
# last bits near the bound, tiny and subnormal values, inf and NaN.
_SCREEN_VALUES = [0.0, 5e-324, 1e-300, 1e-150, 1.0, 1e4, 1.2e4, 0.6e12, 0.8e12,
                  float(np.nextafter(DIVERGENCE_BOUND, 0.0)), DIVERGENCE_BOUND,
                  float(np.nextafter(DIVERGENCE_BOUND, np.inf)), np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.sampled_from(_SCREEN_VALUES + [-v for v in _SCREEN_VALUES])))
def test_screen_agrees_with_the_per_row_test(x):
    assert _finite(x) == step_oracle._finite(x)


def test_screen_falls_back_to_the_per_row_test():
    # the batch total is past half the bound, so the screen cannot decide,
    # yet every row is inside it: the exact branch must accept the batch
    x = np.array([[0.8e12, 0.0, 0.0], [0.0, 0.8e12, 0.0], [DIVERGENCE_BOUND, 0.0, 0.0]])
    assert np.vdot(x, x) > 0.5 * NORM_SQ_BOUND
    assert _finite(x) is True
    x[2, 0] = np.nextafter(DIVERGENCE_BOUND, np.inf)
    assert _finite(x) is False


def test_screen_fails_an_overflowing_row_without_a_warning():
    # 1e300 squared overflows to inf in the per-row test; RuntimeWarnings
    # are errors in this suite
    assert _finite(np.array([[1e300]])) is False


def test_heun_zero_fields_is_constant():
    sys = SdeSystem(1, ZERO, ZERO, STRATONOVICH)
    path = sample_wiener(0.1, 1.0, seed=3)
    traj = heun_stratonovich(sys, [4.0], path)
    assert np.all(traj.states == 4.0)


def test_heun_single_step_closed_form():
    # predictor x + x dw, corrector x + (x + predictor) dw / 2
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    path = WienerPath(1.0, np.array([0.0, 0.3]))
    traj = heun_stratonovich(sys, [2.0], path)
    assert traj.terminal[0] == pytest.approx(2.0 * (1.0 + 0.3 + 0.5 * 0.09))


def test_heun_matches_converted_euler_in_the_limit():
    """The two schemes solve the same SDE, so their gap shrinks with dt."""
    strat = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    # the Ito form of dx = x o dw adds the drift (1/2)(d sigma/dx) sigma = x/2
    ito = SdeSystem(1, lambda x: 0.5 * np.asarray(x, float), IDENT, ITO)
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


def test_ode_drive_substeps_follow_the_rk4_amplification():
    # x' = s x on a piecewise-constant slope: the one RK4 step across an
    # uneven knot interval of width h multiplies x by
    # 1 + z + z^2/2 + z^3/6 + z^4/24 with z = s h
    kt = np.array([0.0, 0.111, 0.464, 0.703, 0.858, 1.056])
    noise = PiecewiseLinearNoise(kt, np.array([0.0, 0.4, -0.3, 0.5, 0.45, 1.2]))
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    traj = ode_drive(sys, [0.7], noise)
    assert traj.states.shape == (len(kt), 1)
    # the states sit at the knots, exactly
    assert np.array_equal(traj.times, kt)
    z = noise.slopes * np.diff(kt)
    gain = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    assert np.allclose(traj.states[1:, 0] / traj.states[:-1, 0], gain, rtol=1e-14, atol=0)
    assert traj.states[0, 0] == 0.7


def _cubic3(x):
    # grows like x3^3 along the third axis, so a large x3 start diverges
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([-x1 + x2 * x3, -x2 - x1 * x3, x3 * x3 * x3], axis=-1)


def _lifted(drive):
    return lambda sys, x0, path: drive(sys, x0, piecewise_linear_lift(path, 2))


@pytest.mark.parametrize("run, reference, convention", [
    (euler_maruyama, step_oracle.euler_maruyama, ITO),
    (heun_stratonovich, step_oracle.heun_stratonovich, STRATONOVICH),
    (_lifted(ode_drive), _lifted(step_oracle.ode_drive), STRATONOVICH),
], ids=["em", "heun", "rk4-1"])
def test_steppers_equal_the_reference_steppers(run, reference, convention):
    # the shared stepping loop, the divergence screen and the hoisted RK4
    # constants change no bit: times, states, and where a row diverges the
    # exception's time and state
    scalar = SdeSystem(1, lambda x: x * x * x, IDENT, convention)
    # a step that is not a power of 2, where h / 6 and h * (1 / 6) can differ
    calm = sample_wiener(0.03, 0.96, SEEDS)
    # 33 increments: the lift's last knot interval is half as wide as the others
    ragged = sample_wiener(0.03, 0.99, SEEDS)
    widths = np.diff(piecewise_linear_lift(ragged, 2).knot_times)
    assert widths[-1] < 0.6 * widths[0]
    for path in (calm, ragged):
        for sys, x0 in ((scalar, [[0.1], [0.2], [0.3], [-0.2], [0.15]]),
                        (SdeSystem(3, _field3, _noise3, convention), X0_3)):
            got, want = run(sys, x0, path), reference(sys, x0, path)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.states, want.states)
    wild = sample_wiener(0.25, 2.0, SEEDS[:3])
    x0_3 = np.array([[0.1, 0.0, 0.2], [0.0, 0.1, 4.0], [0.2, 0.1, 0.0]])
    for sys, x0 in ((scalar, [[0.1], [0.2], [4.0]]),
                    (SdeSystem(3, _cubic3, _noise3, convention), x0_3)):
        with pytest.raises(IntegrationDiverged) as got:
            run(sys, x0, wild)
        with pytest.raises(IntegrationDiverged) as want:
            reference(sys, x0, wild)
        assert got.value.time == want.value.time
        assert np.array_equal(got.value.state, want.value.state)


def _fancy_lift(path, coarsening):
    # the knots by index arrays, as the lift builds them when the coarsening
    # does not divide the increments
    n_samples = path.values.shape[-1]
    idx = np.arange(0, n_samples, coarsening)
    if idx[-1] != n_samples - 1:
        idx = np.append(idx, n_samples - 1)
    return path.times[idx], path.values[..., idx]


# 4100 increments: coarsenings 1, 4 and 41 divide them, 3 and 64 do not
LONG = sample_wiener(2.0 ** -12, 4100 * 2.0 ** -12, path_seeds(5, 16))
COARSENINGS = (1, 3, 4, 41, 64)


def test_lift_knots_are_a_view_when_the_coarsening_divides():
    assert LONG.values.shape == (16, 4101)
    for c in COARSENINGS:
        lift = piecewise_linear_lift(LONG, c)
        times, values = _fancy_lift(LONG, c)
        assert np.array_equal(lift.knot_times, times)
        assert np.array_equal(lift.knot_values, values)
        assert np.shares_memory(lift.knot_values, LONG.values) == (4100 % c == 0)


def test_final_state_is_the_last_recorded_state():
    # only the final state is kept, with the bits of the full run and of
    # the reference steppers
    scalar = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    system3 = SdeSystem(3, _field3, _noise3, STRATONOVICH)
    x0_3 = np.tile(X0_3, (4, 1))[:16] * 0.1
    for sys, x0 in ((scalar, [0.7]), (system3, x0_3)):
        ito = SdeSystem(sys.dim, sys.drift, sys.diffusion, ITO)
        x = _initial_state(sys, x0, (16,))
        runs = [(LONG.times, _em_step(ito, LONG),
                 step_oracle.euler_maruyama(ito, x0, LONG))]
        for c in COARSENINGS:
            lift = piecewise_linear_lift(LONG, c)
            runs.append((lift.knot_times, _rk4_step(sys, lift),
                         step_oracle.ode_drive(sys, x0, lift)))
        for times, step, reference in runs:
            last = _final_state(x, times, step)
            assert last.shape == (16, sys.dim)
            assert np.array_equal(last, _step_path(x, times, step).states[-1])
            assert np.array_equal(last, reference.states[-1])


def test_final_state_diverges_where_the_full_run_does():
    cubic = SdeSystem(1, lambda x: x * x * x, IDENT, ITO)
    wild = sample_wiener(0.25, 2.0, SEEDS[:3])
    x = _initial_state(cubic, [[0.1], [0.2], [4.0]], (3,))
    lift = piecewise_linear_lift(wild, 1)
    for times, step in ((wild.times, _em_step(cubic, wild)),
                        (lift.knot_times, _rk4_step(cubic, lift))):
        with pytest.raises(IntegrationDiverged) as got:
            _final_state(x, times, step)
        with pytest.raises(IntegrationDiverged) as want:
            _step_path(x, times, step)
        assert got.value.time == want.value.time
        assert np.array_equal(got.value.state, want.value.state)


def test_ode_drive_validation():
    sys = SdeSystem(1, ZERO, IDENT, STRATONOVICH)
    path = sample_wiener(0.25, 1.0, seed=1)
    lift = piecewise_linear_lift(path, 1)
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
    with pytest.raises(ValueError, match="controls must align with times"):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros((3, 2)))


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


def test_write_csv_formats_every_number_at_17_digits(tmp_path):
    rows = [[0.1, 2, -0.0, 1e-300], [float("nan"), float("inf"), -float("inf"),
                                      2 ** 60], [1.0 / 3.0, -7, 1e22, 5e-324]]
    out = tmp_path / "n.csv"
    write_csv(out, ["a", "b", "c", "d"], rows, ["note"])
    want = ["# note", "a,b,c,d"] + [",".join(f"{v:.17g}" for v in row)
                                    for row in rows]
    assert out.read_text() == "\n".join(want) + "\n"


# values whose %.17g text is a corner case: signed zero, the smallest and
# other subnormals, the extremes, the non-finite and integer-valued floats
CSV_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072e-308,
                     1e-300, 1e308, -1e308, float("inf"), -float("inf"),
                     float("nan"), 0.1, 1.0 / 3.0]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats())


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_write_path_csvs_matches_the_row_writer(data):
    # a batch written from the one template has, file by file, the bytes of
    # the reference row writer; the header lines hold %, %% and {} to check
    # that the template escapes them
    n_paths = data.draw(st.integers(1, 5), label="n_paths")
    n_rows = data.draw(st.integers(1, 40), label="n_rows")
    dim = data.draw(st.integers(1, 3), label="dim")
    n_controls = data.draw(st.integers(0, 2), label="n_controls")
    # times on no uniform grid: sorted distinct values, nan aside
    times = np.array(sorted(data.draw(st.lists(
        CSV_VALUES.filter(lambda v: v == v), min_size=n_rows, max_size=n_rows,
        unique=True), label="times")))
    states = data.draw(arrays(np.float64, (n_paths, n_rows, dim), elements=CSV_VALUES),
                       label="states")
    controls = None
    if n_controls:
        controls = data.draw(arrays(np.float64, (n_paths, n_rows, n_controls),
                                    elements=CSV_VALUES), label="controls")
    header = ["stostab", "config: out=/a%d_{}%%s/b%(x)s 100%"] + data.draw(
        st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="\n\r"), max_size=12),
                 max_size=2), label="header")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"new_{i}.csv") for i in range(n_paths)]
        write_path_csvs(paths, times, states, controls, header)
        for i, path in enumerate(paths):
            traj = Trajectory(times, states[i], None if controls is None else controls[i])
            ref = os.path.join(tmp, f"ref_{i}.csv")
            csv_oracle.trajectory_to_csv(traj, ref, header)
            with open(ref, "rb") as fh:
                want = fh.read()
            with open(path, "rb") as fh:
                assert fh.read() == want
            # the batch of one is the same writer
            one = os.path.join(tmp, f"one_{i}.csv")
            trajectory_to_csv(traj, one, header)
            with open(one, "rb") as fh:
                assert fh.read() == want


def _share_setup(monkeypatch, cpus):
    # one share per path-sized write, on ``cpus`` CPUs; returns the fork calls
    monkeypatch.setattr(sde, "SHARE_MIN_VALUES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _oracle_bytes(path, times, states, controls, header):
    csv_oracle.trajectory_to_csv(Trajectory(times, states, controls), path, header)
    with open(path, "rb") as fh:
        return fh.read()


PATHS_3 = np.random.default_rng(5).normal(size=(3, 4, 3)) * [1.0, 1e-300, 1e300]
HEADER_PCT = ["stostab", "config: out=/a%d_{}%%s/b%(x)s 100%"]


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_write_path_csvs_shares_match_the_row_writer(tmp_path, monkeypatch, cpus):
    # one, two, and more CPUs than the 3 paths: each share is written by its
    # own process, and every file has the bytes of the reference row writer
    forks = _share_setup(monkeypatch, cpus)
    times = np.array([0.0, 0.1, 0.25, 1.0 / 3.0])
    controls = PATHS_3[..., :2] * 7.0
    paths = [str(tmp_path / f"new_{i}.csv") for i in range(3)]
    write_path_csvs(paths, times, PATHS_3, controls, HEADER_PCT)
    assert len(forks) == min(cpus, 3) - 1
    for i, path in enumerate(paths):
        want = _oracle_bytes(tmp_path / f"ref_{i}.csv", times, PATHS_3[i],
                             controls[i], HEADER_PCT)
        with open(path, "rb") as fh:
            assert fh.read() == want


@pytest.mark.parametrize("missing", [0, 2], ids=("own-share", "child-share"))
def test_write_path_csvs_share_failure_raises_in_the_parent(tmp_path, monkeypatch, missing):
    # on two CPUs this process writes paths 0-1 and a child paths 2-3; a file
    # in a missing directory fails its share, in this process either way,
    # naming the file, and the other share is still written
    forks = _share_setup(monkeypatch, 2)
    paths = [str(tmp_path / f"p{i}.csv") for i in range(4)]
    paths[missing] = str(tmp_path / "missing" / "p.csv")
    states = np.concatenate([PATHS_3, PATHS_3[:1]])
    with pytest.raises(OSError, match=re.escape(paths[missing])) as info:
        write_path_csvs(paths, np.arange(4.0), states)
    assert len(forks) == 1
    assert "No such file or directory" in str(info.value)
    other = 2 - missing
    assert os.path.exists(paths[other]) and os.path.exists(paths[other + 1])


def test_write_path_csvs_one_path_never_forks(tmp_path, monkeypatch):
    # a single path is written in this process, however many CPUs are free
    _share_setup(monkeypatch, 8)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    times = np.arange(4.0)
    write_path_csvs([tmp_path / "one.csv"], times, PATHS_3[:1], None, HEADER_PCT)
    want = _oracle_bytes(tmp_path / "ref.csv", times, PATHS_3[0], None, HEADER_PCT)
    assert (tmp_path / "one.csv").read_bytes() == want


def test_write_path_csvs_rejects_mismatched_shapes(tmp_path):
    times = np.array([0.0, 1.0, 2.0])
    states = np.zeros((2, 3, 3))
    files = [tmp_path / "a.csv", tmp_path / "b.csv"]
    with pytest.raises(ValueError):
        write_path_csvs(files[:1], times, states)
    with pytest.raises(ValueError):
        write_path_csvs(files, times[:2], states)
    with pytest.raises(ValueError):
        write_path_csvs(files, times, states, np.zeros((2, 1, 2)))
    # one path's (n, m) controls where (N, n, m) is due
    with pytest.raises(ValueError):
        write_path_csvs(files[:1], times, states[:1], np.zeros((3, 3)))
    assert not any(f.exists() for f in files)


def _ties(rng, per_q):
    # m 2^-q with m odd has the digits of m 5^q, which end in 5: with 18 of
    # them its 17-digit rounding is an exact tie, for E = 17 - q in -8..15
    out = []
    for q in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** q), min((10 ** 18 - 1) // 5 ** q, 2 ** 53 - 1)
        m = rng.integers(lo, hi + 1, per_q) | 1
        out.append(np.ldexp(m[m <= hi].astype(np.float64), -q))
    return np.concatenate(out)


def _formatter_cases() -> np.ndarray:
    rng = np.random.default_rng(33)
    p10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near = [np.nextafter(p10, 0.0), p10, np.nextafter(p10, np.inf),
            np.nextafter(np.nextafter(p10, 0.0), 0.0)]
    # 17 digits of nines and a rounding digit: most round up to 10^(E+1)
    nines = np.array([float(f"9.9999999999999999{d}e{e}")
                      for e in range(-320, 308) for d in (4, 5, 6, 9)])
    switch = np.concatenate([np.geomspace(lo, hi, 20_000)
                             for lo, hi in ((9e-6, 1.1e-5), (9e-5, 1.1e-4),
                                            (9e15, 1.1e16), (9e16, 1.1e17))])
    cases = [
        *near, nines, switch, _ties(rng, 4_000),
        np.array([14.7523956298828125, 9.9999999999999998e-249, 0.0, 5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, np.inf, np.nan]),
        rng.integers(1, 2 ** 52, 50_000, dtype=np.int64).view(np.float64),  # subnormal
        rng.integers(-2 ** 60, 2 ** 60, 100_000).astype(np.float64),
        np.arange(-50_000, 50_000, dtype=np.float64),
        rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(100_000) * 10.0 ** rng.integers(-9, 3, 100_000),
    ]
    values = np.concatenate(cases)
    return np.concatenate([values, -values])


def test_the_block_formatter_is_percent_17g_on_a_million_values():
    # exact ties need half-even rounding, and an exponent estimate one too
    # high must be re-checked before a 17-digit D of 10^16 is accepted, or
    # 9.9999999999999998e-249 prints as 1e-248
    values = _formatter_cases()
    assert values.size >= 10 ** 6
    want = "".join("%.17g\n" % v for v in values.tolist())
    got, = sde._csv_texts(values.reshape(1, -1, 1))
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split("\n"),
                                             want.split("\n")) if g != w]
        pytest.fail(f"{len(bad)} values differ from %.17g, first {bad[:3]}")


def test_the_block_formatter_splits_long_slabs_and_many_slabs(monkeypatch):
    # blocks of 8 values: a slab of 10 rows of 3 goes in row blocks, and
    # slabs of 2 rows two to a block; the texts are the same
    monkeypatch.setattr(sde, "_CSV_BLOCK", 8)
    values = np.random.default_rng(2).normal(size=(3, 10, 3)) * 10.0 ** np.arange(-6, 24, 10)
    rows = [",".join("%.17g" % v for v in row) + "\n" for row in values.reshape(-1, 3).tolist()]
    assert sde._csv_texts(values) == ["".join(rows[i:i + 10]) for i in (0, 10, 20)]
    pairs = values.reshape(15, 2, 3)
    assert sde._csv_texts(pairs) == ["".join(rows[i:i + 2]) for i in range(0, 30, 2)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_write_csv_matches_the_row_writer(data):
    # drift-bucket rows mix float edges with integer counts, and NaN where a
    # bucket is empty; Wong-Zakai rows mix integer meshes with floats
    n_cols = data.draw(st.integers(1, 5), label="n_cols")
    kinds = data.draw(st.lists(st.sampled_from(["float", "count", "mesh"]),
                               min_size=n_cols, max_size=n_cols), label="kinds")
    cell = {"float": CSV_VALUES, "count": st.integers(0, 10 ** 6),
            "mesh": st.integers(1, 2 ** 40)}
    rows = data.draw(st.lists(st.tuples(*(cell[k] for k in kinds)), max_size=30),
                     label="rows")
    columns = [f"c{i}" for i in range(n_cols)]
    header = ["stostab", "config: out=/a%d_{}%%s 100%"]
    with tempfile.TemporaryDirectory() as tmp:
        ref, new = os.path.join(tmp, "ref.csv"), os.path.join(tmp, "new.csv")
        csv_oracle.write_csv(ref, columns, [list(r) for r in rows], header)
        write_csv(new, columns, iter(rows), header)
        with open(ref, "rb") as a, open(new, "rb") as b:
            assert b.read() == a.read()


def test_write_csv_rejects_a_row_of_the_wrong_width(tmp_path):
    with pytest.raises(ValueError, match="one number per column"):
        write_csv(tmp_path / "w.csv", ["a", "b"], [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "w.csv", ["a", "b"], [[1.0, 2.0], [3.0, 4.0, 5.0]])
    assert not (tmp_path / "w.csv").exists()


# Peak traced memory of one writer of simulate-dense's 200 x 251 x 5 values:
# about 1.0 MB, the temporaries of one formatter block; 2 MB keeps the
# benchmark's peak RSS within its 5 % bound.
WRITER_PEAK_BOUND = 2 * 2 ** 20


def test_one_writer_formats_in_bounded_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(sde, "SHARE_MIN_VALUES", 10 ** 9)
    rng = np.random.default_rng(7)
    times = np.arange(251) * 1e-3
    states = rng.normal(size=(200, 251, 3)) * [1e-3, 1e-2, 1.0]
    controls = rng.normal(size=(200, 251, 2)) * 1e-5
    paths = [str(tmp_path / f"path_{i:04d}.csv") for i in range(200)]
    write_path_csvs(paths[:1], times, states[:1], controls[:1])     # tables built
    tracemalloc.start()
    try:
        write_path_csvs(paths, times, states, controls, ["stostab"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < WRITER_PEAK_BOUND
    want = _oracle_bytes(tmp_path / "ref.csv", times, states[-1], controls[-1], ["stostab"])
    assert (tmp_path / "path_0199.csv").read_bytes() == want


@pytest.mark.parametrize("horizon, dt, n", [
    (0.3, 0.1, 3), (0.7, 0.1, 7), (1.0, 1.0 / 3.0, 3), (0.25, 1e-3, 250),
    (0.3, 0.0125, 24), (0.29, 0.1, 2), (1.0, 0.3, 3)])
def test_step_count_forgives_a_quotient_just_below_an_integer(horizon, dt, n):
    # 0.3 / 0.1 is 2.9999999999999996 in floats, and 0.3 / 0.0125 is
    # 23.999999999999996: both count as whole numbers of steps, and every
    # caller counts the same steps
    assert sde._step_count(horizon, dt) == n
    assert len(sample_wiener(dt, horizon, seed=1).values) == n + 1
    plan = verify._ensemble_plan((0.0, 0.0, 1.0), dt, horizon, 1, 5.0, 0.1, 20.0, 0)
    assert plan[1] == n


def test_strong_order_counts_the_fine_steps_with_the_same_rule():
    # 0.3 / 0.0125 falls just short of 24, which every level divides; a
    # plain floor would count 23 fine steps and refuse the step sizes
    sys = SdeSystem(1, ZERO, IDENT, ITO)
    slope = verify.strong_order_estimate(
        euler_maruyama, sys, lambda x0, T, wT: x0 * np.exp(wT - 0.5 * T), [1.0],
        0.3, [0.1, 0.05, 0.025, 0.0125], n_paths=3, seed=1)
    assert np.isfinite(slope)


def _bounds(shares):
    return [shares[0][0]] + [hi for _, hi in shares]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=40), st.integers(1, 9))
def test_share_bounds_split_contiguously_and_near_evenly(weights, k):
    shares = sde._share_bounds(weights, k)
    # contiguous, in order, covering every item once, at most k shares
    bounds = _bounds(shares)
    assert bounds[0] == 0 and bounds[-1] == len(weights)
    assert all(lo < hi for lo, hi in shares)
    assert [lo for lo, _ in shares[1:]] == [hi for _, hi in shares[:-1]]
    assert 1 <= len(shares) <= k
    # no share outweighs the heaviest item plus an even share of the total
    total = sum(weights)
    assert all(k * sum(weights[lo:hi]) <= k * max(weights) + total for lo, hi in shares)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 9), st.integers(1, 1000))
def test_share_bounds_of_equal_weights_are_the_even_split(n, k, weight):
    # equal weights keep the ensembles' and path writers' shares s * n // k
    want = sorted({s * n // k for s in range(k + 1)})
    assert _bounds(sde._share_bounds([weight] * n, k)) == want


def test_share_bounds_of_the_convergence_experiments():
    # the strong-order levels of 2**-6 .. 2**-12: the finest is half the
    # steps, and runs on its own; the Wong-Zakai RK4 lifts of meshes 16 ..
    # 1024 (4 evaluations a step), then the Euler-Maruyama contrast on 4096
    # steps: the lifts and the contrast split about evenly
    levels = [4096 >> j for j in range(6, -1, -1)]
    assert sde._share_bounds(levels, 2) == [(0, 6), (6, 7)]
    wong_zakai = [64, 256, 1024, 4096, 4096]
    assert sde._share_bounds(wong_zakai, 2) == [(0, 4), (4, 5)]
    assert sde._share_bounds(wong_zakai, 3) == [(0, 3), (3, 4), (4, 5)]
    assert sde._share_bounds([], 2) == [(0, 0)]


def test_one_share_without_sched_getaffinity(monkeypatch):
    # a platform that cannot say which CPUs the process may use runs every
    # share here, however much work there is
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sde._n_shares(8, 10 ** 9, 1) == 1


def test_integration_diverged_survives_a_pickle_round_trip():
    exc = IntegrationDiverged(0.0625, np.array([[1.5], [-2e12]]))
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is IntegrationDiverged
    assert again.time == exc.time and str(again) == str(exc) == "integration diverged at t=0.0625"
    assert np.array_equal(again.state, exc.state)


class _Unpicklable(Exception):
    def __init__(self, text):
        super().__init__(text)
        self.callback = lambda: None


@pytest.mark.parametrize("raised, want_type, want_text", [
    (lambda: IntegrationDiverged(0.5, np.ones((2, 1))), IntegrationDiverged,
     "integration diverged at t=0.5"),
    (lambda: FileNotFoundError(2, "No such file or directory", "/missing/p.csv"),
     FileNotFoundError, "[Errno 2] No such file or directory: '/missing/p.csv'"),
    # a lambda does not pickle: the text comes back in a RuntimeError
    (lambda: _Unpicklable("cannot travel"), RuntimeError, "cannot travel"),
    (lambda: ValueError(), ValueError, ""),
], ids=("diverged", "oserror", "unpicklable", "no-text"))
def test_a_child_sends_back_its_exception(monkeypatch, raised, want_type, want_text):
    # two items of weight 1, at least 1 a share, on two CPUs: two shares,
    # so this process runs item 0 and a child item 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def work(lo, hi):
        if lo == 1:
            raise raised()

    lo, exc = sde._run_shares(work, [1, 1], 1)
    assert lo == 1 and type(exc) is want_type and str(exc) == want_text
    if want_type is IntegrationDiverged:
        assert exc.time == 0.5 and np.array_equal(exc.state, np.ones((2, 1)))
    # the ensemble and path-writer messages read an exception with no text
    # as the exit code its child left with, as they did before
    assert sde._failure_text(exc) == (want_text or "the child process exited with code 1")


def test_a_failed_fork_reaps_the_started_child(monkeypatch):
    # three items on three CPUs: the first fork starts a child, the second
    # fails.  Its OSError propagates before this process runs its share, the
    # child is reaped, and no pipe end stays open.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    fork, pids, ran = os.fork, [], []

    def fork_once():
        if pids:
            raise OSError("no process for the third share")
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", fork_once)
    n_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="^no process for the third share$"):
        sde._run_shares(lambda lo, hi: ran.append(lo), [1, 1, 1], 1)
    assert ran == [] and len(os.listdir("/proc/self/fd")) == n_fds
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
