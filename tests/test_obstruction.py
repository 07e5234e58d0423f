"""The negative half of the paper's claim: without noise the loop cannot
stabilize the Brockett integrator.

At k1 = k2 = 0 every point (0, 0, z) of the x3 axis is an exact
equilibrium of the closed loop, and no continuous static feedback can do
better: g(x) u never equals (0, 0, eps) with eps != 0, so the loop fails
Brockett's (1983) necessary condition for stabilization.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stostab import DiffusionDesign, SystemParams, loop_columns

NOISELESS = DiffusionDesign(0.0, 0.0)
DESIGN = DiffusionDesign(1e-4, 1e-4)
PLANTS = [SystemParams(*b) for b in ((1, 1, 4, 4), (1, 1, 1, 4), (2, -1, 1, 1), (1, -1, 4, 1),
                                     (-1, 2, 3, 0.5), (0.5, 0.5, 1, 1),
                                     (1e-3, 1e3, -1e3, 1e-3), (1e3, 1e3, 1e3, 1e3))]

gain = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
# up to the divergence bound |x| = 1e12, subnormal heights included
height = st.floats(-1e12, 1e12) | st.floats(-1e-300, 1e-300)


def _on_axis(p, d, z):
    """One kernel pass at the axis points (0, 0, z)."""
    z = np.asarray(z, dtype=float)
    return loop_columns(p, d, np.zeros_like(z), np.zeros_like(z), z)


def _at_rest(t) -> bool:
    """Whether the drift, sigma and control of a kernel pass are all
    exactly 0; a NaN is not at rest."""
    return not (t.drift.any() or t.sigma.any() or t.control.any())


@settings(max_examples=300, deadline=None)
@given(st.tuples(gain, gain, gain, gain), st.lists(height, min_size=1, max_size=20))
@example((1.0, 1.0, 4.0, 4.0), [0.15, 1.0, -0.5, 1e12, -1e12, 5e-324, -0.0])
def test_the_noiseless_loop_rests_on_the_x3_axis(b, z):
    try:
        p = SystemParams(*b)
    except ValueError:          # b1 b4 + b2 b3 = 0
        assume(False)
    assert _at_rest(_on_axis(p, NOISELESS, z))


def test_the_rest_check_sees_an_offset_sigma():
    t = _on_axis(PLANTS[0], NOISELESS, [0.15, 1.0, -0.5])
    assert _at_rest(t)
    t.sigma[2, 1] = 5e-324
    assert not _at_rest(t)


@pytest.mark.parametrize("p", PLANTS)
def test_the_design_moves_the_axis_until_its_gains_underflow(p):
    heights = np.logspace(-100, 12, 113)
    # the Sontag factor squares F, which overflows above |z| of about 1e8
    # to 1e10; on the axis G = 0, and the control discards the factor
    with np.errstate(over="ignore"):
        t = _on_axis(p, DESIGN, np.concatenate([heights, -heights]))
    assert t.sigma.any(axis=0).all()
    # below |z| = 1e-162, z^2 rounds to 0, and with it |x|^2 and both gains
    tiny = np.append(np.logspace(-323, -162, 50), 0.0)
    assert not _on_axis(p, DESIGN, np.concatenate([tiny, -tiny])).sigma.any()


B1, B2, B3, B4, X1, X2, EPS = sp.symbols("b1 b2 b3 b4 x1 x2 epsilon")
G = sp.Matrix([[B1, 0], [0, B2], [B3 * X2, -B4 * X1]])


def _forces_rest(assumptions) -> bool:
    """Whether sympy proves, under ``assumptions``, that g(x) u = (0, 0, eps)
    forces u = 0 and eps = 0.

    The first two rows read diag(b1, b2) u = 0.  When their determinant is
    provably nonzero, u is 0, and the third row then gives eps = 0.
    """
    top = G[:2, :]
    if sp.ask(sp.Q.nonzero(top.det()), assumptions) is not True:
        return False
    u = top.LUsolve(sp.zeros(2, 1))
    return u == sp.zeros(2, 1) and sp.simplify((G[2, :] * u)[0]) == 0


def test_no_continuous_static_feedback_can_stabilize():
    # Brockett (1983): if a continuous static feedback stabilizes
    # dx = g(x) u, then (x, u) -> g(x) u maps onto a neighbourhood of 0.
    # With b1, b2 != 0, no (x, u) reaches (0, 0, eps) for eps != 0.
    assert _forces_rest(sp.Q.nonzero(B1) & sp.Q.nonzero(B2))


def test_the_proof_needs_b1_nonzero():
    assert not _forces_rest(sp.Q.nonzero(B2))
    # and rightly: at b1 = 0, u = (eps / (b3 x2), 0) reaches (0, 0, eps)
    u = sp.Matrix([EPS / (B3 * X2), 0])
    assert sp.simplify(G.subs(B1, 0) * u - sp.Matrix([0, 0, EPS])) == sp.zeros(3, 1)
