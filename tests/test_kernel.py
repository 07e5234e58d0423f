"""The closed-loop kernel against its allocating reference, bit for bit."""

import ast
import collections
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stostab import (DiffusionDesign, LoopColumns, SystemParams, brockett,
                     closed_loop, loop_columns, lyapunov, sigma)
from stostab.lyapunov import G_ZERO, X_GUARD

import kernel_oracle

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stostab"

PLANTS = [SystemParams(*b) for b in ((1, 1, 4, 4), (1, 1, 1, 4), (2, -1, 1, 1),
                                     (1, -1, 4, 1), (1, 1, 0, 1))]
DESIGNS = [DiffusionDesign(*k) for k in ((1e-4, 1e-4), (1.0, 0.5), (0.0, 0.0))]

coord = st.floats(-3.0, 3.0, allow_subnormal=False)
# |x1|, |x2| below sqrt(X_GUARD / 2), so X = x1^2 + x2^2 < X_GUARD
tiny = st.floats(-0.7 * np.sqrt(X_GUARD), 0.7 * np.sqrt(X_GUARD))


def _scaled(scale):
    return st.tuples(coord, coord, coord).map(lambda r: tuple(scale * v for v in r))


ROWS = st.one_of(
    st.tuples(coord, coord, coord),
    st.tuples(tiny, tiny, coord),                      # X < X_GUARD
    st.tuples(st.just(0.0), st.just(0.0), coord),      # X = 0
    st.tuples(coord, coord, st.just(0.0)),             # x3 = 0
    st.just((0.0, 0.0, 0.0)),                          # the origin
    _scaled(1e5),
    _scaled(1e200),
    st.tuples(coord, coord, coord, st.integers(0, 2)).map(    # a NaN coordinate
        lambda r: tuple(np.nan if i == r[3] else v for i, v in enumerate(r[:3]))),
)
BATCHES = st.lists(ROWS, min_size=1, max_size=12).map(np.array)


# The fields that hold one coordinate a row, and the row count of each.
BLOCKS = {"sigma": 3, "lg": 2, "control": 2, "drift": 3}

# The allocating reference predates the Ito row: its result is read with
# the other ten fields, and its Ito row is built from its own B columns.
kernel_oracle.LoopColumns = collections.namedtuple("OracleColumns", LoopColumns._fields[:-1])


def _oracle_columns(p, d, x1, x2, x3) -> LoopColumns:
    """The allocating reference, with the Ito row 0.5 (b2 b3 - b1 b4) B1 B2."""
    o = kernel_oracle.loop_columns(p, d, x1, x2, x3)
    return LoopColumns(*o, kernel_oracle._drift_third(p, o.b1, o.b2))


def _columns(t: LoopColumns):
    """(field name, column) of every column of ``t``, a block's rows one by one."""
    for name, value in zip(LoopColumns._fields, t):
        yield from ((name, col) for col in (value if name in BLOCKS else (value,)))


def _assert_same_columns(got: LoopColumns, want: LoopColumns):
    pairs = list(zip(_columns(got), _columns(want)))
    assert len(pairs) == 17
    for (name, a), (_, b) in pairs:
        assert np.array_equal(a, b, equal_nan=True), name
        zero = a == 0.0     # 0.0 == -0.0, and a CSV prints the sign
        assert np.array_equal(np.signbit(a[zero]), np.signbit(b[zero])), name


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PLANTS), st.sampled_from(DESIGNS), BATCHES)
def test_kernel_equals_the_allocating_reference(p, d, x):
    # every field, every bit, on ordinary rows and on the rows that take a
    # branch: the X < X_GUARD patch, G = 0, overflow and NaN
    with np.errstate(all="ignore"):
        want = _oracle_columns(p, d, x[:, 0], x[:, 1], x[:, 2])
        got = loop_columns(p, d, x[:, 0], x[:, 1], x[:, 2])
    _assert_same_columns(got, want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PLANTS), st.sampled_from(DESIGNS), BATCHES, BATCHES)
def test_a_reused_workspace_equals_fresh_calls(p, d, x, y):
    # a pass overwrites every column it returns, whatever the last pass on
    # the same workspace left there: branch rows included
    n = max(len(x), len(y))
    x, y = np.resize(x, (n, 3)), np.resize(y, (n, 3))
    block = np.empty((brockett._N_ROWS, n))
    with np.errstate(all="ignore"):
        for batch in (x, y, x):
            _assert_same_columns(brockett._bind_loop(block, p, d, *batch.T)(),
                                 loop_columns(p, d, *batch.T))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PLANTS), st.sampled_from(DESIGNS), st.lists(BATCHES, min_size=2, max_size=4))
def test_a_bound_pass_follows_its_state_block(p, d, batches):
    # a pass bound once reads the state columns as they are at each call:
    # the step loop overwrites them in place, and the next pass must take
    # its branches (X < X_GUARD patch, G = 0, degenerate H) from the rows
    # it sees then, not from an earlier pass
    n = max(map(len, batches))
    x = np.empty((3, n))
    run = brockett._bind_loop(np.empty((brockett._N_ROWS, n)), p, d, *x)
    with np.errstate(all="ignore"):
        for batch in batches:
            x[...] = np.resize(batch, (n, 3)).T
            _assert_same_columns(run(), _oracle_columns(p, d, *x))


@pytest.mark.parametrize("p", PLANTS)
def test_a_state_alone_equals_its_row_of_a_batch(p):
    # a 0-d column runs the same ufunc loops as a batch.  Numpy's scalar
    # arithmetic, which the allocating kernel fell into on 0-d states, takes
    # powers through the C library: there the one-state drift differed from
    # its batch row on 91 of 2000 uniform states, by up to 3e-15 relative
    d = DiffusionDesign(1.0, 0.5)
    cl = closed_loop(p, d)
    x = np.random.default_rng(3).uniform(-3.0, 3.0, (300, 3))
    x[:4] = [(0.0, 0.0, 1.5), (1e-150, 0.0, 1.0), (0.5, -1.0, 0.0), (0.0, 0.0, 0.0)]
    batch = loop_columns(p, d, *x.T)
    for i, row in enumerate(x):
        alone = loop_columns(p, d, *row)
        for (name, a), (_, b) in zip(_columns(alone), _columns(batch)):
            assert np.shape(a) == () and a == b[i], name
        for fn, cols in ((cl.sde.drift, batch.drift), (cl.sde.diffusion, batch.sigma),
                         (cl.control, batch.control)):
            assert np.array_equal(fn(row), [c[i] for c in cols])


def test_the_kernel_hands_out_row_blocks_of_its_workspace():
    # every vector field is one contiguous (k, n) slice of the pass's float
    # block, and each callable of the loop returns the block of one pass,
    # with the coordinate last and the bits of the batch rows
    p, d = PLANTS[1], DESIGNS[1]
    x = np.random.default_rng(4).uniform(-3.0, 3.0, (50, 3))
    cl = closed_loop(p, d)
    ws = np.empty((brockett._N_ROWS, len(x)))
    t = brockett._bind_loop(ws, p, d, *x.T)()
    for name, k in BLOCKS.items():
        block = getattr(t, name)
        assert block.shape == (k, len(x)) and block.flags.c_contiguous, name
        assert np.shares_memory(block, ws), name
    batch = loop_columns(p, d, *x.T)
    for fn, block in ((cl.sde.drift, batch.drift), (cl.sde.diffusion, batch.sigma),
                      (cl.control, batch.control), (lambda y: sigma(p, d, y), batch.sigma)):
        got = fn(x)
        assert got.base is not None and got.base.shape == (brockett._N_ROWS, len(x))
        assert got.shape == block.T.shape and got.tobytes() == block.T.tobytes()


# The functions that bind a pass to a reused workspace, and the step loop
# that drives them: a Python float operand would cost each ufunc call a
# conversion, so their constants are 0-d arrays.
WORKSPACE_CODE = {"lyapunov.py": ("_bind_v2", "_bind_sontag_factor"),
                  "brockett.py": ("_bind_h_entries", "_bind_eigs", "_bind_loop"),
                  "verify.py": ("_step_paths",)}


def _float_operands(fn: ast.FunctionDef):
    """Line numbers of float literals that are operands of an arithmetic
    operator, an augmented assignment or a call in ``fn``."""
    def is_float(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.value,)
        elif isinstance(node, ast.Call):
            operands = (*node.args, *(k.value for k in node.keywords))
        else:
            continue
        yield from (op.lineno for op in operands if is_float(op))


def test_the_workspace_kernel_has_no_float_literal_operands():
    found = {}
    for filename, names in WORKSPACE_CODE.items():
        tree = ast.parse((SRC / filename).read_text(), filename)
        fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            lines = list(_float_operands(fns[name]))
            if lines:
                found[f"{filename}:{name}"] = lines
    assert found == {}


def test_the_float_literal_check_sees_each_kind_of_operand():
    fn = ast.parse("def f(x, y):\n"
                   "    y = 0.5 * x\n"
                   "    y += -1.0\n"
                   "    np.multiply(x, 2.0, out=y)\n"
                   "    np.copyto(y, 4.0, where=x)\n"
                   "    return x ** 2 + y[0] + TWO\n").body[0]
    assert sorted(_float_operands(fn)) == [2, 3, 4, 5]


def _np_lookups(fn: ast.FunctionDef):
    """Line numbers of ``np.<name>`` lookups in the passes ``fn`` binds (its
    nested functions) and in its loops."""
    lines = set()
    for node in ast.walk(fn):
        if node is not fn and isinstance(node, (ast.FunctionDef, ast.For, ast.While)):
            lines.update(sub.lineno for sub in ast.walk(node)
                         if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                         and sub.value.id == "np")
    return sorted(lines)


def test_a_bound_pass_looks_up_no_numpy_name():
    # a pass calls its ufuncs by module or local name: a lookup on np costs
    # each call an attribute read
    found = {}
    for filename, names in WORKSPACE_CODE.items():
        tree = ast.parse((SRC / filename).read_text(), filename)
        fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            lines = _np_lookups(fns[name])
            if lines:
                found[f"{filename}:{name}"] = lines
    assert found == {}


def test_the_lookup_check_sees_the_pass_and_the_loop_only():
    fn = ast.parse("def bind(x):\n"
                   "    mul = np.multiply\n"
                   "    def run():\n"
                   "        np.add(x, x, x)\n"
                   "    for k in range(3):\n"
                   "        mul(x, np.pi, x)\n"
                   "    return run\n").body[0]
    assert _np_lookups(fn) == [4, 6]


def test_a_loop_pass_makes_at_most_148_numpy_calls(monkeypatch):
    # ensemble-narrow (200 paths) is dispatch-bound: these calls are most of
    # each Euler-Maruyama step's time, so a pass that grows by a contraction
    # or a sum shows there first.  The passes look their numpy names up as
    # module globals at call time, so patching the modules counts them all.
    p, d = SystemParams(1.0, 1.0, 4.0, 4.0), DiffusionDesign(1e-4, 1e-4)
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 200))
    run = brockett._bind_loop(np.empty((brockett._N_ROWS, 200)), p, d, *x)
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module in (brockett, lyapunov):
        for name, obj in list(vars(module).items()):
            if getattr(np, name, None) is obj:
                monkeypatch.setattr(module, name, counted(name, obj))
    t = run()
    # rows on neither branch: no X < X_GUARD patch, no G <= G_ZERO
    assert np.all(x[0] ** 2 + x[1] ** 2 >= X_GUARD) and np.all(t.g_term > G_ZERO)
    assert calls["multiply"] > 0 and sum(calls.values()) <= 148, calls
