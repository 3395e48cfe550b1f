"""CG, AMG (both forms) and deflation."""

import ctypes

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fem import box_tet_mesh
from repro.fem.plan import get_plan
from repro.obs import get_registry
from repro.physics.pressure import assemble_laplacian
from repro.solvers import (
    AmgLevel,
    SmoothedAggregationAMG,
    SolverError,
    conjugate_gradient,
    deflated_cg,
    partition_coarse_space,
)
from repro.solvers.cg import VectorPhase
from repro.solvers.native import NativeCycle, _bits
from tests.physics.test_pressure_fstep import unfiltered_laplacian


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    m = a @ a.T + n * np.eye(n)
    return sp.csr_matrix(m)


@pytest.fixture(scope="module")
def poisson():
    mesh = box_tet_mesh(5, 5, 5)
    return assemble_laplacian(mesh)


# -- CG ------------------------------------------------------------------------


def test_cg_solves_spd():
    a = _spd(40)
    x_true = np.arange(40, dtype=float)
    res = conjugate_gradient(a, a @ x_true, tol=1e-12, maxiter=400)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-8)


def test_cg_initial_guess_exact():
    a = _spd(15, seed=1)
    x = np.ones(15)
    res = conjugate_gradient(a, a @ x, x0=x, tol=1e-10)
    assert res.converged and res.iterations == 0


def test_cg_residual_history_monotone_tail():
    a = _spd(30, seed=2)
    res = conjugate_gradient(a, np.ones(30), tol=1e-12)
    assert res.residual_history[-1] < res.residual_history[0]


def test_cg_maxiter_reports_unconverged():
    mesh = box_tet_mesh(4, 4, 4)
    k = assemble_laplacian(mesh) + 1e-8 * sp.eye(65 if False else mesh.nnode)
    res = conjugate_gradient(k, np.random.default_rng(0).standard_normal(mesh.nnode), maxiter=2)
    assert not res.converged
    with pytest.raises(SolverError, match="did not converge"):
        conjugate_gradient(
            k,
            np.random.default_rng(0).standard_normal(mesh.nnode),
            maxiter=2,
            raise_on_fail=True,
        )


def test_cg_detects_indefinite():
    a = sp.diags([1.0, -1.0, 2.0])
    with pytest.raises(SolverError, match="curvature"):
        conjugate_gradient(a, np.array([1.0, 1.0, 1.0]), raise_on_fail=True)


def test_cg_accepts_callable_operator():
    a = _spd(20, seed=3)
    res = conjugate_gradient(lambda v: a @ v, np.ones(20), tol=1e-10)
    assert res.converged


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 200), n=st.integers(5, 30))
def test_cg_property_random_spd(seed, n):
    a = _spd(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    res = conjugate_gradient(a, a @ x, tol=1e-11, maxiter=10 * n)
    assert res.converged
    assert np.allclose(res.x, x, atol=1e-6)


# -- block CG: every column is the one-column call, to the byte ----------------

_BOXES = {}


def _box(n):
    """Pure-Neumann box Laplacian with the pressure path's own preconditioner."""
    if n not in _BOXES:
        from repro.physics.pressure import PressureSolver

        ps = PressureSolver(box_tet_mesh(n, n, n))
        rng = np.random.default_rng(n)
        basis = rng.standard_normal((ps.laplacian.shape[0], 2))
        basis -= basis.mean(axis=0)
        linear = ps.mesh.coords[:, 0] - 2.0 * ps.mesh.coords[:, 2]
        _BOXES[n] = ps.laplacian, ps._preconditioner(), (*basis.T, linear), {}
    return _BOXES[n]


def _column(n, shape, scale, warm):
    """One right-hand side and warm start.  ``rough`` is white noise,
    ``smooth`` the image of a linear field, ``zero`` all zeros; a warm start
    near the solution of a smooth column needs fewer iterations, so the
    columns of one block leave the loop at different iterations."""
    a, _, (rough, far, linear), _ = _box(n)
    rhs = {"rough": rough, "smooth": a @ linear, "zero": 0.0 * rough}[shape] * scale
    guess = {
        "cold": 0.0 * rough,
        "near": linear * scale * (1.0 + 1e-4),
        "far": far,
    }[warm]
    return rhs, guess


_COLUMN = st.tuples(
    st.sampled_from(["rough", "smooth", "zero"]),
    st.sampled_from([1e-3, 1.0, 250.0]),
    st.sampled_from(["cold", "near", "far"]),
)


def _same(got, want):
    return (
        got.x.tobytes() == want.x.tobytes()
        and got.iterations == want.iterations
        and got.converged == want.converged
        and got.residual_history == want.residual_history
    )


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([6, 10]),
    amg=st.booleans(),
    columns=st.lists(_COLUMN, min_size=1, max_size=8),
)
@example(
    n=6,
    amg=True,
    columns=[
        ("smooth", 1.0, "near"),
        ("zero", 1.0, "cold"),
        ("smooth", 1e-3, "far"),
        ("rough", 250.0, "cold"),
        ("smooth", 1.0, "near"),
    ],
)
def test_block_cg_columns_equal_one_column_calls(n, amg, columns):
    """Any block size, column order and mix of iteration counts: column
    ``s`` of the block result is the one-column call, byte for byte."""
    a, precond, _, solo = _box(n)
    kwargs = dict(tol=1e-9, maxiter=400, preconditioner=precond if amg else None)
    rhs, guess = (np.stack(v, axis=1) for v in zip(*(_column(n, *c) for c in columns)))
    block = conjugate_gradient(a, rhs, x0=guess, **kwargs)
    assert len(block) == len(columns)
    for s, spec in enumerate(columns):
        if (amg, spec) not in solo:
            solo[amg, spec] = conjugate_gradient(
                a, rhs[:, [s]], x0=guess[:, [s]], **kwargs
            )[0]
            vector = conjugate_gradient(a, rhs[:, s], x0=guess[:, s], **kwargs)
            assert _same(vector, solo[amg, spec])  # a vector is that block
        assert _same(block[s], solo[amg, spec]), (s, spec)
        assert block[s].converged
        if spec[0] == "zero":
            assert block[s].iterations == 0 and not block[s].x.any()
    if {("smooth", "near"), ("smooth", "far")} <= {c[0::2] for c in columns}:
        # the columns really left the shared loop at different iterations
        assert len({r.iterations for r in block}) > 1


def test_cg_nan_column_breaks_down_at_once_and_alone(monkeypatch):
    """``pap <= 0`` is false for NaN: a NaN right-hand side used to run all
    ``maxiter`` iterations (and the pressure ladder 500 + 500 + 2,000
    V-cycles).  It leaves the block before its first product and the
    healthy columns' bytes do not know it was there."""
    a, precond, fields, _ = _box(6)
    basis = np.stack(fields[:2], axis=1)
    kwargs = dict(tol=1e-9, maxiter=500, preconditioner=precond)
    healthy = conjugate_gradient(a, basis, **kwargs)
    block = conjugate_gradient(
        a, np.insert(basis, 1, np.nan, axis=1), **kwargs
    )
    assert not block[1].converged and block[1].iterations <= 1
    assert all(_same(block[s], healthy[k]) for s, k in ((0, 0), (2, 1)))
    # the vector case, and a NaN that appears mid-solve (in the operator)
    calls = []

    def poisoned(p):
        calls.append(1)
        return a @ p * (np.nan if len(calls) > 3 else 1.0)

    assert conjugate_gradient(a, np.full(a.shape[0], np.nan)).iterations == 0
    res = conjugate_gradient(poisoned, basis[:, 0], **kwargs)
    assert not res.converged and res.iterations == 3 and len(calls) == 4
    with pytest.raises(SolverError, match="breakdown"):
        conjugate_gradient(a, np.full(a.shape[0], np.nan), raise_on_fail=True)
    # ... and the whole pressure ladder gives up within three V-cycles
    from repro.physics.pressure import PressureSolver

    cycles, vcycle = [], SmoothedAggregationAMG.vcycle
    monkeypatch.setattr(
        SmoothedAggregationAMG, "vcycle", lambda self, b: cycles.append(1) or vcycle(self, b)
    )
    mesh = box_tet_mesh(6, 6, 6)
    with pytest.raises(SolverError, match="ladder exhausted"):
        PressureSolver(mesh).solve(np.full((mesh.nnode, 3), np.nan), 1.0, 0.01)
    assert len(cycles) <= 3


# -- the C form of the V-cycle and of the level-0 product: scipy's bits, or not served --


@pytest.fixture(scope="module")
def solver_so(cc):
    """The solver's shared object, built once: a hierarchy made afterwards
    loads it at construction and adopts (or rejects) it on its first V-cycle."""
    from repro.core import native
    from repro.solvers.native import SOURCE, SYMBOLS

    proc = native.build(SOURCE)
    assert proc is not None and proc.wait() == 0
    assert native.load(SOURCE, SYMBOLS) is not None


def _count(name):
    snap = get_registry().snapshot().get(name)
    return 0 if snap is None else snap["value"]


def _wild(rng, values, rate):
    """``values`` with inf / -inf / NaN at about ``rate`` of its entries."""
    hit = rng.random(values.shape) < rate
    values[hit] = rng.choice([np.inf, -np.inf, np.nan], int(hit.sum()))
    return values


def _random_csr(rng, nrows, ncols, wild):
    """Rows of 0 .. 70 entries in no order and with duplicates, one in five
    of them empty."""
    lens = rng.integers(0, 71, nrows) * (rng.random(nrows) > 0.2)
    indptr = np.concatenate([[0], np.cumsum(lens)])
    data = _wild(rng, rng.standard_normal(indptr[-1]), 0.002 * wild)
    cols = rng.integers(0, ncols, indptr[-1])
    return sp.csr_matrix((data, cols, indptr), shape=(nrows, ncols))


def _random_hierarchy(rng, sizes, sweeps, wild):
    """Unrelated random ``A``, ``P``, ``R`` (rectangular, ``R`` no transpose
    of ``P``) and coarse inverse in a hierarchy's clothes: the cycle is a
    formula, and both forms must evaluate it alike on anything."""
    amg = SmoothedAggregationAMG(
        sp.identity(2, format="csr"), presmooth=sweeps[0], postsmooth=sweeps[1]
    )
    amg.levels = [
        AmgLevel(
            _random_csr(rng, n, n, wild),
            _random_csr(rng, n, nc, wild) if nc else None,
            rng.standard_normal(n),
            _random_csr(rng, nc, n, wild) if nc else None,
        )
        for n, nc in zip(sizes, sizes[1:] + [0])
    ]
    amg._coarse_pinv = rng.standard_normal((sizes[-1], sizes[-1]))
    amg.native = NativeCycle(amg)
    return amg


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    sizes=st.lists(st.integers(1, 45), min_size=2, max_size=4),
    k=st.integers(1, 17),
    sweeps=st.sampled_from([(1, 1), (0, 2), (2, 0), (3, 3)]),
    wild=st.booleans(),
    n=st.integers(1, 300) | st.sampled_from([1023, 1024, 1331, 4913, 15625, 35937]),
)
@example(seed=0, sizes=[43, 13, 5], k=1, sweeps=(1, 1), wild=True, n=7)
@example(seed=1, sizes=[43, 13, 5], k=17, sweeps=(3, 3), wild=True, n=35937)
@example(seed=2, sizes=[9, 2], k=16, sweeps=(1, 1), wild=False, n=129)
def test_c_form_equals_scipy_form_to_the_byte(solver_so, seed, sizes, k, sweeps, wild, n):
    """Rows as lanes (``k = 1``) and columns as lanes (every panel and
    remainder width), ``n % 8 != 0``, empty rows, non-finite entries and
    inputs: V-cycle and product are scipy's, NaNs by mask; and on ``(n, k)``
    blocks of any height (``n < 8``, ``n % 128 != 0``, the pairwise splits)
    with ``inf`` / ``NaN`` / ``-0.0`` entries every export of CG's vector
    phase is the numpy expression it replaces."""
    rng = np.random.default_rng(seed)
    amg = _random_hierarchy(rng, sizes, sweeps, wild)
    native = amg.native
    assert native.state == "loaded"
    b = _wild(rng, rng.standard_normal((sizes[0], k)), 0.01 * wild)
    want = _bits(amg._cycle(0, b))
    # the first cycle checks this block and its other lane mapping, then serves
    assert _bits(amg.vcycle(b)) == want and native.state == "adopted"
    assert _bits(native._c_cycle(b)) == want
    for level, words in zip(amg.levels, native._table):  # a row: the level's A, P, R
        for j, m in enumerate((level.a, level.prolongator, level.restriction)):
            if m is not None:
                x = _wild(rng, rng.standard_normal((m.shape[1], k)), 0.01 * wild)
                out = np.empty((m.shape[0], k))
                native._fns["product"](
                    words[7 * j :].ctypes.data, k, x.ctypes.data, out.ctypes.data
                )
                assert _bits(out) == _bits(m @ x)
    assert _bits(native(b)) == _bits(amg.levels[0].a @ b)
    assert native.vector_phase == "native"
    u, v = (_wild(rng, rng.standard_normal((n, k)), 0.01 * wild) for _ in range(2))
    u[rng.random(u.shape) < 0.05] = -0.0
    alpha, numpy = rng.standard_normal(k), VectorPhase()
    assert native._serves(u, v, columns=alpha) == (k > 1)  # a vector stays on numpy
    x, r, p, y, s, d = v.copy(), u.copy(), u.copy(), v.copy(), u.copy(), u.copy()
    got = [native._run("dots", u, v, np.empty(k)), native._run("dots", u, u, np.empty(k)),
           native._run("project", u, np.empty_like(u)), native._run("project", -np.abs(v), 0 * v),
           native._run("step", u, v, alpha, x, r, np.empty(k)), x, r,
           native._run("direction", v, alpha, p)]
    want = [numpy.dots(u, v), numpy.dots(u, u), numpy.project(u), numpy.project(-np.abs(v)),
            numpy.step(alpha, u, v, y, s), y, s, numpy.direction(v, alpha, d)]
    assert [_bits(g) for g in got] == [_bits(w) for w in want]
    if k > 1:  # ... and the methods CG calls are those exports
        assert _bits(native.dots(u, v)) == _bits(want[0])
        assert _bits(native.step(alpha, u, v, v.copy(), u.copy())) == _bits(want[4])


def test_block_cg_on_the_c_vector_phase_is_the_numpy_solve_to_the_byte(solver_so, monkeypatch):
    """The operator CG iterates on decides the phase: a hierarchy's adopted
    form (C cycle, product and vector phase) against one that serves scipy and
    numpy for good; blocks and single columns, histories included."""
    from repro.physics.pressure import PressureSolver

    ps, ref = (PressureSolver(box_tet_mesh(7, 7, 7)) for _ in range(2))
    native, ref._amg.native.state = ps._amg.native, "rejected"
    rng = np.random.default_rng(7)
    rhs = ps._project_constant(rng.standard_normal((ps.laplacian.shape[0], 5)))
    rhs[:, 3] *= 1e-3
    kwargs = dict(tol=1e-9, maxiter=200)
    want = conjugate_gradient(ref.laplacian, rhs, preconditioner=ref._preconditioner(), **kwargs)
    assert ref._amg.native.vector_phase == "numpy"
    kwargs["preconditioner"] = ps._preconditioner()
    first = conjugate_gradient(native, rhs, **kwargs)  # its first cycle adopts
    assert native.state == "adopted" and native.vector_phase == "native"
    calls, run = [], NativeCycle._run
    monkeypatch.setattr(
        NativeCycle, "_run", lambda self, name, *a: calls.append(name) or run(self, name, *a)
    )
    got = conjugate_gradient(native, rhs, **kwargs)
    assert {"dots", "step", "direction", "project"} <= set(calls)
    assert all(_same(g, w) and _same(f, w) and g.converged for g, f, w in zip(got, first, want))
    assert len({r.iterations for r in got}) > 1  # columns left the loop apart
    assert _same(conjugate_gradient(native, rhs[:, 3], **kwargs), want[3])


def test_a_vector_phase_one_ulp_off_is_rejected_alone_and_numpy_serves(
        solver_so, monkeypatch, telemetry):
    from repro.physics.pressure import PressureSolver

    run = NativeCycle._run

    def off_by_an_ulp(self, name, *arrays):
        out = run(self, name, *arrays)
        return np.nextafter(out, np.inf) if name == "dots" else out

    monkeypatch.setattr(NativeCycle, "_run", off_by_an_ulp)
    mesh, (tracer, _) = box_tet_mesh(6, 6, 6), telemetry
    honest = PressureSolver(box_tet_mesh(6, 6, 6), use_amg=True)
    ps = PressureSolver(mesh)
    rejected = _count("solvers.vector_phase_rejected")
    u = 0.1 * np.random.default_rng(0).standard_normal((3, mesh.nnode, 3))
    got = ps.solve(u, np.ones(3), 0.05)
    assert ps._amg.native.state == "adopted" and ps._amg.native.vector_phase == "numpy"
    assert _count("solvers.vector_phase_rejected") == rejected + 1
    span = [s for s in tracer.finished if s.name == "cg_solve"][-1]
    assert span.attributes["native"] == "adopted" and span.attributes["vector_phase"] == "numpy"
    monkeypatch.setattr(NativeCycle, "_run", None)  # never reached again
    again = ps.solve(u, np.ones(3), 0.05)
    monkeypatch.undo()
    want = honest.solve(u, np.ones(3), 0.05)
    assert honest._amg.native.vector_phase == "native"
    assert all(_same(g, w) and _same(a, w) for g, a, w in zip(got, again, want))


def _triple(rng, nrows, ncols, shared, wild):
    """Three CSR operators, one per axis: their own patterns, or one pattern
    whose index arrays all three hold (the elemental derivatives' case)."""
    ops = [_random_csr(rng, nrows, ncols, wild) for _ in range(3)]
    if shared:
        ops[1:] = [sp.csr_matrix((_wild(rng, rng.standard_normal(ops[0].nnz), 0.002 * wild),
                                  ops[0].indices, ops[0].indptr), shape=ops[0].shape)
                   for _ in range(2)]
    return tuple(ops)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:divide by zero")
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.tuples(st.integers(1, 60), st.integers(1, 60)),
    k=st.integers(1, 17),
    shared=st.booleans(),
    divided=st.booleans(),
    wild=st.booleans(),
)
@example(seed=0, shape=(43, 13), k=1, shared=False, divided=False, wild=True)
@example(seed=1, shape=(7, 45), k=17, shared=True, divided=True, wild=True)
def test_the_derivative_pass_equals_the_numpy_form_to_the_byte(
    solver_so, seed, shape, k, shared, divided, wild
):
    """``axes`` -- the sum over three axes, or the three products over a
    mass -- in one C pass: every ``k`` (a vector read in place through the
    strides of an ``(n, 3)`` field), both pattern cases, non-finite entries,
    inputs and masses, duplicates and empty rows: the numpy form's bits, on
    the call that checks it and on the ones it then serves."""
    rng = np.random.default_rng(seed)
    amg = _random_hierarchy(rng, [9, 2], (1, 1), False)
    amg.vcycle(rng.standard_normal((9, 2)))
    native, numpy = amg.native, VectorPhase()
    assert native.state == "adopted"
    ops = _triple(rng, *shape, shared, wild)
    assert shared == (ops[2].indices.ctypes.data == ops[0].indices.ctypes.data)
    if divided:
        x = _wild(rng, rng.standard_normal((shape[1], max(k, 2))), 0.01 * wild)
        x = x[:, 0] if k == 1 else x[:, :k].copy()  # a vector: a strided column
        mass = _wild(rng, rng.random(shape[0]), 0.05 * wild)
        mass[rng.random(shape[0]) < 0.05] = 0.0
    else:
        mass = None
        u = _wild(rng, rng.standard_normal((k, shape[1], 3)), 0.01 * wild)
        x = u[0].T if k == 1 else np.ascontiguousarray(u.T)  # (3, n) strided, (3, n, k)
    want = _bits(numpy.axes(ops, x, mass))
    for _ in range(2):  # the checked call, then a served one
        assert _bits(native.axes(ops, x, mass)) == want
    assert native.state == "adopted" and (id(ops), mass is None) in native._families


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_the_steps_own_block_products_are_scipys_or_reject_the_form(solver_so):
    """Divergence, gradient and max-divergence are one C pass off the plan's
    own derivative arrays once the hierarchy is adopted, every ``k``, both
    families, each (triple, form) checked on its first call; a layout the
    pass cannot read is the numpy form's, and a first call that differs
    rejects the hierarchy's form for good."""
    mesh = box_tet_mesh(5, 5, 5)
    plan, rng = get_plan(mesh), np.random.default_rng(3)
    amg = SmoothedAggregationAMG(assemble_laplacian(mesh))
    native, derivatives, numpy = amg.native, plan.p1_derivatives(), VectorPhase()
    mass = plan.lumped_mass()
    u = rng.standard_normal((16, mesh.nnode, 3))
    assert native.axes(derivatives.nodal, u.T).tobytes() == numpy.axes(
        derivatives.nodal, u.T).tobytes() and not native._families  # not adopted yet
    amg.vcycle(u[0])
    assert native.state == "adopted"
    # each family shares one set of index arrays: walked once
    assert all(len({m.indices.ctypes.data for m in ops}) == 1
               for ops in (derivatives.elemental, derivatives.nodal))
    for ops in (derivatives.nodal, derivatives.elemental):
        for k in (1, 2, 16, 17):
            x = _wild(rng, rng.standard_normal((k, mesh.nnode, 3)), 0.01)
            x = x[0].T if k == 1 else np.ascontiguousarray(x.T)
            assert _bits(native.axes(ops, x)) == _bits(numpy.axes(ops, x))
            p = _wild(rng, rng.standard_normal((mesh.nnode, k)), 0.01)[:, 0 if k == 1 else slice(None)]
            if ops is derivatives.nodal:
                assert _bits(native.axes(ops, p, mass)) == _bits(numpy.axes(ops, p, mass))
        odd = np.asfortranarray(rng.standard_normal((3, mesh.nnode, 4)))  # columns not lanes
        assert np.array_equal(native.axes(ops, odd), numpy.axes(ops, odd))
    assert len(native._families) == 3 and native.state == "adopted"
    # a new triple whose first call comes back wrong rejects the form
    wrong, rejected = tuple(m.copy() for m in derivatives.nodal), _count("solvers.native_rejected")
    fn = native._fns["axes"]

    def one_off(words, k, x, xa, xj, y, d):  # the pass, then its first entry one off
        fn(words, k, x, xa, xj, y, d)
        ctypes.c_double.from_address(y).value += 1.0

    native._fns = dict(native._fns, axes=one_off)
    x = rng.standard_normal((3, mesh.nnode, 2))
    assert native.axes(wrong, x).tobytes() == numpy.axes(wrong, x).tobytes()
    assert native.state == "rejected" and _count("solvers.native_rejected") == rejected + 1
    native._fns = None  # never reached again
    assert native.axes(derivatives.nodal, x).tobytes() == numpy.axes(derivatives.nodal, x).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_scalar_lane_loop_of_a_host_without_avx512_is_scipys_too(cc, monkeypatch):
    """The ``#else`` branch of the rows-as-lanes loop, which this host's
    ``-march=native`` may never compile: same source, macro undefined."""
    from repro.core import native
    from repro.solvers import native as solver_native

    source = "#undef __AVX512VL__\n" + solver_native.SOURCE
    monkeypatch.setattr(solver_native, "SOURCE", source)
    assert native.build(source).wait() == 0
    for seed, sizes in enumerate(([43, 13, 5], [8, 3], [70, 1], [17, 16, 9, 2])):
        rng = np.random.default_rng(seed)
        amg = _random_hierarchy(rng, sizes, (1, 1), wild=seed % 2 == 0)
        b = _wild(rng, rng.standard_normal((sizes[0], 1)), 0.01)
        want = _bits(amg._cycle(0, b))
        assert _bits(amg.vcycle(b)) == want and amg.native.state == "adopted"
        assert _bits(amg.native(b)) == _bits(amg.levels[0].a @ b)


def test_c_form_serves_plain_float64_blocks_only_and_says_so(solver_so, monkeypatch, telemetry):
    from repro.physics.pressure import PressureSolver

    mesh, (tracer, _) = box_tet_mesh(6, 6, 6), telemetry
    ps = PressureSolver(mesh)
    amg, adopted = ps._amg, _count("solvers.native_adopted")
    u = 0.1 * np.random.default_rng(0).standard_normal((mesh.nnode, 3))
    assert ps.solve(u, 1.0, 0.05).converged
    assert amg.native.state == "adopted" and _count("solvers.native_adopted") == adopted + 1
    span = [s for s in tracer.finished if s.name == "cg_solve"][-1]
    assert span.attributes["native"] == "adopted"
    assert span.attributes["level_nnz"] == [level.a.nnz for level in amg.levels]

    def never(*args):
        raise AssertionError("the C form was handed an array it cannot read")

    monkeypatch.setattr(NativeCycle, "_c_cycle", never)
    monkeypatch.setattr(NativeCycle, "_c_product", never)
    block = np.random.default_rng(1).standard_normal((mesh.nnode, 6))
    for odd in (np.asfortranarray(block), block[:, ::2], block.astype(np.float32)):
        assert np.array_equal(amg.native(odd), ps.laplacian @ odd)
    for odd in (np.asfortranarray(block), block[:, ::2]):
        assert np.array_equal(amg.vcycle(odd), amg._cycle(0, odd))
    assert np.array_equal(amg.native(block[:, 0]), ps.laplacian @ block[:, 0])


def test_mismatching_c_form_is_rejected_for_good_and_scipy_serves(solver_so, monkeypatch):
    a = _box(6)[0]
    amg, rejected = SmoothedAggregationAMG(a), _count("solvers.native_rejected")
    assert amg.native.state == "loaded"
    cycle = NativeCycle._c_cycle
    monkeypatch.setattr(  # one ulp off in one entry
        NativeCycle, "_c_cycle", lambda self, b: np.nextafter(cycle(self, b), np.inf)
    )
    b = np.random.default_rng(2).standard_normal((a.shape[0], 3))
    assert amg.vcycle(b).tobytes() == amg._cycle(0, b).tobytes()
    assert amg.native.state == "rejected"
    assert _count("solvers.native_rejected") == rejected + 1
    monkeypatch.undo()
    monkeypatch.setattr(NativeCycle, "_c_product", None)  # never reached again
    assert amg.vcycle(b).tobytes() == amg._cycle(0, b).tobytes()
    assert amg.native(b).tobytes() == (a @ b).tobytes()
    assert amg.native.state == "rejected" and _count("solvers.native_rejected") == rejected + 1


def test_one_hierarchy_serves_concurrent_cycles_and_campaigns(solver_so):
    """The hierarchy is shared through the plan and ctypes drops the GIL:
    level scratch belongs to the call.  Four threads (two cores), mixed
    block widths, one hierarchy adopted *during* the race; then two
    campaigns at once on one mesh."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from repro.physics import AssemblyParams
    from repro.physics.fractional_step import BatchCampaign

    a = _box(10)[0]
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((a.shape[0], k)) for k in (1, 3, 8, 17)]
    reference = SmoothedAggregationAMG(a)
    serial = [reference._cycle(0, b).tobytes() for b in blocks]
    shared = SmoothedAggregationAMG(a)
    mesh = box_tet_mesh(5, 5, 5)
    u0 = 0.1 * rng.standard_normal((mesh.nnode, 3))

    def cycles(i):  # every width from every thread: same-width calls overlap
        return [shared.vcycle(blocks[(i + j) % 4]).tobytes() for j in range(60)]

    def campaign(nscen):
        params = [AssemblyParams(body_force=(0.0, 0.0, 1e-3 * s)) for s in range(nscen)]
        c = BatchCampaign(mesh, params, variant="RSP", mode="compiled")
        c.set_velocities(u0)
        c.run(2, dt=1e-3)
        return c.velocities().tobytes()

    alone = [campaign(2), campaign(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = [f.result(timeout=120) for f in [pool.submit(cycles, i) for i in range(4)]]
            together = [
                f.result(timeout=120) for f in [pool.submit(campaign, n) for n in (2, 3)]
            ]
    finally:
        sys.setswitchinterval(interval)
    assert shared.native.state == "adopted"
    assert all(out == [serial[(i + j) % 4] for j in range(60)] for i, out in enumerate(got))
    assert together == alone
    assert get_plan(mesh).cached_operator("amg").native.state == "adopted"


# -- AMG -----------------------------------------------------------------------


def test_amg_hierarchy_shrinks(poisson):
    amg = SmoothedAggregationAMG(poisson)
    sizes = [l.a.shape[0] for l in amg.levels]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]
    assert amg.num_levels >= 2
    assert 1.0 <= amg.operator_complexity() < 3.0


def test_amg_vcycle_reduces_residual(poisson):
    amg = SmoothedAggregationAMG(poisson)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(poisson.shape[0])
    b -= b.mean()  # consistent for Neumann
    x = amg.vcycle(b)
    r0 = np.linalg.norm(b)
    r1 = np.linalg.norm(b - poisson @ x)
    assert r1 < r0


def test_amg_stationary_solve(poisson):
    rng = np.random.default_rng(7)
    p = rng.standard_normal(poisson.shape[0])
    p -= p.mean()
    res = SmoothedAggregationAMG(poisson).solve(
        poisson @ p, tol=1e-8, maxiter=60
    )
    assert res.converged
    err = res.x - res.x.mean() - p
    assert np.abs(err).max() < 1e-5


def test_amg_preconditioned_cg_fast(poisson):
    rng = np.random.default_rng(8)
    p = rng.standard_normal(poisson.shape[0])
    p -= p.mean()
    b = poisson @ p
    amg = SmoothedAggregationAMG(poisson)
    res = conjugate_gradient(
        poisson, b, tol=1e-10, maxiter=100,
        preconditioner=amg.vcycle,
    )
    plain = conjugate_gradient(poisson, b, tol=1e-10, maxiter=1000)
    assert res.converged
    assert res.iterations < plain.iterations / 2


def test_amg_small_matrix_direct():
    a = _spd(8, seed=9)
    amg = SmoothedAggregationAMG(a, coarse_size=64)
    assert amg.num_levels == 1  # goes straight to the dense solve
    x = amg.vcycle(np.ones(8))
    assert np.allclose(a @ x, np.ones(8), atol=1e-8)


@pytest.fixture(scope="module")
def poisson12():
    """A mesh big enough for three levels; the 5^3 ``poisson`` has two."""
    return assemble_laplacian(box_tet_mesh(12, 12, 12))


@pytest.mark.parametrize("n", [12, 24])
def test_amg_hierarchy_on_real_mesh(poisson12, n):
    """At 24^3 an undecayed threshold stalls level 1 and level 2 fills in to
    2.5x the fine operator; 12^3 is too small to show it.  Without its
    rounding residue (12^3: 28,765 -> 14,365 level-0 nonzeros) the Laplacian
    costs no cold-solve iteration against the unfiltered product's hierarchy."""
    mesh = box_tet_mesh(n, n, n)
    a = poisson12 if n == 12 else assemble_laplacian(mesh)
    amg = SmoothedAggregationAMG(a)
    nnz = [l.a.nnz for l in amg.levels]
    assert n != 12 or nnz[0] == 14365
    assert amg.num_levels >= 3
    assert nnz == sorted(nnz, reverse=True)  # no level fills in past its parent
    assert amg.operator_complexity() <= 2.0
    rng = np.random.default_rng(10)
    b = rng.standard_normal(a.shape[0])
    b -= b.mean()

    def iterations(a, amg):
        def precond(r):  # V-cycle, then project out the Neumann nullspace
            z = amg.vcycle(r)
            return z - z.mean()

        res = conjugate_gradient(a, b, tol=1e-8, maxiter=100, preconditioner=precond)
        assert res.converged and res.iterations <= 25
        return res.iterations

    raw = unfiltered_laplacian(mesh)
    assert iterations(a, amg) == iterations(raw, SmoothedAggregationAMG(raw))


def test_amg_vcycle_is_symmetric(poisson12):
    """CG needs a symmetric preconditioner: ``x . M^-1 y == y . M^-1 x``."""
    amg = SmoothedAggregationAMG(poisson12)
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((2, poisson12.shape[0]))
    x -= x.mean()
    y -= y.mean()
    xy, yx = x @ amg.vcycle(y), y @ amg.vcycle(x)
    assert abs(xy - yx) <= 1e-10 * max(abs(xy), abs(yx))


def _textbook_cycle(amg, k, b):
    """The V-cycle as written in the books: zero guess, explicit residuals,
    restriction by ``P.T``."""
    level = amg.levels[k]
    if level.prolongator is None:
        return amg._coarse_pinv @ b
    x = np.zeros_like(b)
    for _ in range(amg.presmooth):
        x = x + amg.omega * level.diag_inv * (b - level.a @ x)
    coarse = _textbook_cycle(amg, k + 1, level.prolongator.T @ (b - level.a @ x))
    x = x + level.prolongator @ coarse
    for _ in range(amg.postsmooth):
        x = x + amg.omega * level.diag_inv * (b - level.a @ x)
    return x


@pytest.mark.parametrize("sweeps", [(1, 1), (3, 3), (0, 2)])
def test_amg_vcycle_equals_textbook_cycle(poisson12, sweeps):
    amg = SmoothedAggregationAMG(
        poisson12, presmooth=sweeps[0], postsmooth=sweeps[1]
    )
    rng = np.random.default_rng(12)
    b = rng.standard_normal(poisson12.shape[0])
    b -= b.mean()
    ref = _textbook_cycle(amg, 0, b)
    assert np.allclose(
        amg.vcycle(b), ref, rtol=0.0, atol=1e-13 * np.abs(ref).max()
    )


# -- deflation --------------------------------------------------------------------


def test_partition_coarse_space_shape():
    w = partition_coarse_space(np.array([0, 0, 1, 1, 2]))
    assert w.shape == (5, 3)
    assert np.allclose(np.asarray(w.sum(axis=1)).ravel(), 1.0)


def test_deflated_cg_matches_plain(poisson):
    mesh_n = poisson.shape[0]
    rng = np.random.default_rng(10)
    p = rng.standard_normal(mesh_n)
    p -= p.mean()
    b = poisson @ p
    labels = (np.arange(mesh_n) * 4) // mesh_n
    res = deflated_cg(poisson, b, partition_coarse_space(labels), tol=1e-10)
    assert res.converged
    err = res.x - res.x.mean() - p
    assert np.abs(err).max() < 1e-6


def test_deflation_removes_coarse_modes(poisson):
    """Residual orthogonal to the coarse space throughout the solve."""
    n = poisson.shape[0]
    labels = (np.arange(n) * 8) // n
    w = partition_coarse_space(labels)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(n)
    b -= b.mean()
    res = deflated_cg(poisson, b, w, tol=1e-9)
    r = b - poisson @ res.x
    assert np.abs(w.T @ r).max() < 1e-6
