"""Dense-vs-sparse solver backend equivalence.

The sparse backend must be a drop-in replacement: identical assembled
matrices (pinned bitwise by a hypothesis sweep over random RC ladders)
and solutions agreeing to rtol <= 1e-9 for every analysis on every
circuit family in the repo. Both backends' stamp plans must assemble
bit-for-bit what the per-element ``M[row, col] += value`` loop of an
in-test reference assembles. Also pins the dense AC chunking (the OOM
bugfix) and the auto-switch policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.ladder import build_amplifier_chain, build_ladder_circuit
from repro.circuits.opamp import build_opamp_circuit
from repro.circuits.power_amplifier import build_pa_circuit
from repro.spice import (
    MOSFET,
    SPARSE_AUTO_THRESHOLD,
    VCCS,
    VCVS,
    Capacitor,
    Circuit,
    CurrentSource,
    DenseBackend,
    ConvergenceError,
    Diode,
    Element,
    Inductor,
    Resistor,
    SparseBackend,
    StampContext,
    VoltageSource,
    resolve_backend,
    simulate_transient,
    solve_ac,
    solve_dc,
)
from repro.spice import backend as backend_module
from repro.spice.elements import padded


def _rlc_filter():
    c = Circuit("rlc")
    c.add(VoltageSource("V1", "in", "0", dc=1.0, ac=1.0))
    c.add(Resistor("R1", "in", "a", 50.0))
    c.add(Inductor("L1", "a", "out", 1e-3))
    c.add(Capacitor("C1", "out", "0", 1e-9))
    c.add(Resistor("RL", "out", "0", 1e6))
    return c


def _kitchen_sink():
    """Every element type in one solvable netlist."""
    c = Circuit("kitchen-sink")
    c.add(VoltageSource("V1", "in", "0", dc=2.0, ac=1.0))
    c.add(Resistor("R1", "in", "a", 1e3))
    c.add(Diode("D1", "a", "b"))
    c.add(Resistor("R2", "b", "0", 2e3))
    c.add(CurrentSource("I1", "0", "a", dc=1e-4, ac=0.5))
    c.add(VCVS("E1", "c", "0", "a", "b", 3.0))
    c.add(Resistor("R3", "c", "d", 5e2))
    c.add(Capacitor("C1", "d", "0", 1e-8))
    c.add(VCCS("G1", "d", "0", "in", "a", 1e-3))
    c.add(Inductor("L1", "b", "e", 1e-4))
    c.add(Resistor("R4", "e", "0", 1e3))
    return c


def _opamp():
    return build_opamp_circuit(20e-6, 10e-6, 100e-6, 100e3, 2e-12)


def _pa():
    return build_pa_circuit(250e-12, 640e-12, 500e-6, 2.5, 1.5)


CIRCUITS = {
    "rlc": _rlc_filter,
    "kitchen-sink": _kitchen_sink,
    "opamp": _opamp,
    "pa": _pa,
    "ladder-50": lambda: build_ladder_circuit(50),
    "amp-chain-40": lambda: build_amplifier_chain(40),
}


@pytest.mark.parametrize("build", CIRCUITS.values(), ids=CIRCUITS.keys())
class TestDenseSparseEquivalence:
    def test_dc_operating_point(self, build):
        dense = solve_dc(build(), backend="dense")
        sparse = solve_dc(build(), backend="sparse")
        np.testing.assert_allclose(sparse.x, dense.x, rtol=1e-9, atol=1e-12)

    def test_ac_sweep(self, build):
        x_op = solve_dc(build(), backend="dense").x
        dense = solve_ac(build(), 1e2, 1e9, n_points=40, x_op=x_op, backend="dense")
        sparse = solve_ac(build(), 1e2, 1e9, n_points=40, x_op=x_op, backend="sparse")
        # circuits without AC excitation respond identically zero
        scale = np.maximum(np.max(np.abs(dense.x), axis=1, keepdims=True), 1e-30)
        np.testing.assert_allclose(
            sparse.x / scale, dense.x / scale, rtol=1e-9, atol=1e-9
        )


@pytest.mark.parametrize(
    "build",
    [_rlc_filter, _kitchen_sink, _pa],
    ids=["rlc", "kitchen-sink", "pa"],
)
def test_transient_equivalence(build):
    dense = simulate_transient(build(), t_stop=2e-6, dt=2e-9, backend="dense")
    sparse = simulate_transient(build(), t_stop=2e-6, dt=2e-9, backend="sparse")
    scale = np.max(np.abs(dense.states))
    np.testing.assert_allclose(
        sparse.states / scale, dense.states / scale, rtol=1e-9, atol=1e-9
    )


def test_sparse_backend_reuses_lu_on_linear_transient(monkeypatch):
    """A linear circuit refactorizes once per integration method."""
    circuit = _rlc_filter()
    solver = SparseBackend(circuit)
    calls = []
    original = SparseBackend._factorize

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(SparseBackend, "_factorize", staticmethod(counting))
    simulate_transient(circuit, t_stop=1e-6, dt=2e-9, backend=solver)
    # one factorization for the DC operating point, one for the first
    # backward-Euler step, one for the trapezoidal steps
    assert len(calls) == 3


# ----------------------------------------------------------------------
# hypothesis: random RC ladders stamp identical matrices
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    n_sections=st.integers(min_value=1, max_value=25),
    log_r=st.lists(st.floats(min_value=-1.0, max_value=4.0), min_size=1, max_size=25),
    log_c=st.lists(st.floats(min_value=-15.0, max_value=-9.0), min_size=1, max_size=25),
)
def test_random_ladders_stamp_identical_matrices(n_sections, log_r, log_c):
    circuit = Circuit("random-ladder")
    circuit.add(VoltageSource("Vin", "n0", "0", dc=1.0, ac=1.0))
    for k in range(n_sections):
        r = 10.0 ** log_r[k % len(log_r)]
        c = 10.0 ** log_c[k % len(log_c)]
        circuit.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", r))
        circuit.add(Capacitor(f"C{k}", f"n{k + 1}", "0", c))
    circuit.add(Resistor("Rterm", f"n{n_sections}", "0", 1e5))

    dense = DenseBackend(circuit)
    sparse = SparseBackend(circuit)
    x = np.linspace(-1.0, 1.0, circuit.size)

    # transient Newton system (exercises the companion models)
    ctx = StampContext(
        mode="tran", dt=1e-9, method="trap", x_prev=np.zeros(circuit.size)
    )
    jac_dense, res_dense = dense.assemble(x, ctx)
    data, res_sparse = sparse.assemble(x, ctx)
    jac_sparse = sparse._matrix(data).toarray()
    assert np.array_equal(jac_sparse, jac_dense)
    assert np.array_equal(res_sparse, res_dense)

    # AC small-signal system
    g_dense, c_dense, rhs_dense = dense.assemble_ac(x, 1e-12)
    g_data, c_data, rhs_sparse = sparse.assemble_ac(x, 1e-12)
    assert np.array_equal(sparse._matrix(g_data).toarray(), g_dense)
    assert np.array_equal(sparse._matrix(c_data).toarray(), c_dense)
    assert np.array_equal(rhs_sparse, rhs_dense)


# ----------------------------------------------------------------------
# dense AC chunking (OOM bugfix) regression
# ----------------------------------------------------------------------
def test_chunked_ac_sweep_matches_unchunked_and_analytic_peak(monkeypatch):
    """A long sweep solved in many small chunks keeps the peak shape."""
    r, l, c = 50.0, 1e-3, 1e-9
    f0 = 1.0 / (2.0 * np.pi * np.sqrt(l * c))
    q = np.sqrt(l / c) / r

    unchunked = solve_ac(_rlc_filter(), 1e4, 1e7, n_points=3001, backend="dense")
    # force chunk size 1: every frequency solved in its own batch
    monkeypatch.setattr(backend_module, "AC_CHUNK_BYTES", 1)
    chunked = solve_ac(_rlc_filter(), 1e4, 1e7, n_points=3001, backend="dense")

    assert np.array_equal(chunked.x, unchunked.x)
    magnitude = chunked.magnitude("out")
    peak = int(np.argmax(magnitude))
    assert chunked.frequencies[peak] == pytest.approx(f0, rel=2e-3)
    # RL loads the tank slightly, so allow a few percent on the Q peak
    assert magnitude[peak] == pytest.approx(q, rel=5e-2)


def test_auto_backend_switches_on_circuit_size():
    small = _rlc_filter()
    assert isinstance(resolve_backend(small, "auto"), DenseBackend)
    large = build_ladder_circuit(SPARSE_AUTO_THRESHOLD)
    assert large.size >= SPARSE_AUTO_THRESHOLD
    assert isinstance(resolve_backend(large, "auto"), SparseBackend)


def test_backend_instance_is_validated_against_circuit():
    a, b = _rlc_filter(), _rlc_filter()
    solver = DenseBackend(a)
    assert resolve_backend(a, solver) is solver
    with pytest.raises(ValueError):
        resolve_backend(b, solver)
    with pytest.raises(ValueError):
        resolve_backend(a, "cholesky")


# ----------------------------------------------------------------------
# stamp plans assemble bit-for-bit what the per-element loop assembles
# ----------------------------------------------------------------------
def _v(x, idx):
    return 0.0 if idx < 0 else float(x[idx])


def _pairwise(i, j, value):
    return [(i, i, value), (i, j, -value), (j, i, -value), (j, j, value)]


def _reference_newton(element, x, ctx):
    """One element's Newton writes, in order: ``[(row, col, v)], [(row, v)]``.

    A direct transcription of each device's equations with explicit
    ground checks, independent of the slot machinery under test.
    """
    kind = type(element)
    idx = element.node_indices
    bi = element.branch_index
    if kind is Resistor:
        g = 1.0 / element.resistance
        current = g * (_v(x, idx[0]) - _v(x, idx[1]))
        return _pairwise(*idx, g), [(idx[0], current), (idx[1], -current)]
    if kind is Capacitor:
        if ctx.mode == "dc":
            return [], []
        v_now = _v(x, idx[0]) - _v(x, idx[1])
        v_prev = _v(ctx.x_prev, idx[0]) - _v(ctx.x_prev, idx[1])
        if ctx.method == "trap":
            geq = 2.0 * element.capacitance / ctx.dt
            i_prev = ctx.states.get(element.name, 0.0)
            current = geq * (v_now - v_prev) - i_prev
        else:
            geq = element.capacitance / ctx.dt
            current = geq * (v_now - v_prev)
        return _pairwise(*idx, geq), [(idx[0], current), (idx[1], -current)]
    if kind is Inductor:
        current = float(x[bi])
        jac = [(idx[0], bi, 1.0), (idx[1], bi, -1.0), (bi, idx[0], 1.0),
               (bi, idx[1], -1.0)]
        v_now = _v(x, idx[0]) - _v(x, idx[1])
        if ctx.mode == "dc":
            branch = v_now
        else:
            i_prev = float(ctx.x_prev[bi])
            if ctx.method == "trap":
                v_prev = _v(ctx.x_prev, idx[0]) - _v(ctx.x_prev, idx[1])
                req = 2.0 * element.inductance / ctx.dt
                branch = v_now + v_prev - req * (current - i_prev)
            else:
                req = element.inductance / ctx.dt
                branch = v_now - req * (current - i_prev)
            jac.append((bi, bi, -req))
        return jac, [(idx[0], current), (idx[1], -current), (bi, branch)]
    if kind in (VoltageSource, VCVS):
        current = float(x[bi])
        branch = _v(x, idx[0]) - _v(x, idx[1])
        jac = [(idx[0], bi, 1.0), (idx[1], bi, -1.0), (bi, idx[0], 1.0),
               (bi, idx[1], -1.0)]
        if kind is VoltageSource:
            branch = branch - element.value(ctx)
        else:
            branch = branch - element.gain * (_v(x, idx[2]) - _v(x, idx[3]))
            jac += [(bi, idx[2], -element.gain), (bi, idx[3], element.gain)]
        return jac, [(idx[0], current), (idx[1], -current), (bi, branch)]
    if kind is CurrentSource:
        current = element.value(ctx)
        return [], [(idx[0], current), (idx[1], -current)]
    if kind is VCCS:
        gm = element.transconductance
        current = gm * (_v(x, idx[2]) - _v(x, idx[3]))
        jac = [(idx[0], idx[2], gm), (idx[0], idx[3], -gm),
               (idx[1], idx[2], -gm), (idx[1], idx[3], gm)]
        return jac, [(idx[0], current), (idx[1], -current)]
    if kind is Diode:
        v = _v(x, idx[0]) - _v(x, idx[1])
        current, g = element.current_and_conductance(v)
        g += ctx.gmin
        current += ctx.gmin * v
        return _pairwise(*idx, g), [(idx[0], current), (idx[1], -current)]
    if kind is MOSFET:
        d, g_idx, s = idx
        ids, gm, gds, swapped = element._evaluate(padded(np.asarray(x)))
        eff_d, eff_s = (s, d) if swapped else (d, s)
        current = (-1.0 if element.polarity == "pmos" else 1.0) * ids
        leak = ctx.gmin * (_v(x, d) - _v(x, s))
        jac = [(eff_d, g_idx, gm), (eff_d, eff_d, gds),
               (eff_d, eff_s, -(gm + gds)), (eff_s, g_idx, -gm),
               (eff_s, eff_d, -gds), (eff_s, eff_s, gm + gds)]
        jac += _pairwise(d, s, ctx.gmin)
        res = [(eff_d, current), (eff_s, -current), (d, leak), (s, -leak)]
        return jac, res
    raise AssertionError(kind)


def _reference_ac(element, x_op, gmin):
    """One element's small-signal writes: ``G``, ``C`` and ``B`` lists."""
    kind = type(element)
    idx = element.node_indices
    bi = element.branch_index
    if kind is Resistor:
        return _pairwise(*idx, 1.0 / element.resistance), [], []
    if kind is Capacitor:
        return [], _pairwise(*idx, element.capacitance), []
    if kind in (Inductor, VoltageSource, VCVS):
        g = [(idx[0], bi, 1.0), (idx[1], bi, -1.0), (bi, idx[0], 1.0),
             (bi, idx[1], -1.0)]
        if kind is Inductor:
            return g, [(bi, bi, -element.inductance)], []
        if kind is VoltageSource:
            return g, [], [(bi, element.ac_value)]
        g += [(bi, idx[2], -element.gain), (bi, idx[3], element.gain)]
        return g, [], []
    if kind is CurrentSource:
        value = element.ac_value
        return [], [], [(idx[0], -value), (idx[1], value)]
    if kind is Diode:
        v = _v(x_op, idx[0]) - _v(x_op, idx[1])
        _, g = element.current_and_conductance(v)
        return _pairwise(*idx, g + gmin), [], []
    if kind in (VCCS, MOSFET):
        jac, _ = _reference_newton(element, x_op, StampContext(gmin=gmin))
        return jac, [], []
    raise AssertionError(kind)


def _scatter(writes, shape, dtype=float):
    out = np.zeros(shape, dtype=dtype)
    for *where, value in writes:
        if min(where) >= 0:
            out[tuple(where)] += value
    return out


def _reference_assemble(circuit, x, ctx):
    jac, res = [], []
    for element in circuit.elements:
        element_jac, element_res = _reference_newton(element, x, ctx)
        jac += element_jac
        res += element_res
    n = circuit.size
    return _scatter(jac, (n, n)), _scatter(res, n)


def _reference_assemble_ac(circuit, x_op, gmin):
    g, c, b = [], [], []
    for element in circuit.elements:
        element_g, element_c, element_b = _reference_ac(element, x_op, gmin)
        g += element_g
        c += element_c
        b += element_b
    n = circuit.size
    return (
        _scatter(g, (n, n)), _scatter(c, (n, n)), _scatter(b, n, complex)
    )


def _every_element():
    """Every element class, both MOSFET polarities, a self-loop resistor."""
    c = _kitchen_sink()
    c.add(MOSFET("MN", "c", "in", "d", w=5e-6, vth=0.4))
    c.add(MOSFET("MP", "d", "b", "in", polarity="pmos", vth=-0.45, kp=1e-4))
    c.add(MOSFET("MG", "e", "a", "0", w=3e-6))
    c.add(Resistor("Rloop", "e", "e", 10.0))
    c.add(CurrentSource("I2", "e", "0", dc=2e-4, ac=0.25, ac_phase=30.0))
    return c


def _assembled(backend, x, ctx):
    matrix, residual = backend.assemble(x, ctx)
    if isinstance(backend, SparseBackend):
        matrix = backend._matrix(matrix).toarray()
    return matrix, residual


def _assembled_ac(backend, x_op, gmin):
    g, c, rhs = backend.assemble_ac(x_op, gmin)
    if isinstance(backend, SparseBackend):
        g, c = backend._matrix(g).toarray(), backend._matrix(c).toarray()
    return g, c, rhs


@pytest.mark.parametrize("backend_cls", [DenseBackend, SparseBackend])
def test_stamp_plan_assembly_is_bitwise_the_element_loop(backend_cls):
    circuit = _every_element()
    backend = backend_cls(circuit)
    n = circuit.size
    rng = np.random.default_rng(7)
    mosfets = [e for e in circuit.elements if isinstance(e, MOSFET)]
    swaps = set()
    for _ in range(12):
        x = rng.normal(0.0, 1.5, n)
        x_prev = rng.normal(0.0, 1.5, n)
        swaps |= {
            (m.polarity, m._evaluate(padded(x))[3]) for m in mosfets
        }
        trap = StampContext(mode="tran", dt=1e-9, method="trap", x_prev=x_prev,
                            time=3e-9, gmin=1e-9)
        trap.states["C1"] = 1.25e-4
        contexts = [
            StampContext(mode="dc", gmin=1e-12),
            StampContext(mode="dc", gmin=1e-3),
            StampContext(mode="tran", dt=2e-9, method="be", x_prev=x_prev,
                         time=2e-9),
            trap,
        ]
        for ctx in contexts:
            jac, res = _assembled(backend, x, ctx)
            ref_jac, ref_res = _reference_assemble(circuit, x, ctx)
            assert np.array_equal(jac, ref_jac), ctx
            assert np.array_equal(res, ref_res), ctx
        for gmin in (1e-12, 1e-4):
            assembled = _assembled_ac(backend, x, gmin)
            reference = _reference_assemble_ac(circuit, x, gmin)
            for got, want in zip(assembled, reference):
                assert np.array_equal(got, want)
    # both MOSFET polarities were exercised in both drain/source frames
    assert swaps == {("nmos", False), ("nmos", True),
                     ("pmos", False), ("pmos", True)}


def test_floating_node_raises_convergence_error_through_dgesv():
    """A node reached only through a capacitor is floating in DC."""
    c = Circuit("floating")
    c.add(VoltageSource("V1", "in", "0", dc=1.0))
    c.add(Resistor("R1", "in", "a", 1e3))
    c.add(Capacitor("C1", "a", "island", 1e-12))
    solver = DenseBackend(c)
    with pytest.raises(np.linalg.LinAlgError):
        solver.solve_newton(np.zeros(c.size), StampContext(mode="dc"))
    with pytest.raises(ConvergenceError, match="floating nodes"):
        solve_dc(c, backend=solver)


class _Unplanned(Element):
    """A custom element implementing none of the stamp-plan methods."""

    def __init__(self, name, n1, n2):
        super().__init__(name, (n1, n2))


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_element_without_plan_is_refused_at_backend_construction(backend):
    c = _rlc_filter()
    c.add(_Unplanned("X1", "out", "0"))
    with pytest.raises(NotImplementedError, match="_Unplanned"):
        resolve_backend(c, backend)
