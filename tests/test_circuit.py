import dataclasses
import math
import pickle
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancomp.circuit import (
    CNOT,
    MEASURE,
    OPERANDS,
    RESET,
    RX,
    RY,
    RZ,
    TRACE,
    U,
    X,
    Circuit,
    CircuitParseError,
    Gate,
    angle_layout,
    cnot_count,
    conditioned,
    parse,
    rz_matrix,
    serialize,
    u_angles,
)
from chancomp.simulator import run_plan, static_plan
from reference_walker import apply_unitary_gate, gate1_matrix, ry_matrix, u_matrix

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def random_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zyz(u):
    """The U angles of one 2x2 unitary, through the batched `u_angles`."""
    return u_angles(np.asarray(u, dtype=complex)[None])[0]


def test_zyz_identity():
    assert zyz(np.eye(2)) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.9])
def test_zyz_pure_y_rotation(theta):
    a, b, c, d = zyz(ry_matrix(theta))
    assert abs(a) < 1e-12 and abs(b) < 1e-12 and abs(d) < 1e-12
    assert abs(c - theta) < 1e-12


def test_zyz_hadamard():
    a, b, c, d = zyz(H)
    assert np.allclose([a, b, c, d], [np.pi / 2, 0.0, np.pi / 2, np.pi])
    assert np.linalg.norm(u_matrix(a, b, c, d) - H) < 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_zyz_reconstructs_random_unitaries(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng)
    a, b, c, d = zyz(u)
    assert np.linalg.norm(u_matrix(a, b, c, d) - u) < 1e-10
    assert 0.0 <= c <= np.pi


def test_zyz_degenerate_sets_delta_zero():
    for u in (np.diag([1j, -1j]), rz_matrix(1.1), np.array([[0, 1], [1, 0]], dtype=complex)):
        a, b, c, d = zyz(u)
        assert d == 0.0
        assert np.linalg.norm(u_matrix(a, b, c, d) - u) < 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_zyz_idempotent(seed):
    rng = np.random.default_rng(100 + seed)
    u = random_unitary(rng)
    params1 = zyz(u)
    params2 = zyz(u_matrix(*params1))
    assert np.allclose(params1, params2, atol=1e-8)


# Every branch of Gate.__post_init__, with its exact message.
GATE_FAULTS = [
    (lambda: Gate("H", (0,)), "unknown gate kind 'H'"),
    (lambda: Gate(CNOT, (0,)), "CNOT expects 2 qubit(s)"),
    (lambda: Gate(X, (0, 1)), "X expects 1 qubit(s)"),
    (lambda: Gate(CNOT, (1, 1)), "CNOT control equals target"),
    (lambda: Gate(RY, (0,), (0.1, 0.2)), "RY expects 1 angle(s)"),
    (lambda: Gate(U, (0,), (0.0,)), "U expects 4 angle(s)"),
    (lambda: Gate(RY, (0,), (float("nan"),)), "gate angles must be finite"),
    (lambda: Gate(RZ, (0,), (float("inf"),)), "gate angles must be finite"),
    (lambda: Gate(U, (0,), (0.0, 0.0, -float("inf"), 0.0)), "gate angles must be finite"),
    (lambda: Gate(MEASURE, (0,)), "MEASURE needs a classical register"),
    (lambda: Gate(MEASURE, (0,), creg=0, condition=((1, 0), (0, 1))),
     "MEASURE takes no condition"),
    (lambda: Gate(MEASURE, (0,), creg=0, condition=((1, 1),)), "MEASURE takes no condition"),
    (lambda: Gate(RESET, (0,), condition=((0, 0),)), "RESET takes no condition"),
    (lambda: Gate(TRACE, (0,), condition=((0, 1),)), "TRACE takes no condition"),
    (lambda: Gate(X, (0,), creg=3), "X takes no classical register"),
    (lambda: Gate(CNOT, (0, 1), creg=0), "CNOT takes no classical register"),
    (lambda: Gate(RESET, (0,), creg=0), "RESET takes no classical register"),
]


# Every branch of Circuit.__post_init__, with its exact message.
CIRCUIT_FAULTS = [
    (lambda: Circuit(2, (1,), (0,), (Gate(TRACE, (0,)), Gate(X, (0,))), 0),
     "gate acts on a traced-out qubit"),
    (lambda: Circuit(2, (0,), (1,), (Gate(TRACE, (0,)), Gate(CNOT, (1, 0))), 0),
     "gate acts on a traced-out qubit"),
    (lambda: Circuit(2, (1, 1), (0,), (), 0), "duplicate entries in input_qubits"),
    (lambda: Circuit(2, (0,), (1, 1), (), 0), "duplicate entries in output_qubits"),
    (lambda: Circuit(2, (0, 5), (0,), (), 0), "input_qubits index out of range"),
    (lambda: Circuit(2, (0,), (-1,), (), 0), "output_qubits index out of range"),
    (lambda: Circuit(1, (0,), (0,), (Gate(X, (3,)),), 0), "gate qubit index out of range"),
    (lambda: Circuit(2, (0,), (0,), (Gate(X, (-1,)),), 0), "gate qubit index out of range"),
    (lambda: Circuit(2, (0,), (0,), (Gate(CNOT, (0, 2)),), 0), "gate qubit index out of range"),
    (lambda: Circuit(2, (0,), (0,), (Gate(MEASURE, (0,), creg=1),), 1),
     "measure register out of range"),
    (lambda: Circuit(2, (0,), (0,), (Gate(MEASURE, (0,), creg=-1),), 1),
     "measure register out of range"),
    (lambda: Circuit(2, (0,), (0,), (Gate(X, (0,), condition=((2, 1),)),), 1),
     "condition register out of range"),
    (lambda: Circuit(2, (0,), (0,), (Gate(X, (0,), condition=((0, 1), (-1, 1))),), 1),
     "condition register out of range"),
    (lambda: Circuit(2, (0,), (0, 1), (Gate(TRACE, (0,)),), 0),
     "traced-out qubit declared as output"),
]


def _assert_faults(cases):
    for make, message in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def test_gate_validation():
    _assert_faults(GATE_FAULTS)


def test_circuit_validation():
    _assert_faults(CIRCUIT_FAULTS)


def test_circuit_validation_accepts_well_formed():
    gates = (Gate(TRACE, (0,)), Gate(MEASURE, (1,), creg=0),
             Gate(X, (1,), condition=((0, 1),)))
    c = Circuit(3, (0,), (1, 2), gates, 1)
    assert c.gates == gates


X_MAT = np.array([[0.0, 1.0], [1.0, 0.0]])


def dense_gate(g, p):
    """Independent oracle: the gate's 2^p x 2^p embedding built with np.kron
    (qubit 0 is the leftmost factor)."""
    eye = np.eye(2)
    if g.kind == CNOT:
        ctrl, tgt = g.qubits
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        idle = [p0 if q == ctrl else eye for q in range(p)]
        flip = [p1 if q == ctrl else (X_MAT if q == tgt else eye) for q in range(p)]
        return reduce(np.kron, idle) + reduce(np.kron, flip)
    u = gate1_matrix(g)
    return reduce(np.kron, [u if q == g.qubits[0] else eye for q in range(p)])


def test_plan_matrices_match_gate1_matrix():
    # the simulator plan lays out each kind's angles (angle_layout), and a
    # one-gate circuit's operator on the gate's own angles is its gate1_matrix
    gates = [g for g in all_unitary_gates(1) if g.kind != CNOT]
    assert {g.kind for g in gates} == {RX, RY, RZ, U, X}
    fixed, fills, x_mask = angle_layout([g.kind for g in gates])
    assert fixed.shape == (4 * len(gates),) and len(fills) == sum(len(g.params) for g in gates)
    assert x_mask.tolist() == [g.kind == X for g in gates]
    for g in gates:
        c = Circuit(1, (0,), (0,), (g,), 0)
        m = run_plan(static_plan(c), [g.params])[0, 0]
        assert np.max(np.abs(m - gate1_matrix(g))) <= 1e-15, g.kind
        assert g.kind != X or np.array_equal(m, X_MAT)
    assert [a.shape for a in angle_layout([])] == [(0,), (0,), (0,)]


def all_unitary_gates(p):
    for q in range(p):
        yield Gate(RX, (q,), (0.7,))
        yield Gate(RY, (q,), (-1.3,))
        yield Gate(RZ, (q,), (2.1,))
        yield Gate(U, (q,), (0.4, -0.9, 1.7, 2.6))
        yield Gate(X, (q,))
    for ctrl in range(p):
        for tgt in range(p):
            if ctrl != tgt:
                yield Gate(CNOT, (ctrl, tgt))


@pytest.mark.parametrize("cols", [1, 3, 8])
@pytest.mark.parametrize("p", range(1, 7))
def test_apply_unitary_gate_matches_dense_kron(p, cols):
    rng = np.random.default_rng(10 * p + cols)
    mat = rng.standard_normal((2**p, cols)) + 1j * rng.standard_normal((2**p, cols))
    before = mat.copy()
    for g in all_unitary_gates(p):
        got = apply_unitary_gate(mat, g, p)
        assert got.shape == mat.shape
        assert np.max(np.abs(got - dense_gate(g, p) @ mat)) <= 1e-13, g
    assert np.array_equal(mat, before)  # the input is never written


def test_cnot_count_empty_and_single():
    empty = Circuit(1, (0,), (0,), (), 0)
    assert cnot_count(empty) == (0, True)
    one = Circuit(2, (0, 1), (0, 1), (Gate(CNOT, (0, 1)),), 0)
    assert cnot_count(one) == (1, True)


def test_cnot_count_complementary_conditions():
    gates = (
        Gate(CNOT, (0, 1), condition=((0, 0),)),
        Gate(CNOT, (0, 1), condition=((0, 1),)),
    )
    c = Circuit(2, (0, 1), (0, 1), gates, 1)
    assert cnot_count(c) == (1, True)


def test_cnot_count_nonuniform():
    gates = (Gate(CNOT, (0, 1)), Gate(CNOT, (0, 1), condition=((0, 1),)))
    c = Circuit(2, (0, 1), (0, 1), gates, 1)
    assert cnot_count(c) == (2, False)


def test_cnot_count_concatenation_disjoint_registers():
    a = tuple(Gate(CNOT, (0, 1), condition=((0, b),)) for b in (0, 1))
    b = tuple(Gate(CNOT, (1, 2), condition=((1, b),)) for b in (0, 1))
    ca = Circuit(3, (0,), (0,), a, 2)
    cb = Circuit(3, (0,), (0,), b, 2)
    cab = Circuit(3, (0,), (0,), a + b, 2)
    assert cnot_count(cab)[0] == cnot_count(ca)[0] + cnot_count(cb)[0]
    assert cnot_count(cab)[1]


def sample_circuit():
    gates = (
        Gate(U, (0,), (0.1, -0.2, 0.3, 3.0)),
        Gate(RX, (1,), (0.5,)),
        Gate(RY, (1,), (-1.5,)),
        Gate(RZ, (0,), (2.25,)),
        Gate(CNOT, (0, 1)),
        Gate(MEASURE, (0,), creg=0),
        Gate(RESET, (0,)),
        Gate(X, (1,), condition=((0, 1),)),
        Gate(U, (2,), (0.0, 1.0, 2.0, -3.0), condition=((0, 0), (1, 1))),
        Gate(MEASURE, (1,), creg=1),
        Gate(TRACE, (0,)),
    )
    return Circuit(3, (1, 2), (2,), gates, 2)


def test_serialize_empty_circuit():
    c = Circuit(1, (0,), (0,), (), 0)
    text = serialize(c)
    assert text.splitlines() == ["QUBITS 1", "CREGS 0", "INPUTS q0", "OUTPUTS q0"]
    assert parse(text) == c


def test_round_trip_each_gate_kind():
    c = sample_circuit()
    assert parse(serialize(c)) == c


def test_parse_ignores_comments_and_blank_lines():
    text = serialize(sample_circuit())
    text = "# generated\n\n" + text.replace("CNOT q0 q1", "CNOT q0 q1  # entangle")
    assert parse(text) == sample_circuit()


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_fuzzed_circuits(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    nregs = int(rng.integers(1, 4))
    gates = []
    measured_regs = []
    for _ in range(int(rng.integers(0, 25))):
        kind = rng.choice([RX, RY, RZ, U, X, CNOT, MEASURE])
        cond = None
        if measured_regs and rng.random() < 0.3:
            cond = ((int(rng.choice(measured_regs)), int(rng.integers(0, 2))),)
        q = int(rng.integers(0, p))
        if kind == CNOT:
            if p < 2:
                continue
            q2 = int(rng.integers(0, p))
            if q2 == q:
                q2 = (q + 1) % p
            gates.append(Gate(CNOT, (q, q2), condition=cond))
        elif kind == MEASURE:
            reg = len(measured_regs)
            if reg >= nregs:
                continue
            gates.append(Gate(MEASURE, (q,), creg=reg, condition=None))
            measured_regs.append(reg)
        elif kind == U:
            gates.append(Gate(U, (q,), tuple(rng.uniform(-7, 7, 4)), condition=cond))
        elif kind == X:
            gates.append(Gate(X, (q,), condition=cond))
        else:
            gates.append(Gate(kind, (q,), (float(rng.uniform(-7, 7)),), condition=cond))
    c = Circuit(p, tuple(range(p)), tuple(range(p)), tuple(gates), nregs)
    assert parse(serialize(c)) == c


@pytest.mark.parametrize(
    "text,frag",
    [
        ("QUBITS x", "bad QUBITS"),
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nFOO q0", "unknown instruction"),
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nRY q0", "expected 1 angle"),
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nRY w0 1.0", "expected qubit"),
        ("QUBITS 1\nCREGS 1\nINPUTS\nOUTPUTS\nIF c0=2 X q0", "must be 0 or 1"),
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nMEASURE q0", "needs qubit and register"),
        ("CREGS 0\nINPUTS\nOUTPUTS\n", "missing QUBITS"),
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nRY", "line 5: RY needs qubit and 1 angle"),
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nU", "line 5: U needs qubit and 4 angle"),
        ("QUBITS 1\nCREGS 1\nINPUTS\nOUTPUTS\nIF c0=1 RZ", "line 5: RZ needs qubit and 1 angle"),
        ("QUBITS 2\nCREGS 0\nINPUTS\nOUTPUTS\nCNOT q0", "line 5: CNOT needs 2 qubits"),
        ("QUBITS 1\nCREGS 1\nINPUTS\nOUTPUTS\nX q0 c0", "line 5: expected 0 angle"),
        ("QUBITS 1\nCREGS 1\nINPUTS\nOUTPUTS\nMEASURE q0 q0", "line 5: expected register"),
        ("QUBITS 1\nCREGS 1\nINPUTS\nOUTPUTS\nRZ q0 pi", "line 5: could not convert"),
        ("QUBITS 1\nCREGS 1\nINPUTS\nOUTPUTS\nMEASURE q0 c0\nIF c0=0 RESET q0",
         "line 6: RESET takes no condition"),
        ("QUBITS 2\nCREGS 2\nINPUTS\nOUTPUTS\nMEASURE q0 c0\nIF c0=1 MEASURE q1 c1",
         "line 6: MEASURE takes no condition"),
        # the gate faults parse checks itself, matched whole
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nRZ q0 nan", "^line 5: gate angles must be finite$"),
        ("QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nU q0 0.5 inf 0 0",
         "^line 5: gate angles must be finite$"),
        ("QUBITS 2\nCREGS 0\nINPUTS\nOUTPUTS\nCNOT q1 q1", "^line 5: CNOT control equals target$"),
        ("QUBITS 1\nCREGS 1\nINPUTS\nOUTPUTS\nMEASURE q0 c0\nIF c0=1 TRACE q0",
         "^line 6: TRACE takes no condition$"),
        # a second header line would silently override the first
        ("QUBITS 2\nCREGS 0\nQUBITS 3\nINPUTS q1\nOUTPUTS q1", "^line 3: duplicate QUBITS header$"),
        ("QUBITS 2\nCREGS 0\nCREGS 1\nINPUTS q1\nOUTPUTS q1", "^line 3: duplicate CREGS header$"),
        ("QUBITS 2\nCREGS 0\nINPUTS q1\nINPUTS\nOUTPUTS q1", "^line 4: duplicate INPUTS header$"),
        ("QUBITS 2\nCREGS 0\nINPUTS q1\nOUTPUTS q1\nX q0\nOUTPUTS q0",
         "^line 6: duplicate OUTPUTS header$"),
    ],
)
def test_parse_errors_carry_line_and_reason(text, frag):
    with pytest.raises(CircuitParseError, match=frag):
        parse(text)


def test_parse_error_reports_line_number():
    text = "QUBITS 1\nCREGS 0\nINPUTS\nOUTPUTS\nX q0\nBAD q0\n"
    with pytest.raises(CircuitParseError, match="line 6"):
        parse(text)


def test_conditioned_copies_equal_checked_gates():
    gates = list(all_unitary_gates(3))
    cond = ((0, 1), (2, 0))
    copies = conditioned(gates, cond)
    checked = [Gate(g.kind, g.qubits, g.params, g.creg, cond) for g in gates]
    assert copies == checked
    assert conditioned(iter(gates), cond) == checked   # one pass over the input
    assert [hash(g) for g in copies] == [hash(g) for g in checked]
    assert [repr(g) for g in copies] == [repr(g) for g in checked]
    assert pickle.loads(pickle.dumps(copies)) == checked
    # replace goes through the public constructor, so it still checks
    assert dataclasses.replace(copies[0], params=(0.25,)) == Gate(RX, (0,), (0.25,), None, cond)
    with pytest.raises(ValueError, match="gate angles must be finite"):
        dataclasses.replace(copies[0], params=(math.nan,))
    # an empty condition is accepted for every kind, as Gate accepts it
    assert conditioned([Gate(MEASURE, (0,), creg=0)], ()) == [Gate(MEASURE, (0,), creg=0,
                                                                    condition=())]


def test_conditioned_returns_gates_that_already_carry_the_condition():
    gates = list(all_unitary_gates(3)) + [Gate(MEASURE, (0,), creg=0)]
    assert all(a is b for a, b in zip(conditioned(gates, None), gates))
    cond = ((0, 1),)
    once = conditioned(gates[:-1], cond)
    assert all(a is b for a, b in zip(conditioned(once, cond), once))
    # a different condition, or none, is still a copy that carries it
    assert conditioned(once, None) == gates[:-1]
    assert all(g.condition == ((1, 0),) for g in conditioned(once, ((1, 0),)))


def test_conditioned_rejects_kinds_without_a_condition():
    messages = {message for _, message in GATE_FAULTS}
    for g in (Gate(MEASURE, (0,), creg=0), Gate(RESET, (0,)), Gate(TRACE, (0,))):
        with pytest.raises(ValueError) as info:
            conditioned([Gate(X, (1,)), g], ((0, 1),))
        assert str(info.value) == f"{g.kind} takes no condition"
        assert str(info.value) in messages


def test_serialize_writes_angles_as_format_17g():
    # doubles over the whole exponent range, signed zeros, the extremes,
    # numpy scalars and ints
    bits = np.random.default_rng(5).integers(0, 2**64, size=4000, dtype=np.uint64)
    doubles = [float(x) for x in bits.view(np.float64) if np.isfinite(x)]
    angles = doubles + [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 2.0**53 + 1]
    angles += [np.float64(x) for x in doubles[:200]] + [np.float64(-0.0)]
    angles += [0, 1, -7, 3, 10**17 + 1, -(2**60)]
    c = Circuit(1, (0,), (0,), tuple(Gate(RZ, (0,), (x,)) for x in angles), 0)
    lines = serialize(c).splitlines()[4:]
    assert lines == [f"RZ q0 {format(float(x), '.17g')}" for x in angles]


def test_angles_survive_17_digit_round_trip():
    angle = 0.1 + 0.2  # classic non-representable decimal
    c = Circuit(1, (0,), (0,), (Gate(RZ, (0,), (angle,)),), 0)
    assert parse(serialize(c)).gates[0].params[0] == angle


_ANGLES = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


@st.composite
def circuits(draw):
    """Random well-formed circuits: conditioned gates, measure/reset pairs,
    signed-zero angles, traced qubits and permuted inputs."""
    p = draw(st.integers(1, 4))
    nregs = draw(st.integers(0, 3))
    gates, written = [], []
    for _ in range(draw(st.integers(0, 20))):
        q = draw(st.integers(0, p - 1))
        cond = None
        if written and draw(st.booleans()):
            regs = draw(st.lists(st.sampled_from(written), min_size=1, max_size=2, unique=True))
            cond = tuple((r, draw(st.integers(0, 1))) for r in regs)
        kind = draw(st.sampled_from([RX, RY, RZ, U, X, CNOT, MEASURE]))
        if kind == MEASURE:
            if len(written) == nregs:
                continue
            gates.append(Gate(MEASURE, (q,), creg=len(written)))
            written.append(len(written))
            if draw(st.booleans()):
                gates.append(Gate(RESET, (q,)))
        elif kind == CNOT:
            if p < 2:
                continue
            t = draw(st.integers(0, p - 2))
            gates.append(Gate(CNOT, (q, t + (t >= q)), condition=cond))
        else:
            n = {U: 4, X: 0}.get(kind, 1)
            gates.append(Gate(kind, (q,), tuple(draw(_ANGLES) for _ in range(n)),
                              condition=cond))
    order = draw(st.permutations(range(p)))
    inputs = tuple(order[:draw(st.integers(0, p))])
    traced = draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p - 1))
    gates.extend(Gate(TRACE, (q,)) for q in traced)
    outputs = tuple(q for q in range(p) if q not in traced)
    return Circuit(p, inputs, outputs, tuple(gates), nregs)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_cnot_count_matches_a_count_per_assignment(c):
    # every assignment of all the registers, each CNOT counted where its
    # condition holds: the worst count, and whether all counts agree
    counts = {sum(1 for g in c.gates if g.kind == CNOT
                  and all((bits >> r) & 1 == b for r, b in g.condition or ()))
              for bits in range(1 << c.num_cregs)}
    assert cnot_count(c) == (max(counts), len(counts) == 1)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_parse_serialize_round_trip_property(c):
    text = serialize(c)
    back = parse(text)
    assert back == c
    # equality ignores the sign of zero; the text and the signs must survive too
    assert serialize(back) == text
    signs = [math.copysign(1.0, x) for g in c.gates for x in g.params]
    assert [math.copysign(1.0, x) for g in back.gates for x in g.params] == signs


# Tokens of circuit text, well-formed or not.
_KINDS = st.sampled_from(sorted(OPERANDS))
_ODD = st.one_of(
    st.builds(lambda p, i: f"{p}{i}", st.sampled_from(["q", "c", "", "-", "w"]),
              st.integers(-3, 10**30)),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["q", "c", "=", ",", "#", "IF", "nan", "-1e999", "pi", "q\u00b2",
                     "q\u0663"]),
    st.text(max_size=4),
)


def _mostly(*good):
    """One of `good` seven times in eight, else an odd token."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(good) if i else _ODD)


_QUBIT = _mostly("q0", "q1", "q2")
_REG = _mostly("c0", "c1")
# the non-finite angles are as frequent as the others: parse refuses them itself
_ANGLE = _mostly("0.5", "-0.0", "1e-300", "nan", "inf", "-1e999")


def _conditions(regs, bits):
    return st.lists(st.tuples(regs, bits), min_size=1, max_size=3).map(
        lambda pairs: ",".join(f"c{r}={b}" for r, b in pairs))


@st.composite
def _lines(draw):
    """An instruction whose operands have the kind's shape, then maybe one
    token dropped or added, maybe under an IF; or a line of any tokens."""
    if draw(st.integers(0, 3)) == 0:
        toks = st.one_of(_KINDS, _ODD, _conditions(st.integers(-1, 3), st.integers(0, 2)),
                         st.sampled_from(["QUBITS", "CREGS", "INPUTS", "OUTPUTS", "FOO"]))
        return " ".join(draw(st.lists(toks, max_size=6)))
    kind = draw(_KINDS)
    nq, na, register, _ = OPERANDS[kind]
    ops = [draw(_QUBIT) for _ in range(nq)] + [draw(_REG) for _ in range(register)]
    ops += [draw(_ANGLE) for _ in range(na)]
    edit = draw(st.integers(0, 4))
    if edit == 1 and ops:
        del ops[draw(st.integers(0, len(ops) - 1))]
    elif edit == 2:
        ops.insert(draw(st.integers(0, len(ops))), draw(st.one_of(_QUBIT, _REG, _ANGLE)))
    prefix = ["IF", draw(_conditions(st.integers(0, 2), st.integers(0, 1)))]
    return " ".join((prefix if draw(st.booleans()) else []) + [kind] + ops)


def _parses_or_raises_parse_error(text):
    try:
        c = parse(text)
    except CircuitParseError as exc:
        assert str(exc).startswith(f"line {exc.line_no}: ")
    else:
        assert parse(serialize(c)) == c
        # parse builds its gates unchecked: each must be one Gate accepts
        for g in c.gates:
            assert g == Gate(g.kind, g.qubits, g.params, g.creg, g.condition)


@settings(max_examples=300, deadline=None)
@given(st.lists(_lines(), max_size=5), st.booleans())
def test_parse_returns_circuit_or_raises_parse_error(lines, with_header):
    # lines of random tokens, with missing or extra operands, never escape
    # as anything but a CircuitParseError: together, and each alone under
    # the header, so that a well-formed line is often a whole circuit
    header = ["QUBITS 3", "CREGS 2", "INPUTS q0 q1", "OUTPUTS q2"]
    _parses_or_raises_parse_error("\n".join((header if with_header else []) + lines))
    for line in lines:
        _parses_or_raises_parse_error("\n".join(header + [line]))
