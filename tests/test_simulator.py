import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chancomp.circuit
from chancomp.channel import choi_distance, choi_from_kraus, kraus_rank, random_channel
from chancomp.circuit import (
    CNOT,
    MEASURE,
    RESET,
    RX,
    RY,
    RZ,
    TRACE,
    U,
    X,
    Circuit,
    Gate,
    parse,
    serialize,
)
from chancomp.compiler import compile_measured, compile_qcm
from chancomp.simulator import (
    _branch_ops,
    _parity,
    circuit_to_kraus,
    input_embedding,
    outcome_distribution,
    run_plan,
    simulate_unitary,
    static_plan,
)
from chancomp.templates import template
from reference_walker import reference_branches

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
H_PARAMS = (np.pi / 2, 0.0, np.pi / 2, np.pi)


def test_simulate_empty_circuit():
    c = Circuit(1, (0,), (0,), (), 0)
    assert np.allclose(simulate_unitary(c), np.eye(2))


def test_simulate_single_cnot():
    c = Circuit(2, (0, 1), (0, 1), (Gate(CNOT, (0, 1)),), 0)
    assert np.allclose(simulate_unitary(c), CNOT_MATRIX)


def test_simulate_cnot_reversed_control():
    c = Circuit(2, (0, 1), (0, 1), (Gate(CNOT, (1, 0)),), 0)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.allclose(simulate_unitary(c), expected)


def test_simulate_rejects_measured_circuit():
    c = Circuit(1, (0,), (0,), (Gate(MEASURE, (0,), creg=0),), 1)
    with pytest.raises(ValueError, match="purely unitary"):
        simulate_unitary(c)


@pytest.mark.parametrize("gate", [
    Gate(RESET, (0,)),
    Gate(TRACE, (0,)),
    Gate(RY, (0,), (0.4,), condition=((0, 1),)),
])
def test_simulate_rejects_reset_trace_and_conditions(gate):
    c = Circuit(1, (0,), (0,) if gate.kind != TRACE else (), (gate,), 1)
    with pytest.raises(ValueError, match="purely unitary"):
        simulate_unitary(c)


def test_input_embedding_nonstandard_order():
    c = Circuit(2, (1,), (1,), (), 0)
    e = input_embedding(c.num_qubits, c.input_qubits, 0)
    assert np.allclose(e, [[1, 0], [0, 1], [0, 0], [0, 0]])


@pytest.mark.parametrize("seed", range(8))
def test_simulate_matches_after_round_trip(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 4))
    gates = []
    for _ in range(10):
        kind = rng.choice([RY, RZ, U, CNOT])
        q = int(rng.integers(0, p))
        if kind == CNOT:
            if p < 2:
                continue
            q2 = (q + 1 + int(rng.integers(0, p - 1))) % p
            gates.append(Gate(CNOT, (q, q2)))
        elif kind == U:
            gates.append(Gate(U, (q,), tuple(rng.uniform(-3, 3, 4))))
        else:
            gates.append(Gate(kind, (q,), (float(rng.uniform(-3, 3)),)))
    c = Circuit(p, tuple(range(p)), tuple(range(p)), tuple(gates), 0)
    u1 = simulate_unitary(c)
    u2 = simulate_unitary(parse(serialize(c)))
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(2**p)) < 1e-12


def test_identity_circuit_channel():
    c = Circuit(2, (0, 1), (0, 1), (), 0)
    ks = circuit_to_kraus(c)
    assert ks.K == 1
    assert np.allclose(ks.ops[0], np.eye(4))


def ancilla_coin_circuit():
    """H on a fresh ancilla, measured; the data qubit is untouched."""
    gates = (Gate(U, (0,), H_PARAMS), Gate(MEASURE, (0,), creg=0))
    return Circuit(2, (1,), (1,), gates, 1)


def test_noninteracting_ancilla_gives_identity_channel():
    ks = circuit_to_kraus(ancilla_coin_circuit())
    assert ks.K == 2
    for op in ks.ops:
        assert np.allclose(np.abs(op), np.eye(2) / np.sqrt(2), atol=1e-12)
    ident = choi_from_kraus(circuit_to_kraus(Circuit(1, (0,), (0,), (), 0)))
    assert choi_distance(choi_from_kraus(ks), ident) < 1e-12


def test_branch_completeness():
    ks = circuit_to_kraus(ancilla_coin_circuit())
    total = sum(a.conj().T @ a for a in ks.ops)
    assert np.linalg.norm(total - np.eye(2)) < 1e-12


def test_measure_then_conditioned_x_equals_cnot():
    quantum = Circuit(2, (0, 1), (1,), (Gate(CNOT, (0, 1)),), 0)
    classical = Circuit(
        2,
        (0, 1),
        (1,),
        (Gate(MEASURE, (0,), creg=0), Gate(X, (1,), condition=((0, 1),))),
        1,
    )
    d = choi_distance(
        choi_from_kraus(circuit_to_kraus(quantum)),
        choi_from_kraus(circuit_to_kraus(classical)),
    )
    assert d < 1e-12


def test_reset_reuses_ancilla():
    # entangle ancilla, measure, reset: ancilla ends in |0> in every branch
    gates = (
        Gate(U, (0,), H_PARAMS),
        Gate(CNOT, (0, 1)),
        Gate(MEASURE, (0,), creg=0),
        Gate(RESET, (0,)),
    )
    c = Circuit(2, (1,), (0, 1), gates, 1)
    for op in _branch_ops(c)[1]:
        # ancilla (most significant qubit) must carry no |1> amplitude
        assert np.linalg.norm(op[2:, :]) < 1e-12


def test_reset_requires_fresh_measure():
    c = Circuit(1, (0,), (0,), (Gate(RESET, (0,)),), 0)
    with pytest.raises(ValueError, match="RESET without"):
        circuit_to_kraus(c)


def test_condition_on_unwritten_register():
    c = Circuit(1, (0,), (0,), (Gate(X, (0,), condition=((0, 1),)),), 1)
    with pytest.raises(ValueError, match="before it is written"):
        circuit_to_kraus(c)


def test_register_written_twice_rejected():
    gates = (Gate(MEASURE, (0,), creg=0), Gate(MEASURE, (0,), creg=0))
    c = Circuit(1, (0,), (), gates, 1)
    with pytest.raises(ValueError, match="written twice"):
        circuit_to_kraus(c)


def test_outcome_distribution_coin():
    c = ancilla_coin_circuit()
    rng = np.random.default_rng(0)
    for _ in range(5):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        dist = outcome_distribution(c, psi)
        assert set(dist) == {"0", "1"}
        assert abs(dist["0"] - 0.5) < 1e-12
        assert abs(dist["1"] - 0.5) < 1e-12


def test_outcome_distribution_sums_to_one():
    gates = (
        Gate(RY, (0,), (0.7,)),
        Gate(CNOT, (0, 1)),
        Gate(MEASURE, (0,), creg=0),
    )
    c = Circuit(2, (1,), (1,), gates, 1)
    dist = outcome_distribution(c, [1.0, 0.0])
    assert abs(sum(dist.values()) - 1.0) < 1e-10


def rank1_diagnostic_circuits():
    """Three measured circuits that implement Kraus-rank-1 channels."""
    coin = ancilla_coin_circuit()
    # coin flip, CNOT onto the data qubit, then classically corrected
    corrected = Circuit(
        2,
        (1,),
        (1,),
        (
            Gate(U, (0,), H_PARAMS),
            Gate(CNOT, (0, 1)),
            Gate(MEASURE, (0,), creg=0),
            Gate(X, (1,), condition=((0, 1),)),
        ),
        1,
    )
    # biased coin via Ry, same correction pattern
    biased = Circuit(
        2,
        (1,),
        (1,),
        (
            Gate(RY, (0,), (0.9,)),
            Gate(CNOT, (0, 1)),
            Gate(MEASURE, (0,), creg=0),
            Gate(X, (1,), condition=((0, 1),)),
        ),
        1,
    )
    return [coin, corrected, biased]


def test_rank1_circuits_have_input_independent_outcomes():
    rng = np.random.default_rng(123)
    for c in rank1_diagnostic_circuits():
        assert kraus_rank(circuit_to_kraus(c)) == 1
        baseline = None
        for _ in range(20):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            dist = outcome_distribution(c, psi)
            if baseline is None:
                baseline = dist
            for key in baseline:
                assert abs(dist[key] - baseline[key]) < 1e-8


@pytest.mark.parametrize("p,inputs,measures", [(40, 1, 0), (11, 10, 0), (8, 6, 7)])
def test_simulator_rejects_oversized_circuits(p, inputs, measures):
    # qubits + inputs + measurements over 20 would pass 2^20 dense entries
    gates = tuple(Gate(MEASURE, (0,), creg=r) for r in range(measures))
    c = Circuit(p, tuple(range(p - inputs, p)), tuple(range(p)), gates, measures)
    with pytest.raises(ValueError, match="cap"):
        circuit_to_kraus(c)
    with pytest.raises(ValueError, match="cap"):
        input_embedding(p, c.input_qubits, measures)


def test_simulator_accepts_largest_compiled_size():
    # (3,3,8) compiles to 4 qubits, 3 inputs and 3 measurements: 10 of 20
    gates = tuple(Gate(MEASURE, (0,), creg=r) for r in range(3))
    c = Circuit(4, (1, 2, 3), (1, 2, 3), gates, 3)
    assert len(_branch_ops(c)[1]) == 2 * 2**3


# --- fused runs ---------------------------------------------------------------


def assert_matches_reference(c, tol=1e-12):
    # the branch operators, and the outcome distribution of one seeded state
    (plan, got), want = _branch_ops(c), reference_branches(c)
    nm, per = plan.measures, len(got) >> plan.measures
    labels = ["".join(str((b >> (nm - 1 - i)) & 1) for i in range(nm)) for b in range(1 << nm)]
    assert [labels[i // per] for i in range(len(got))] == [o for o, _ in want]
    for a, (_, b) in zip(got, want):
        assert np.max(np.abs(a - b), initial=0.0) <= tol
    d = 2 ** len(c.input_qubits)
    psi = [1, 1j] @ np.random.default_rng(d).standard_normal((2, d))
    psi /= np.linalg.norm(psi)
    probs = {}
    for outcome, b in want:
        probs[outcome] = probs.get(outcome, 0.0) + np.linalg.norm(b @ psi) ** 2
    dist = outcome_distribution(c, psi)
    assert list(dist) == list(probs)
    assert max(abs(dist[o] - probs[o]) for o in probs) <= 1e-10


_ANGLES = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


@st.composite
def run_circuits(draw):
    """Measured circuits made of same-target runs: rotations that switch
    axis, runs that mix U, RX, RY, RZ and X, CNOTs with repeated
    (cancelling) controls, CNOT-only runs, lone gates, changes of
    condition on one target, measure/reset pairs and mid-circuit traces."""
    p = draw(st.integers(1, 6))
    nregs = draw(st.integers(0, 3))
    live = list(range(p))
    gates, written = [], []
    target = 0

    def condition():
        if not written or draw(st.booleans()):
            return None
        regs = draw(st.lists(st.sampled_from(written), min_size=1, max_size=2, unique=True))
        return tuple((r, draw(st.integers(0, 1))) for r in regs)

    for _ in range(draw(st.integers(0, 8))):
        block = draw(st.sampled_from(["run", "run", "run", "lone", "measure", "trace"]))
        if block == "run":
            if target not in live or draw(st.booleans()):
                target = draw(st.sampled_from(live))
            cond = condition()
            controls = [q for q in live if q != target]
            axes = draw(st.sampled_from([[RY, RZ], [U, RX, RY, RZ, X]]))
            axes = axes + [CNOT] * len(axes) if controls else axes
            for kind in draw(st.lists(st.sampled_from(axes), min_size=1, max_size=12)):
                if kind == CNOT:
                    gates.append(Gate(CNOT, (draw(st.sampled_from(controls)), target),
                                      condition=cond))
                else:
                    n = {U: 4, X: 0}.get(kind, 1)
                    gates.append(Gate(kind, (target,), tuple(draw(_ANGLES) for _ in range(n)),
                                      condition=cond))
        elif block == "lone":
            kind = draw(st.sampled_from([U, RX, X]))
            n = {U: 4, X: 0}.get(kind, 1)
            gates.append(Gate(kind, (draw(st.sampled_from(live)),),
                              tuple(draw(_ANGLES) for _ in range(n)), condition=condition()))
        elif block == "measure" and len(written) < nregs:
            q = draw(st.sampled_from(live))
            gates.append(Gate(MEASURE, (q,), creg=len(written)))
            written.append(len(written))
            if draw(st.booleans()):
                gates.append(Gate(RESET, (q,)))
        elif block == "trace" and len(live) > 1:
            q = draw(st.sampled_from(live))
            live.remove(q)
            gates.append(Gate(TRACE, (q,)))
    order = draw(st.permutations(range(p)))
    inputs = tuple(order[:draw(st.integers(0, p))])
    return Circuit(p, inputs, tuple(live), tuple(gates), nregs)


@settings(max_examples=300, deadline=None)
@given(run_circuits())
def test_fused_runs_match_gate_by_gate(c):
    assert_matches_reference(c)


@pytest.mark.parametrize("seed", range(3))
def test_fused_runs_match_gate_by_gate_on_compiled_circuits(seed):
    for circ in (compile_qcm(random_channel(1, 2, 2, seed=seed)),
                 compile_measured(random_channel(2, 2, 3, seed=seed))):
        assert_matches_reference(circ)


def window_gates(plan, x):
    # the gate indices that window x of the plan's pair tables reads, from
    # the factors of each chain step it reaches
    slots, steps = plan.windows
    factors = [side[x] for n, hi, lo, _ in steps if x < n for side in (hi, lo)]
    return [int(s[f]) for f in factors for s in slots if f < len(s)]


def op_gates(plan, op):
    index = np.arange(len(plan.x_mask))   # one entry per single-qubit gate
    if op[0] == "run":
        return index[op[3]].ravel().tolist()
    if op[0] == "pair":
        return [g for x in range(op[3].start, op[3].stop) for g in window_gates(plan, x)]
    return []


def test_runs_leave_only_lone_gates_to_the_gate_kernel():
    # every single-qubit gate is read by exactly one run or pair op: a lone
    # gate by a run of one gate, a two-qubit stretch by a pair op, and
    # RESET's X is a row flip; the gate-by-gate kernel lives in the
    # reference walker alone, out of the simulator's reach
    circ = compile_qcm(random_channel(1, 3, 2, seed=4))
    measured = compile_measured(random_channel(1, 2, 4, seed=4))
    assert any(g.kind == U for g in circ.gates) and any(g.kind == RESET for g in measured.gates)
    assert {"run", "pair"} <= {op[0] for op in static_plan(measured).ops}
    for c in (circ, measured):
        plan = static_plan(c)
        covered = [i for op in plan.ops for i in op_gates(plan, op)]
        assert sorted(covered) == list(range(len(plan.x_mask)))
    assert not hasattr(chancomp.circuit, "apply_unitary_gate")
    assert not hasattr(chancomp.simulator, "apply_unitary_gate")


@pytest.mark.parametrize("p", range(1, 9))
def test_parity_table_matches_popcount(p):
    table = _parity(p)
    assert table.tolist() == [bin(v).count("1") % 2 == 1 for v in range(2**p)]


def test_run_condition_on_unwritten_register():
    cond = ((0, 1),)
    gates = (Gate(RY, (1,), (0.3,), condition=cond), Gate(CNOT, (0, 1), condition=cond))
    c = Circuit(2, (0, 1), (0, 1), gates, 1)
    with pytest.raises(ValueError, match="condition references register c0 before it is written"):
        circuit_to_kraus(c)


def test_run_through_measured_qubit_blocks_reset():
    # the run reads q0 as a control, so q0's outcome is no longer fresh
    gates = (Gate(MEASURE, (0,), creg=0), Gate(RY, (1,), (0.3,)), Gate(CNOT, (0, 1)),
             Gate(RESET, (0,)))
    c = Circuit(2, (1,), (0, 1), gates, 1)
    with pytest.raises(ValueError, match="RESET without an immediately preceding MEASURE"):
        circuit_to_kraus(c)
    # a run that leaves q0 alone keeps the outcome fresh
    gates = (Gate(MEASURE, (0,), creg=0), Gate(RY, (1,), (0.3,)), Gate(CNOT, (2, 1)),
             Gate(RESET, (0,)))
    ok = Circuit(3, (1,), (0, 1, 2), gates, 1)
    assert_matches_reference(ok)
    # so does a gate on q0 whose condition holds in no branch, but not one
    # that holds in one branch
    for cond, fresh in ((((0, 0), (0, 1)), True), (((0, 1),), False)):
        gates = (Gate(MEASURE, (0,), creg=0), Gate(RY, (0,), (0.3,), condition=cond),
                 Gate(RESET, (0,)))
        c = Circuit(1, (0,), (0,), gates, 1)
        if fresh:
            assert_matches_reference(c)
        else:
            with pytest.raises(ValueError, match="RESET without an immediately preceding"):
                circuit_to_kraus(c)


def test_register_written_twice_across_runs():
    gates = (Gate(MEASURE, (0,), creg=0), Gate(RZ, (1,), (0.2,)), Gate(CNOT, (0, 1)),
             Gate(MEASURE, (1,), creg=0))
    c = Circuit(2, (1,), (), gates, 1)
    with pytest.raises(ValueError, match="register c0 written twice"):
        circuit_to_kraus(c)


@pytest.mark.parametrize("state", [[np.nan, 1.0], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]])
def test_outcome_distribution_rejects_non_finite_states(state):
    with pytest.raises(ValueError, match="finite"):
        outcome_distribution(ancilla_coin_circuit(), state)


# --- one plan, B angle sets -----------------------------------------------------


@st.composite
def classical_circuits(draw):
    """Small measured circuits that exercise the classical semantics:
    conditions that hold in some, all or no branches (opposite bits of one
    register never hold) or read a register not yet written, RESETs with
    and without a fresh MEASURE, a RESET after a gate on its qubit whose
    condition never holds, registers written twice, and traces."""
    p = draw(st.integers(1, 4))
    nregs = draw(st.integers(0, 3))
    live = list(range(p))
    gates = []

    def condition():
        written = len({g.creg for g in gates if g.kind == MEASURE})
        choice = draw(st.sampled_from(["none", "some", "some", "never", "unwritten"]))
        if choice == "unwritten" and written < nregs:
            return ((draw(st.integers(written, nregs - 1)), draw(st.integers(0, 1))),)
        if choice == "none" or not written:
            return None
        if choice == "never":
            r = draw(st.integers(0, written - 1))
            return ((r, 0), (r, 1))
        regs = draw(st.lists(st.integers(0, written - 1), min_size=1, max_size=2, unique=True))
        return tuple((r, draw(st.integers(0, 1))) for r in regs)

    def unitary(q, cond):
        kind = draw(st.sampled_from([U, RY, X, CNOT] if len(live) > 1 else [U, RY, X]))
        if kind == CNOT:
            other = draw(st.sampled_from([x for x in live if x != q]))
            qs = draw(st.sampled_from([(q, other), (other, q)]))
            return Gate(CNOT, qs, condition=cond)
        return Gate(kind, (q,), (0.0,) * {U: 4, RY: 1, X: 0}[kind], condition=cond)

    for _ in range(draw(st.integers(0, 10))):
        step = draw(st.sampled_from(["gate", "gate", "measure", "reset", "shielded", "trace",
                                     "remeasure"]))
        q = draw(st.sampled_from(live))
        written = len({g.creg for g in gates if g.kind == MEASURE})
        if step == "gate":
            gates.append(unitary(q, condition()))
        elif step in ("measure", "shielded") and written < nregs:
            gates.append(Gate(MEASURE, (q,), creg=written))
            if step == "shielded":
                gates += [unitary(q, ((written, 0), (written, 1))), Gate(RESET, (q,))]
        elif step == "remeasure" and written:
            gates.append(Gate(MEASURE, (q,), creg=0))
        elif step == "reset":
            gates.append(Gate(RESET, (q,)))
        elif step == "trace" and len(live) > 1:
            live.remove(q)
            gates.append(Gate(TRACE, (q,)))
    order = draw(st.permutations(range(p)))
    inputs = tuple(order[:draw(st.integers(0, p))])
    return Circuit(p, inputs, tuple(live), tuple(gates), nregs)


def with_angles(c, rng):
    gates = tuple(replace(g, params=tuple(float(x) for x in rng.uniform(-4, 4, len(g.params))))
                  for g in c.gates)
    return replace(c, gates=gates)


@settings(max_examples=300, deadline=None)
@given(classical_circuits(), st.integers(0, 2**32 - 1))
# no single-qubit gates: the plan's angle layout is empty
@example(Circuit(1, (0,), (0,), (), 0), 0)
@example(Circuit(2, (0, 1), (0, 1), (Gate(CNOT, (0, 1)), Gate(CNOT, (1, 0))), 0), 1)
def test_one_plan_runs_three_angle_sets_as_three_circuits_and_the_reference(c, seed):
    try:
        reference_branches(c)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            static_plan(c)
        return
    assert_three_angle_sets_match(c, seed)


def assert_three_angle_sets_match(c, seed):
    # one plan on a B = 3 stack gives what each angle set gives on its own,
    # bit for bit, and what the reference walker gives
    rng = np.random.default_rng(seed)
    variants = [with_angles(c, rng) for _ in range(3)]
    params = np.array([[x for g in v.gates for x in g.params] for v in variants])
    for v, ops in zip(variants, run_plan(static_plan(c), params)):
        assert np.array_equal(ops, _branch_ops(v)[1])
        assert_matches_reference(v)


# --- merged segments --------------------------------------------------------------


@st.composite
def conditioned_blocks(draw):
    """Measured circuits shaped like the measured compiler's rounds: after
    each measurement, blocks under conditions on the registers written so
    far, each a copy of the round's template in full, in part, with other
    single-qubit kinds or with other CNOTs.  Conditions list their
    registers in any order, repeat values (s = 0, 1, 0), skip prefixes,
    read only some registers or hold in no branch."""
    p = draw(st.integers(2, 4))
    qubits = st.integers(0, p - 1)
    one_qubit = st.sampled_from([U, RX, RY, RZ, X])

    def gate(kind, qs, cond=None):
        return Gate(kind, qs, (0.0,) * {U: 4, X: 0, CNOT: 0}.get(kind, 1), condition=cond)

    def template():
        out = []
        for _ in range(draw(st.integers(1, 3))):
            t = draw(qubits)
            for _ in range(draw(st.integers(1, 5))):
                c = draw(qubits)
                out.append((CNOT, (c, t)) if c != t and draw(st.booleans())
                           else (draw(one_qubit), (t,)))
        return out

    gates = [gate(U, (q,)) for q in range(p)] + [gate(CNOT, (q - 1, q)) for q in range(1, p)]
    nregs = draw(st.integers(1, 3))
    for written in range(1, nregs + 1):
        gates.append(Gate(MEASURE, (draw(qubits),), creg=written - 1))
        base = template()
        for _ in range(draw(st.integers(1, 5))):
            regs = draw(st.permutations(range(written)))
            value = draw(st.integers(0, 2**written - 1))
            cond = [(r, (value >> r) & 1) for r in regs]
            shape = draw(st.sampled_from(["full", "full", "full", "part", "kinds", "cnots",
                                          "some registers", "never"]))
            block = base
            if shape == "part":
                block = base[:draw(st.integers(0, len(base)))] + template()
            elif shape == "kinds":
                block = [(k if k == CNOT else draw(one_qubit), qs) for k, qs in base]
            elif shape == "cnots":
                block = base + [(CNOT, (base[-1][1][-1] - 1, base[-1][1][-1]) if base[-1][1][-1]
                                 else (1, 0))]
            elif shape == "some registers":
                cond = cond[:draw(st.integers(1, written))]
            elif shape == "never":
                cond = cond + [(cond[0][0], 1 - cond[0][1])]
            gates += [gate(k, qs, tuple(cond)) for k, qs in block]
    order = draw(st.permutations(range(p)))
    inputs = tuple(order[:draw(st.integers(0, p))])
    return Circuit(p, inputs, tuple(range(p)), tuple(gates), nregs)


@settings(max_examples=300, deadline=None)
@given(conditioned_blocks(), st.integers(0, 2**32 - 1))
def test_merged_segments_match_the_reference_on_angle_stacks(c, seed):
    assert_three_angle_sets_match(c, seed)


@st.composite
def window_circuits(draw):
    """Measured circuits shaped for pair windows: stretches on one qubit
    pair that mix single-qubit gates with CNOTs in both directions, some
    with a lone gate between two CNOTs; stretches cut by a gate that
    reads a third qubit, by a change of condition or by a MEASURE (and
    RESET); and copies of a stretch under disjoint conditions, with other
    single-qubit kinds, which merge into one op."""
    p = draw(st.integers(2, 5))
    nregs = draw(st.sampled_from([0, 1, 1, 2, 2]))
    one_qubit = st.sampled_from([U, RX, RY, RZ, X])
    gates, written = [], []

    def gate(kind, qs, cond=None):
        return Gate(kind, qs, (0.0,) * {U: 4, X: 0, CNOT: 0}.get(kind, 1), condition=cond)

    def condition():
        if not written or draw(st.booleans()):
            return None
        return tuple((r, draw(st.integers(0, 1))) for r in written)

    def stretch():
        a, b = draw(st.permutations(range(p)))[:2]
        out = []
        for step in draw(st.lists(st.sampled_from(["a", "b", "a", "b", "ab", "ba", "lone"]),
                                  min_size=1, max_size=10)):
            if step == "lone":   # CNOT, one gate, CNOT the other way
                q = draw(st.sampled_from([a, b]))
                out += [(CNOT, (a, b)), (draw(one_qubit), (q,)), (CNOT, (b, a))]
            elif step in ("ab", "ba"):
                out.append((CNOT, (a, b) if step == "ab" else (b, a)))
            else:
                out.append((draw(one_qubit), (a if step == "a" else b,)))
        return out

    for _ in range(draw(st.integers(1, 6))):
        block = draw(st.sampled_from(["stretch", "stretch", "third", "measure", "copies",
                                      "copies"]))
        if block == "copies" and not written:
            block = "measure"
        if block == "stretch":
            cond = condition()
            gates += [gate(k, qs, cond) for k, qs in stretch()]
        elif block == "third" and p > 2:
            c, t = draw(st.permutations(range(p)))[:2]
            gates.append(gate(CNOT, (c, t), condition()) if draw(st.booleans())
                         else gate(draw(one_qubit), (t,), condition()))
        elif block == "measure" and len(written) < nregs:
            q = draw(st.integers(0, p - 1))
            gates.append(Gate(MEASURE, (q,), creg=len(written)))
            written.append(len(written))
            if draw(st.booleans()):
                gates.append(Gate(RESET, (q,)))
        elif block == "copies" and written:
            base = stretch()
            values = draw(st.lists(st.integers(0, 2 ** len(written) - 1), min_size=1,
                                   max_size=2 ** len(written), unique=True))
            for value in values:
                cond = tuple((r, (value >> r) & 1) for r in written)
                kinds = draw(st.sampled_from(["same", "other"]))
                gates += [gate(k if k == CNOT or kinds == "same" else draw(one_qubit), qs, cond)
                          for k, qs in base]
    order = draw(st.permutations(range(p)))
    inputs = tuple(order[:draw(st.integers(0, p))])
    return Circuit(p, inputs, tuple(range(p)), tuple(gates), nregs)


@settings(max_examples=300, deadline=None)
@given(window_circuits(), st.integers(0, 2**32 - 1))
def test_pair_windows_match_the_reference_on_angle_stacks(c, seed):
    # branch operators within 1e-12 of the reference walker at B = 1, and
    # a B = 3 stack bit for bit equal to its rows run one at a time
    assert_three_angle_sets_match(c, seed)


def test_window_circuits_hold_pair_ops_of_every_shape():
    # the pair ops the property above runs through: CNOTs both ways, a lone
    # gate between CNOTs, a CNOT-only run inside, and merged copies
    def block(cond, kind):
        return tuple(Gate(k, qs, ps, condition=cond) for k, qs, ps in (
            (U, (1,), (0.1, 0.2, 0.3, 0.4)), (CNOT, (1, 2), ()), (kind, (2,), (0.5,)),
            (CNOT, (2, 1), ()), (CNOT, (1, 2), ()), (RZ, (1,), (0.6,)), (RY, (2,), (0.7,))))

    gates = (block(None, RY) + (Gate(MEASURE, (0,), creg=0),)
             + block(((0, 0),), RX) + block(((0, 1),), RZ) + (Gate(CNOT, (0, 2)),))
    c = Circuit(3, (1, 2), (0, 1, 2), gates, 1)
    plan = static_plan(c)
    assert [op[0] for op in plan.ops] == ["pair", "measure", "pair", "perm"]
    assert [op[3].stop - op[3].start for op in plan.ops if op[0] == "pair"] == [1, 2]
    assert_matches_reference(c)
    assert_three_angle_sets_match(c, 2)


def test_a_repeated_condition_value_starts_a_new_group():
    # blocks under c0 = 0, 1, 0: the first two merge into one op per run,
    # the third fires where the first did and runs after both
    def block(s, angle):
        cond = ((0, s),)
        return (Gate(RY, (1,), (angle,), condition=cond), Gate(CNOT, (0, 1), condition=cond),
                Gate(RZ, (1,), (angle,), condition=cond))

    gates = ((Gate(U, (0,), (0.1, 0.2, 0.7, 0.3)), Gate(MEASURE, (0,), creg=0))
             + block(0, 0.4) + block(1, 1.1) + block(0, 2.3))
    c = Circuit(2, (0, 1), (0, 1), gates, 1)
    runs = [op[3] for op in static_plan(c).ops if op[0] == "run"]
    assert [np.shape(g) if type(g) is not slice else g for g in runs] == [
        slice(0, 1), (2, 2), slice(5, 7)]   # the U, blocks 1 and 2, block 3
    assert_matches_reference(c)
    assert_three_angle_sets_match(c, 0)


def test_blocks_whose_conditions_read_different_registers_merge():
    # blocks under c0 c1 = 00, 01 and c0 = 1 alone, as a K = 3 compile
    # conditions its residuals, fire in disjoint branches: one op per run
    def block(cond, angle):
        return (Gate(RY, (2,), (angle,), condition=cond), Gate(CNOT, (0, 2), condition=cond),
                Gate(RZ, (2,), (angle,), condition=cond))

    gates = ((Gate(U, (0,), (0.1, 0.2, 0.7, 0.3)), Gate(U, (1,), (0.5, 0.4, 0.9, 0.2)),
              Gate(MEASURE, (0,), creg=0), Gate(MEASURE, (1,), creg=1))
             + block(((0, 0), (1, 0)), 0.4) + block(((0, 0), (1, 1)), 1.1) + block(((0, 1),), 2.3))
    c = Circuit(3, (0, 1, 2), (0, 1, 2), gates, 2)
    runs = [op[3] for op in static_plan(c).ops if op[0] == "run"]
    assert [np.shape(g) if type(g) is not slice else g for g in runs] == [
        slice(0, 1), slice(1, 2), (3, 2)]   # the two U gates, then the three blocks
    assert_matches_reference(c)
    assert_three_angle_sets_match(c, 1)


# Upper bounds on the plan ops of seed-1 measured compiles and of the
# templates: a change that stops merging conditioned blocks, or stops
# fusing two-qubit stretches into pair ops, fails here.  The last three
# shapes are padded: their compiles leave out the prefixes that cannot
# happen, and the blocks whose conditions then read fewer registers must
# still merge with their neighbours.
@pytest.mark.parametrize("shape,most", [((2, 2, 4), 9), ((2, 3, 8), 17), ((3, 3, 8), 37),
                                        ((1, 4, 8), 17), ((4, 4, 1), 31),
                                        ((2, 3, 3), 13), ((3, 2, 6), 28), ((3, 3, 5), 37)])
def test_measured_plan_sizes(shape, most):
    c = compile_measured(random_channel(*shape, seed=1))
    ops = len(static_plan(c).ops)
    assert ops <= most
    if shape == (4, 4, 1):   # no conditioned blocks: nothing to merge
        assert ops == most


@pytest.mark.parametrize("name,most", [("T12", 5), ("T22", 9)])
def test_template_plan_sizes(name, most):
    assert len(static_plan(template(name).circuit).ops) <= most


# --- one plan per gate structure ----------------------------------------------


PLAN_CACHE = chancomp.simulator._structure_plan


def test_circuits_of_one_structure_share_a_plan_and_keep_their_own_angles():
    base = compile_measured(random_channel(2, 2, 4, seed=3))
    rng = np.random.default_rng(5)
    circuits = [with_angles(base, rng) for _ in range(2)]
    cold = []
    for c in circuits:
        PLAN_CACHE.cache_clear()
        cold.append(_branch_ops(c)[1])
    PLAN_CACHE.cache_clear()
    warm = [_branch_ops(c) for c in circuits]
    assert warm[0][0] is warm[1][0] and not hasattr(warm[0][0], "gates")
    assert PLAN_CACHE.cache_info()[:2] == (1, 1)   # one hit, one miss
    for c, want, (_, got) in zip(circuits, cold, warm):
        assert np.array_equal(got, want)
        assert_matches_reference(c)


@pytest.mark.parametrize("gates,message", [
    ((Gate(MEASURE, (0,), creg=0), Gate(MEASURE, (1,), creg=0)), "written twice"),
    ((Gate(X, (1,), condition=((0, 1),)), Gate(MEASURE, (0,), creg=0)), "before it is written"),
    ((Gate(RESET, (0,)),), "RESET without"),
])
def test_a_structure_that_fails_a_check_raises_on_every_call(gates, message):
    c = Circuit(2, (0, 1), (0, 1), gates, 1)
    size = PLAN_CACHE.cache_info().currsize
    for angles in range(3):
        with pytest.raises(ValueError, match=message):
            circuit_to_kraus(with_angles(c, np.random.default_rng(angles)))
    assert PLAN_CACHE.cache_info().currsize == size


def test_the_plan_cache_stays_within_its_bound():
    bound = PLAN_CACHE.cache_info().maxsize
    PLAN_CACHE.cache_clear()
    for r in range(bound + 10):   # r + 1 X gates: bound + 10 structures
        static_plan(Circuit(1, (0,), (0,), (Gate(X, (0,)),) * (r + 1), 0))
    info = PLAN_CACHE.cache_info()
    assert info.misses == bound + 10 and info.currsize == bound


def test_unitaries_and_outcomes_read_their_own_angles_from_a_cached_plan():
    unitary = Circuit(2, (0, 1), (0, 1), (Gate(U, (0,), (0.0,) * 4), Gate(CNOT, (0, 1)),
                                          Gate(RY, (1,), (0.0,))), 0)
    measured = Circuit(2, (0,), (1,), (Gate(U, (0,), (0.0,) * 4), Gate(CNOT, (0, 1)),
                                       Gate(MEASURE, (0,), creg=0),
                                       Gate(RY, (1,), (0.0,), condition=((0, 1),))), 1)
    psi = np.array([0.6, 0.8j])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        a, b = with_angles(unitary, rng), with_angles(measured, rng)
        hits = PLAN_CACHE.cache_info().hits
        got_u, got_p = simulate_unitary(a), outcome_distribution(b, psi)
        if seed:
            assert PLAN_CACHE.cache_info().hits == hits + 2
        assert np.max(np.abs(got_u - reference_branches(a)[0][1])) < 1e-12
        want = {}
        for outcome, op in reference_branches(b):
            want[outcome] = want.get(outcome, 0.0) + np.linalg.norm(op @ psi) ** 2
        assert got_p.keys() == want.keys()
        assert all(abs(got_p[o] - want[o]) < 1e-12 for o in want)


def test_plan_arrays_are_read_only():
    # a measured compile with RESETs, merged conditioned blocks and pair
    # ops: every array of its plan, the shared ones and the pair tables
    # included, refuses writes
    c = compile_measured(random_channel(2, 2, 4, seed=4))
    plan = static_plan(c)
    slots, steps = plan.windows
    tables = list(slots) + [x for step in steps for x in step[1:] if x is not None]
    arrays = [plan.embedding, plan.out_rows, plan.fixed, plan.fills, plan.x_mask] + tables + [
        x for op in plan.ops for x in op[1:] if isinstance(x, np.ndarray)]
    kinds = {op[0] for op in plan.ops}
    assert kinds == {"measure", "perm", "run", "pair"}
    assert any(isinstance(op[3], np.ndarray) for op in plan.ops if op[0] == "run")
    assert any(isinstance(op[4], np.ndarray) for op in plan.ops if op[0] == "pair")
    assert slots and len(steps) > 1 and all(a.ndim for a in tables)
    assert all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        plan.embedding[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        next(op[2] for op in plan.ops if op[0] == "perm")[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        plan.fixed[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        steps[1][3][0, 0] = 0
    # the layout of a structure without single-qubit gates is read-only too,
    # and run_plan copies it all the same
    empty = static_plan(Circuit(1, (0,), (0,), (), 0))
    assert empty.fixed.shape == (0,) and not empty.fixed.flags.writeable
    assert np.array_equal(run_plan(empty, np.zeros((2, 0))), [[np.eye(2)]] * 2)


def test_kraus_operators_are_the_nonzero_branches_in_order():
    # the disposed ancilla reads its own outcome, so two of the four
    # branch operators vanish and the other two are kept as they are
    gates = (Gate(RY, (0,), (1.0,)), Gate(MEASURE, (0,), creg=0),
             Gate(RY, (1,), (0.4,), condition=((0, 1),)))
    c = Circuit(2, (1,), (1,), gates, 1)
    branches = _branch_ops(c)[1]
    want = [a for a in branches if np.linalg.norm(a) > 1e-12]
    got = circuit_to_kraus(c).ops
    assert (len(branches), len(want), len(got)) == (4, 2, 2)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
