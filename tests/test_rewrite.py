import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancomp.channel import choi_distance, choi_from_kraus, random_channel
from chancomp.circuit import (
    CNOT,
    MEASURE,
    RESET,
    RY,
    RZ,
    TRACE,
    U,
    X,
    Circuit,
    Gate,
    cnot_count,
)
from chancomp.compiler import compile_measured, compile_qcm
from chancomp.rewrite import classicalize_controls, drop_dead_unitaries, standard_passes
from chancomp.simulator import circuit_to_kraus
from test_circuit import circuits


def channel_of(circ):
    return choi_from_kraus(circuit_to_kraus(circ))


def assert_channel_preserved(before, after, tol=1e-10):
    assert choi_distance(channel_of(before), channel_of(after)) < tol


def test_drop_unitary_before_trace():
    gates = (Gate(U, (0,), (0.1, 0.2, 0.3, 0.4)), Gate(TRACE, (0,)))
    c = Circuit(2, (1,), (1,), gates, 0)
    out = drop_dead_unitaries(c)
    assert [g.kind for g in out.gates] == [TRACE]
    assert_channel_preserved(c, out)


def test_drop_cnot_when_both_futures_traced():
    gates = (
        Gate(RY, (2,), (0.4,)),
        Gate(CNOT, (0, 1)),
        Gate(TRACE, (0,)),
        Gate(TRACE, (1,)),
    )
    c = Circuit(3, (2,), (2,), gates, 0)
    out = drop_dead_unitaries(c)
    assert all(g.kind != CNOT for g in out.gates)
    assert_channel_preserved(c, out)


def test_keep_cnot_when_only_control_traced():
    gates = (
        Gate(RY, (0,), (1.2,)),
        Gate(CNOT, (0, 1)),
        Gate(TRACE, (0,)),
    )
    c = Circuit(2, (1,), (1,), gates, 0)
    out = drop_dead_unitaries(c)
    assert any(g.kind == CNOT for g in out.gates)
    assert_channel_preserved(c, out)
    # removing the CNOT by hand would change the channel
    broken = Circuit(2, (1,), (1,), (gates[0], gates[2]), 0)
    assert choi_distance(channel_of(c), channel_of(broken)) > 1e-3


def test_drop_unitary_before_discarding_measure():
    gates = (
        Gate(U, (0,), (0.5, 1.0, 0.7, -0.2)),
        Gate(MEASURE, (0,), creg=0),
    )
    c = Circuit(2, (1,), (1,), gates, 1)
    out = drop_dead_unitaries(c)
    assert [g.kind for g in out.gates] == [MEASURE]
    assert_channel_preserved(c, out)


def test_keep_unitary_when_measure_register_is_read():
    gates = (
        Gate(RY, (0,), (0.9,)),
        Gate(MEASURE, (0,), creg=0),
        Gate(X, (1,), condition=((0, 1),)),
    )
    c = Circuit(2, (1,), (1,), gates, 1)
    out = drop_dead_unitaries(c)
    assert [g.kind for g in out.gates] == [RY, MEASURE, X]


def test_classicalize_basic_pattern():
    gates = (Gate(CNOT, (0, 1)), Gate(MEASURE, (0,), creg=0))
    c = Circuit(2, (0, 1), (1,), gates, 1)
    out = classicalize_controls(c)
    kinds = [g.kind for g in out.gates]
    assert kinds == [MEASURE, X]
    assert out.gates[1].condition == ((0, 1),)
    assert cnot_count(out)[0] == cnot_count(c)[0] - 1
    assert_channel_preserved(c, out)


def test_classicalize_chain_of_cnots():
    gates = (
        Gate(CNOT, (0, 1)),
        Gate(CNOT, (0, 2)),
        Gate(MEASURE, (0,), creg=0),
    )
    c = Circuit(3, (0, 1, 2), (1, 2), gates, 1)
    out = classicalize_controls(c)
    assert cnot_count(out)[0] == 0
    # CNOT(0,2) frees CNOT(0,1) once it goes; each X lands right after the MEASURE
    assert out.gates == (Gate(MEASURE, (0,), creg=0), Gate(X, (1,), condition=((0, 1),)),
                         Gate(X, (2,), condition=((0, 1),)))
    assert_channel_preserved(c, out)


def test_classicalize_blocked_by_target_gate():
    gates = (
        Gate(CNOT, (0, 1)),
        Gate(RY, (1,), (0.3,)),
        Gate(MEASURE, (0,), creg=0),
    )
    c = Circuit(2, (0, 1), (1,), gates, 1)
    out = classicalize_controls(c)
    assert out.gates == c.gates


def test_classicalize_blocked_by_control_gate():
    gates = (
        Gate(CNOT, (0, 1)),
        Gate(RZ, (0,), (0.3,)),
        Gate(MEASURE, (0,), creg=0),
    )
    c = Circuit(2, (0, 1), (1,), gates, 1)
    assert classicalize_controls(c).gates == c.gates


def test_classicalize_preserves_existing_condition():
    gates = (
        Gate(MEASURE, (1,), creg=0),
        Gate(CNOT, (0, 2), condition=((0, 1),)),
        Gate(MEASURE, (0,), creg=1),
    )
    c = Circuit(3, (0, 2), (2,), gates, 2)
    out = classicalize_controls(c)
    x = [g for g in out.gates if g.kind == X]
    assert len(x) == 1 and set(x[0].condition) == {(0, 1), (1, 1)}
    assert_channel_preserved(c, out)


def random_measured_circuit(rng):
    p = int(rng.integers(2, 4))
    nregs = 2
    gates = []
    reg = 0
    for _ in range(int(rng.integers(3, 14))):
        kind = rng.choice([RY, RZ, U, CNOT, MEASURE])
        q = int(rng.integers(0, p))
        if kind == CNOT:
            q2 = (q + 1 + int(rng.integers(0, p - 1))) % p
            gates.append(Gate(CNOT, (q, q2)))
        elif kind == MEASURE:
            if reg >= nregs:
                continue
            gates.append(Gate(MEASURE, (q,), creg=reg))
            if rng.random() < 0.5:
                q2 = int(rng.integers(0, p))
                gates.append(Gate(X, (q2,), condition=((reg, 1),)))
            reg += 1
        elif kind == U:
            gates.append(Gate(U, (q,), tuple(rng.uniform(-3, 3, 4))))
        else:
            gates.append(Gate(kind, (q,), (float(rng.uniform(-3, 3)),)))
    outputs = (p - 1,)
    return Circuit(p, tuple(range(p)), outputs, tuple(gates), nregs)


def rewrite_corpus():
    circuits = []
    rng = np.random.default_rng(77)
    for seed in range(8):
        circuits.append(compile_measured(random_channel(1, 1, 2, seed)))
        circuits.append(compile_qcm(random_channel(1, 1, 2, 100 + seed)))
    circuits.append(compile_measured(random_channel(1, 2, 2, 7)))
    circuits.append(compile_measured(random_channel(2, 1, 4, 8)))
    for _ in range(15):
        circuits.append(random_measured_circuit(rng))
    circuits += [cascade_across_two_measures(), cnot_run_on_one_control()]
    return circuits


def cascade_across_two_measures():
    # CNOT b->t goes first and frees CNOT a->t; each X follows its own MEASURE
    gates = (Gate(CNOT, (0, 2)), Gate(CNOT, (1, 2)),
             Gate(MEASURE, (0,), creg=0), Gate(MEASURE, (1,), creg=1))
    return Circuit(3, (0, 1, 2), (2,), gates, 2)


def cnot_run_on_one_control():
    # six CNOTs from qubit 0, some onto the same target, some conditioned
    gates = [Gate(RY, (0,), (0.7,)), Gate(MEASURE, (3,), creg=0)]
    for t in (1, 2, 1, 3, 2, 1):
        gates.append(Gate(CNOT, (0, t), condition=((0, 1),) if t == 3 else None))
    gates.append(Gate(MEASURE, (0,), creg=1))
    return Circuit(4, (0, 1, 2, 3), (1, 2), tuple(gates), 2)


def test_classicalize_cascade_across_two_measures():
    c = cascade_across_two_measures()
    out = classicalize_controls(c)
    assert out.gates == (Gate(MEASURE, (0,), creg=0), Gate(X, (2,), condition=((0, 1),)),
                         Gate(MEASURE, (1,), creg=1), Gate(X, (2,), condition=((1, 1),)))
    assert_channel_preserved(c, out)


def test_classicalize_run_keeps_the_cnot_order():
    c = cnot_run_on_one_control()
    out = classicalize_controls(c)
    fixes = [Gate(X, (t,), condition=((0, 1), (1, 1)) if t == 3 else ((1, 1),))
             for t in (1, 2, 1, 3, 2, 1)]
    assert out.gates == c.gates[:2] + (c.gates[-1],) + tuple(fixes)
    assert_channel_preserved(c, out)


@pytest.mark.parametrize("idx,circ", list(enumerate(rewrite_corpus())))
def test_passes_preserve_channel_and_never_add_cnots(idx, circ):
    before = channel_of(circ)
    for pass_fn in (drop_dead_unitaries, classicalize_controls):
        out = pass_fn(circ)
        assert choi_distance(before, channel_of(out)) < 1e-10
        assert cnot_count(out)[0] <= cnot_count(circ)[0]
        again = pass_fn(out)
        assert again.gates == out.gates  # idempotent
    both = standard_passes(circ)
    assert choi_distance(before, channel_of(both)) < 1e-10


def test_compiled_pipeline_keeps_its_one_cnot():
    # a 1->1 rank-2 round is one CNOT onto the ancilla, which nothing can remove
    ks = random_channel(1, 1, 2, seed=5)
    circ = compile_measured(ks)
    out = standard_passes(circ)
    assert cnot_count(circ)[0] == cnot_count(out)[0] == 1
    assert_channel_preserved(circ, out, 1e-8)


@settings(max_examples=300, deadline=None)
@given(circuits().filter(lambda c: c.num_qubits <= 3))
def test_standard_passes_preserve_channel_property(c):
    # conditioned gates, measure/reset pairs, traced and unread qubits
    out = standard_passes(c)
    assert_channel_preserved(c, out)
    assert cnot_count(out)[0] <= cnot_count(c)[0]


# --- the one-scan passes against the plain loop forms ------------------------


def reference_drop_dead(c):
    """drop_dead_unitaries as a fixpoint of backward scans with live sets."""
    gates = c.gates
    while True:
        used = {r for g in gates if g.condition for r, _ in g.condition}
        live, kept = set(c.output_qubits), []
        for g in reversed(gates):
            if g.kind == TRACE:
                live.discard(g.qubits[0])
            elif g.kind == MEASURE:
                if g.creg in used:
                    live.add(g.qubits[0])
            elif g.kind != RESET:
                if not live & set(g.qubits):
                    continue
                live.update(g.qubits)
            kept.append(g)
        new = tuple(reversed(kept))
        if new == gates:
            return gates
        gates = new


def reference_classicalize(c):
    """classicalize_controls as a restart loop: rewrite the first CNOT whose
    next gate on control or target is a MEASURE of its control, then start
    the search again from gate 0."""
    gates = list(c.gates)
    while True:
        for i, g in enumerate(gates):
            if g.kind != CNOT:
                continue
            ctrl, tgt = g.qubits
            nxt = next((j for j in range(i + 1, len(gates))
                        if {ctrl, tgt} & set(gates[j].qubits)), None)
            if (nxt is not None and gates[nxt].kind == MEASURE
                    and gates[nxt].qubits == (ctrl,)):
                break
        else:
            return tuple(gates)
        meas = gates[nxt]
        fix = Gate(X, (tgt,), condition=tuple(g.condition or ()) + ((meas.creg, 1),))
        gates.insert(nxt + 1, fix)
        del gates[i]


@st.composite
def measured_cnot_circuits(draw):
    """Circuits dense in CNOTs and measurements, so that both rewrites fire."""
    p = draw(st.integers(2, 4))
    gates, nregs = [], 0
    for _ in range(draw(st.integers(0, 30))):
        q = draw(st.integers(0, p - 1))
        kind = draw(st.sampled_from([CNOT, CNOT, CNOT, MEASURE, MEASURE, X, RZ]))
        if kind == CNOT:
            t = draw(st.integers(0, p - 2))
            cond = ((0, 1),) if nregs and draw(st.booleans()) else None
            gates.append(Gate(CNOT, (q, t + (t >= q)), condition=cond))
        elif kind == MEASURE:
            gates.append(Gate(MEASURE, (q,), creg=nregs))
            nregs += 1
        elif kind == X and nregs:
            gates.append(Gate(X, (q,), condition=((draw(st.integers(0, nregs - 1)), 1),)))
        else:
            gates.append(Gate(RZ, (q,), (0.5,)))
    traced = draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p - 1))
    gates.extend(Gate(TRACE, (q,)) for q in traced)
    outputs = tuple(q for q in range(p) if q not in traced)
    return Circuit(p, tuple(range(p)), outputs, tuple(gates), nregs)


def _check_against_reference(c):
    for pass_fn, reference in ((drop_dead_unitaries, reference_drop_dead),
                               (classicalize_controls, reference_classicalize)):
        want = reference(c)
        out = pass_fn(c)
        assert out.gates == want
        assert (out is c) == (want == c.gates)


@settings(max_examples=800, deadline=None)
@given(st.one_of(circuits(), measured_cnot_circuits()))
def test_passes_match_plain_loop_form_property(c):
    _check_against_reference(c)


@pytest.mark.parametrize("idx,circ", list(enumerate(rewrite_corpus())))
def test_passes_match_plain_loop_form_on_corpus(idx, circ):
    _check_against_reference(circ)
    _check_against_reference(drop_dead_unitaries(circ))
