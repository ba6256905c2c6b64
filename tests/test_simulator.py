import numpy as np
import pytest

from chancomp.channel import choi_distance, choi_from_kraus, kraus_rank
from chancomp.circuit import (
    CNOT,
    MEASURE,
    RESET,
    RY,
    RZ,
    U,
    X,
    Circuit,
    Gate,
    parse,
    serialize,
)
from chancomp.simulator import (
    circuit_to_branches,
    circuit_to_kraus,
    input_embedding,
    outcome_distribution,
    simulate_unitary,
)

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


def test_input_embedding_nonstandard_order():
    c = Circuit(2, (1,), (1,), (), 0)
    e = input_embedding(c)
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
    for b in circuit_to_branches(c):
        # ancilla (most significant qubit) must carry no |1> amplitude
        assert np.linalg.norm(b.op[2:, :]) < 1e-12


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
        input_embedding(c)


def test_simulator_accepts_largest_compiled_size():
    # (3,3,8) compiles to 4 qubits, 3 inputs and 3 measurements: 10 of 20
    gates = tuple(Gate(MEASURE, (0,), creg=r) for r in range(3))
    c = Circuit(4, (1, 2, 3), (1, 2, 3), gates, 3)
    assert len(circuit_to_branches(c)) == 2 * 2**3
