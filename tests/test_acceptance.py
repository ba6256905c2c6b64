"""Acceptance suite: every shipped guarantee, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.  The corpus fixtures are module-scoped, so the 200
compilations happen once.
"""

import math

import numpy as np
import pytest

from chancomp.bounds import (
    lb_measured_qcm,
    lb_qcm_isometry,
    lb_random_qcm,
    param_count_extreme,
)
from chancomp.channel import (
    KrausSet,
    choi_distance,
    choi_from_kraus,
    is_extreme,
    kraus_rank,
    random_channel,
    stinespring_isometry,
)
from chancomp.circuit import CNOT, MEASURE, RY, U, X, Circuit, Gate, cnot_count
from chancomp.compiler import compile_measured, compile_qcm, predict_upper_bound
from chancomp.rewrite import classicalize_controls, drop_dead_unitaries, standard_passes
from chancomp.simulator import circuit_to_kraus, outcome_distribution
from chancomp.synth import n_iso
from chancomp.templates import fit, template

H_PARAMS = (np.pi / 2, 0.0, np.pi / 2, np.pi)


def corpus_triples():
    """All (m, n, K) with m, n in 1..3, K up to min(2^{m+n}, 8), for which
    a channel of that Kraus rank exists."""
    triples = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for kr in range(1, min(2 ** (m + n), 8) + 1):
                if n + max(kr - 1, 0).bit_length() < m:
                    continue
                if kr * 2**n < 2**m:
                    continue  # no channel of this rank exists
                triples.append((m, n, kr))
    return triples


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random channels spanning the triple grid, compiled raw."""
    triples = corpus_triples()
    entries = []
    i = 0
    while len(entries) < 200:
        m, n, kr = triples[i % len(triples)]
        seed = 10_000 + i
        ks = random_channel(m, n, kr, seed)
        circ = compile_measured(ks)
        _, k = stinespring_isometry(ks)
        entries.append((m, n, kr, k, ks, circ))
        i += 1
    return entries


def test_criterion_1_oracle_equivalence(corpus):
    worst = 0.0
    for m, n, kr, k, ks, circ in corpus:
        d = choi_distance(choi_from_kraus(circuit_to_kraus(circ)), choi_from_kraus(ks))
        worst = max(worst, d)
        assert d < 1e-8, (m, n, kr)
    print(f"\nACCEPTANCE 1 oracle equivalence over 200 channels: PASS "
          f"(worst choi_dist={worst:.2e})")


def test_criterion_2_resource_budgets(corpus):
    for m, n, kr, k, ks, circ in corpus:
        want_qubits = n if m < n else m + 1
        assert circ.num_qubits == want_qubits, (m, n, kr)
        measures = sum(1 for g in circ.gates if g.kind == MEASURE)
        assert measures == k, (m, n, kr)
    print("\nACCEPTANCE 2 qubit and measurement budgets: PASS "
          "(qubits = n if m<n else m+1; measurements = k, all 200 channels)")


def test_criterion_3_count_formula(corpus):
    for m, n, kr, k, ks, circ in corpus:
        worst, uniform = cnot_count(circ)
        assert uniform, (m, n, kr)
        assert worst == predict_upper_bound(m, n, k), (m, n, kr)
    print("\nACCEPTANCE 3 CNOT count formula: PASS "
          "(worst case equals the case-split prediction exactly; all branches uniform)")


def test_criterion_4_small_case_counts():
    counts = {tid: template(tid).cnot_count for tid in ("T11", "T12", "T21", "T22")}
    assert counts == {"T11": 1, "T12": 4, "T21": 7, "T22": 13}
    budget = n_iso(1, 2) - 1
    for seed in (1, 2, 3):
        ks = random_channel(1, 1, 2, seed)
        piped = classicalize_controls(drop_dead_unitaries(compile_measured(ks)))
        worst, _ = cnot_count(piped)
        assert worst <= budget, seed
        d = choi_distance(choi_from_kraus(circuit_to_kraus(piped)), choi_from_kraus(ks))
        assert d < 1e-8
    print(f"\nACCEPTANCE 4 small-case counts: PASS "
          f"(templates 1/4/7/13; rewritten 1->1 pipeline <= {budget} CNOTs)")


def test_criterion_5_bound_tables(corpus):
    import json
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "golden_bounds.json").read_text()
    )
    for m in range(6):
        for n in range(6):
            want = golden[f"{m},{n}"]
            assert lb_random_qcm(m, n) == want["lb_random"]
            assert lb_measured_qcm(m, n) == want["lb_measured"]
            assert lb_qcm_isometry(m, n) == want["lb_qcm_isometry"]
            assert param_count_extreme(m, n) == want["param_count_extreme"]
    # spot checks worked by hand from the printed formulas
    assert (lb_random_qcm(1, 1), lb_random_qcm(1, 2)) == (2, 5)
    assert (lb_measured_qcm(1, 2), lb_measured_qcm(2, 2), lb_measured_qcm(2, 1)) == (2, 2, 0)
    assert (param_count_extreme(1, 1), param_count_extreme(2, 2)) == (8, 96)
    for m, n, kr, k, ks, circ in corpus:
        assert cnot_count(circ)[0] >= lb_measured_qcm(m, n), (m, n, kr)
    print("\nACCEPTANCE 5 bound tables: PASS "
          "(grid 0..5 matches golden file; compiled counts never beat the lower bound)")


def _random_measured_circuit(rng):
    p = int(rng.integers(2, 4))
    gates, reg = [], 0
    for _ in range(int(rng.integers(4, 14))):
        kind = rng.choice(["RY", "RZ", "U", "CNOT", "MEASURE"])
        q = int(rng.integers(0, p))
        if kind == "CNOT":
            q2 = (q + 1 + int(rng.integers(0, p - 1))) % p
            gates.append(Gate(CNOT, (q, q2)))
        elif kind == "MEASURE":
            if reg >= 2:
                continue
            gates.append(Gate(MEASURE, (q,), creg=reg))
            if rng.random() < 0.5:
                gates.append(Gate(X, (int(rng.integers(0, p)),), condition=((reg, 1),)))
            reg += 1
        elif kind == "U":
            gates.append(Gate("U", (q,), tuple(rng.uniform(-3, 3, 4))))
        else:
            gates.append(Gate(kind, (q,), (float(rng.uniform(-3, 3)),)))
    return Circuit(p, tuple(range(p)), (p - 1,), tuple(gates), 2)


def test_criterion_6_rewrite_soundness(corpus):
    rng = np.random.default_rng(2024)
    circuits = [circ for _, _, _, _, _, circ in corpus[:60]]
    circuits += [compile_qcm(random_channel(1, 1, 2, 500 + s)) for s in range(10)]
    circuits += [compile_qcm(random_channel(1, 2, 2, 600 + s)) for s in range(10)]
    circuits += [_random_measured_circuit(rng) for _ in range(20)]
    assert len(circuits) == 100
    for circ in circuits:
        before = choi_from_kraus(circuit_to_kraus(circ))
        base_count = cnot_count(circ)[0]
        for pass_fn in (drop_dead_unitaries, classicalize_controls, standard_passes):
            out = pass_fn(circ)
            d = choi_distance(before, choi_from_kraus(circuit_to_kraus(out)))
            assert d < 1e-10
            assert cnot_count(out)[0] <= base_count
    print("\nACCEPTANCE 6 rewrite soundness: PASS "
          "(both passes channel-preserving at 1e-10 on 100 circuits, counts never grow)")


def test_criterion_7_extremality_and_rank():
    I2 = np.eye(2)
    X2 = np.array([[0, 1], [1, 0]], dtype=complex)
    Y2 = np.array([[0, -1j], [1j, 0]])
    Z2 = np.diag([1.0, -1.0]).astype(complex)
    unitary = KrausSet(1, 1, [X2])
    assert is_extreme(unitary) and kraus_rank(unitary) == 1
    depol = KrausSet(1, 1, [I2 / 2, X2 / 2, Y2 / 2, Z2 / 2])
    assert kraus_rank(depol) == 4 and not is_extreme(depol)
    for g10 in range(1, 10):
        gamma = g10 / 10.0
        ad = KrausSet(1, 1, [
            np.diag([1.0, math.sqrt(1 - gamma)]).astype(complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
        ])
        assert kraus_rank(ad) == 2, gamma
        assert is_extreme(ad), gamma
    print("\nACCEPTANCE 7 extremality and rank: PASS "
          "(unitary extreme; depolarizing rank 4 not extreme; damping rank 2 extreme)")


def test_criterion_8_template_fitting():
    t11 = template("T11")
    ok11 = 0
    for seed in range(100):
        ks = random_channel(1, 1, 2, seed)
        _, d = fit(t11, ks, starts=20, tol=1e-6, seed=7000 + seed)
        ok11 += d < 1e-6
    assert ok11 >= 95, ok11
    t12 = template("T12")
    ok12 = 0
    for seed in range(100):
        ks = random_channel(1, 2, 2, seed)
        _, d = fit(t12, ks, starts=40, tol=1e-4, seed=8000 + seed)
        ok12 += d < 1e-4
    assert ok12 >= 80, ok12
    print(f"\nACCEPTANCE 8 template fitting: PASS "
          f"(T11 {ok11}/100 at 1e-6; T12 {ok12}/100 at 1e-4)")


def _rank1_circuits():
    coin = Circuit(2, (1,), (1,),
                   (Gate(U, (0,), H_PARAMS), Gate(MEASURE, (0,), creg=0)), 1)
    corrected = Circuit(2, (1,), (1,), (
        Gate(U, (0,), H_PARAMS),
        Gate(CNOT, (0, 1)),
        Gate(MEASURE, (0,), creg=0),
        Gate(X, (1,), condition=((0, 1),)),
    ), 1)
    biased = Circuit(2, (1,), (1,), (
        Gate(RY, (0,), (0.9,)),
        Gate(CNOT, (0, 1)),
        Gate(MEASURE, (0,), creg=0),
        Gate(X, (1,), condition=((0, 1),)),
    ), 1)
    return [coin, corrected, biased]


def test_criterion_9_outcome_independence():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for circ in _rank1_circuits():
        assert kraus_rank(circuit_to_kraus(circ)) == 1
        baseline = None
        for _ in range(20):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            dist = outcome_distribution(circ, psi)
            if baseline is None:
                baseline = dist
            for key in baseline:
                worst = max(worst, abs(dist[key] - baseline[key]))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 9 outcome independence for rank-1 circuits: PASS "
          f"(max deviation {worst:.2e} over 20 states x 3 circuits)")
