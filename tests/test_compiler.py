import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from chancomp.bounds import table1
from chancomp.channel import KrausSet, kraus_distance, random_channel, stinespring_isometry
from chancomp.circuit import CNOT, MEASURE, RESET, TRACE, cnot_count
from chancomp.compiler import (
    MAX_COMPILE_QUBITS,
    ConvexMixture,
    compile_measured,
    compile_qcm,
    compile_random_qcm,
    outcome_conditions,
    plan_measured,
    predict_upper_bound,
    reconstruct_dilation,
    round_cnots,
    verify_circuit,
    verify_mixture,
)
from chancomp.linalg import qr_rectangular
from chancomp.rewrite import standard_passes
from chancomp.synth import decompose_isometries, decompose_isometry, n_iso
from chancomp.templates import template
from reference_walker import reference_branches

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def dephasing_like(p=0.25):
    return KrausSet(1, 1, [np.sqrt(1 - p) * I2, np.sqrt(p) * np.diag([1.0, -1.0])])


def count_measures(circ):
    return sum(1 for g in circ.gates if g.kind == MEASURE)


def test_plan_unitary_channel():
    plan = plan_measured(KrausSet(1, 1, [I2]))
    assert plan.k == 0 and plan.k_tilde == 0
    assert plan.stages == () and plan.finals.shape == (1, 2, 2)


def assert_round(stage, m, prefixes):
    """One round is (v^dag, theta) stacked over its prefixes: an m-qubit
    unitary and 2^m angles per prefix."""
    vh, theta = stage
    assert vh.shape == (prefixes, 2**m, 2**m) and theta.shape == (prefixes, 2**m)
    assert np.linalg.norm(vh @ vh.conj().swapaxes(-1, -2) - np.eye(2**m)) < 1e-12


def test_plan_rank2_square_channel():
    # m >= n: n + k - m rounds, then one m-qubit unitary per outcome
    plan = plan_measured(dephasing_like())
    assert (plan.m, plan.n, plan.k) == (1, 1, 1)
    assert plan.k_tilde == 1
    assert len(plan.stages) == 1
    assert_round(plan.stages[0], 1, 1)
    assert plan.finals.shape == (2, 2, 2)   # prefixes "0" and "1"


def test_plan_one_to_two_rank2():
    ks = random_channel(1, 2, 2, seed=3)
    plan = plan_measured(ks)
    assert (plan.k, plan.k_tilde) == (1, 1)
    assert len(plan.stages) == 1
    assert_round(plan.stages[0], 1, 1)
    assert plan.finals.shape == (2, 4, 2)


@pytest.mark.parametrize(
    "m,n,kr,seed",
    [(1, 1, 2, 0), (1, 2, 2, 1), (1, 2, 4, 2), (2, 1, 4, 3), (2, 2, 3, 4),
     (1, 3, 8, 5), (2, 2, 8, 6), (3, 2, 4, 7)],
)
def test_plan_reconstruction_identity(m, n, kr, seed):
    ks = random_channel(m, n, kr, seed)
    plan = plan_measured(ks)
    v, _ = stinespring_isometry(ks)
    assert np.linalg.norm(reconstruct_dilation(plan) - v) < 1e-8


@pytest.mark.parametrize("m,n,kr,seed", [(1, 1, 2, 50), (1, 2, 3, 51), (2, 2, 3, 52),
                                         (2, 1, 4, 53), (1, 2, 1, 54)])
def test_plan_forced_k_rank_deficient(m, n, kr, seed):
    # one more environment qubit than needed: the stack gains zero blocks,
    # so the QR recursion meets rank-deficient halves
    ks = random_channel(m, n, kr, seed)
    _, k = stinespring_isometry(ks)
    v, _ = stinespring_isometry(ks, force_k=k + 1)
    assert np.linalg.norm(v[len(v) // 2:]) == 0
    plan = plan_measured(ks, force_k=k + 1)
    assert plan.k == k + 1
    assert np.linalg.norm(reconstruct_dilation(plan) - v) < 1e-10
    assert verify_circuit(compile_measured(ks, force_k=k + 1), ks) < 1e-8


def test_compile_measured_dephasing():
    ks = dephasing_like()
    circ = compile_measured(ks)
    assert circ.num_qubits == 2
    assert count_measures(circ) == 1
    assert verify_circuit(circ, ks) < 1e-8


def test_compile_measured_identity():
    ks = KrausSet(1, 1, [I2])
    circ = compile_measured(ks)
    assert count_measures(circ) == 0
    assert cnot_count(circ)[0] == 0
    assert verify_circuit(circ, ks) < 1e-10


def test_compile_measured_two_to_one():
    ks = random_channel(2, 1, 4, seed=11)
    circ = compile_measured(ks)
    assert circ.num_qubits == 3  # m + 1
    assert count_measures(circ) == 2
    assert verify_circuit(circ, ks) < 1e-8


def test_compile_measured_trace_edge_case():
    # n + k = m: V is a plain unitary, then k discarding measurements; the
    # unitary's one leaf is built up to a diagonal that follows them
    ks = random_channel(2, 1, 2, seed=13)
    circ = compile_measured(ks)
    assert circ.num_qubits == 3
    assert count_measures(circ) == 1
    assert cnot_count(circ)[0] == 2
    assert verify_circuit(circ, ks) < 1e-8


def test_compile_measured_state_preparation():
    ks = random_channel(0, 1, 2, seed=17)
    circ = compile_measured(ks)
    assert circ.num_qubits == 1
    assert circ.input_qubits == ()
    assert count_measures(circ) == 1
    assert verify_circuit(circ, ks) < 1e-8


def test_compile_measured_discard_all_outputs():
    ks = random_channel(1, 0, 2, seed=19)
    circ = compile_measured(ks)
    assert circ.output_qubits == ()
    assert count_measures(circ) == 1
    assert verify_circuit(circ, ks) < 1e-8


GRID = [
    (1, 1, 1, 21), (1, 1, 2, 22), (1, 1, 3, 23), (1, 1, 4, 24),
    (1, 2, 1, 25), (1, 2, 2, 26), (1, 2, 5, 27),
    (2, 1, 2, 28), (2, 1, 4, 29), (2, 1, 6, 30),
    (2, 2, 1, 31), (2, 2, 2, 32), (2, 2, 4, 33), (2, 2, 6, 34),
    (1, 3, 3, 35), (3, 1, 4, 36), (3, 2, 2, 37), (2, 3, 7, 38),
]


@pytest.mark.parametrize("m,n,kr,seed", GRID)
def test_compile_measured_grid(m, n, kr, seed):
    ks = random_channel(m, n, kr, seed)
    circ = compile_measured(ks)
    _, k = stinespring_isometry(ks)
    # resource budgets
    assert circ.num_qubits == (n if m < n else m + 1)
    assert count_measures(circ) == k
    # CNOT count: uniform across branches and exactly the predicted value
    worst, uniform = cnot_count(circ)
    assert uniform
    assert worst == predict_upper_bound(m, n, k)
    # channel oracle
    assert verify_circuit(circ, ks) < 1e-8


# every (m, n, K) with m = 0..3, n = 1..3, K <= 8 that a channel has, up to m + n + k = 8
FIXED_POINT_SHAPES = [(m, n, kr) for m in range(4) for n in range(1, 4) for kr in range(1, 9)
                      if kr <= 2 ** (m + n) and kr * 2**n >= 2**m
                      and m + n + (kr - 1).bit_length() <= 8]


def test_compiles_are_the_fixed_point_of_the_rewrite():
    # the compiler emits no gate the rewrite would drop or classicalize,
    # under every model
    compiled = [compile_fn(random_channel(m, n, kr, seed))
                for m, n, kr in FIXED_POINT_SHAPES for seed in range(3)
                for compile_fn in (compile_measured, compile_qcm)]
    for seed, (m, ranks) in enumerate([(2, (2, 3, 4)), (3, (4, 6, 8))]):
        mix = ConvexMixture([(1 / len(ranks), random_channel(m, 1, kr, seed + kr))
                             for kr in ranks])
        compiled += [c for _, c in compile_random_qcm(mix)]
    assert len(compiled) == 444
    assert [c for c in compiled if standard_passes(c) is not c] == []


def _dead_tails(c):
    """(register assignment, gate index) of each single-qubit unitary after
    which its qubit, not an output, meets only a TRACE or a MEASURE into a
    register no gate reads, in the gates that assignment runs."""
    read = {r for g in c.gates for r, _ in g.condition or ()}
    found = []
    for bits in itertools.product((0, 1), repeat=c.num_cregs):
        last = {}
        for i, g in enumerate(c.gates):
            if any(bits[r] != b for r, b in g.condition or ()):
                continue
            if g.kind != TRACE and not (g.kind == MEASURE and g.creg not in read):
                last.update(dict.fromkeys(g.qubits, i))
        found += [(bits, i) for q, i in last.items() if q not in c.output_qubits
                  and len(c.gates[i].qubits) == 1 and c.gates[i].kind not in (MEASURE, RESET)]
    return found


@pytest.mark.parametrize("m", [2, 3])
def test_no_branch_ends_a_disposed_qubit_with_a_single_qubit_gate(m):
    # the rewrite's liveness reads no conditions, so it keeps such a gate
    # at the end of every residual block but the last; the compiler drops
    # it in every branch
    shapes = [s for s in FIXED_POINT_SHAPES if s[:2] == (m, 1)]
    for (_, _, kr), seed in itertools.product(shapes, range(3)):
        ks = random_channel(m, 1, kr, seed)
        for compile_fn in (compile_measured, compile_qcm):
            assert _dead_tails(compile_fn(ks)) == [], (compile_fn.__name__, kr, seed)


def test_every_cnot_on_the_all_zero_outcome_path_is_needed():
    # prefix 0 holds Kraus index 0 for every K, so no block on it is
    # padding: deleting any one of its CNOTs (unconditioned, or with every
    # condition bit 0) must move the channel.  Every fourth one keeps this fast.
    shapes = [(m, n, kr) for m in (1, 2, 3) for n in (1, 2, 3)
              for kr in range(1, min(2 ** (m + n), 8) + 1)
              if n + (kr - 1).bit_length() >= m and kr * 2**n >= 2**m]
    deleted = 0
    for m, n, kr in shapes:
        ks = random_channel(m, n, kr, 2)
        circ = compile_measured(ks)
        gates = circ.gates
        live = [i for i, g in enumerate(gates)
                if g.kind == CNOT and not any(b for _, b in g.condition or ())]
        for i in live[::4]:
            cut = replace(circ, gates=gates[:i] + gates[i + 1:])
            assert verify_circuit(cut, ks) > 1e-8, (m, n, kr, i)
            deleted += 1
    assert len(shapes) == 63 and deleted > 400


def test_outcome_conditions_leave_out_padding():
    # K = 3: prefix 11 holds padding only, so 10 reads no c1;
    # K = 6: 11 holds padding only, so 100 and 101 read no c1
    assert outcome_conditions(2, 3)[2] == {0: ((0, 0), (1, 0)), 1: ((0, 0), (1, 1)),
                                           2: ((0, 1),)}
    assert outcome_conditions(3, 6)[3] == {
        **{j: ((0, 0), (1, j >> 1), (2, j & 1)) for j in range(4)},
        4: ((0, 1), (2, 0)), 5: ((0, 1), (2, 1))}
    assert outcome_conditions(1, 1) == [{0: None}, {0: None}]
    for k in range(5):
        for rank in range(1, 2**k + 1):
            for d, level in enumerate(outcome_conditions(k, rank)):
                assert list(level) == [j for j in range(2**d) if j * 2 ** (k - d) < rank]
                # each assignment of the registers meets exactly one prefix
                for bits in range(2**d):
                    met = [j for j, cond in level.items()
                           if all((bits >> (d - 1 - r)) & 1 == b for r, b in cond or ())]
                    assert len(met) == 1


def _padded_shapes():
    """The corpus shapes with an outcome prefix that holds padding only:
    the last prefix of the last round's depth."""
    shapes = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for kr in range(1, min(2 ** (m + n), 8) + 1):
                k = (kr - 1).bit_length()
                k_tilde = k if m < n else n + k - m
                if k_tilde >= 0 and kr * 2**n >= 2**m and (2**k_tilde - 1) << (k - k_tilde) >= kr:
                    shapes.append((m, n, kr))
    return shapes


def test_every_cnot_of_a_padded_compile_is_needed():
    # No gate sits under an outcome prefix that cannot happen, so deleting
    # a CNOT moves the channel.  The only exemption is the blocks of a
    # prefix s at depth d < k whose bottom half, Kraus indices from
    # (2 s + 1) 2^(k - d - 1) on, is padding: a round's v^dag and Ry
    # multiplexor, or (m >= n) a residual over a leftover qubit, factor a
    # zero half, so parts of them act where no state reaches.  By K:
    # 3: prefix 1; 5: prefixes 1 and 10; 6: prefix 1; 7: prefix 11.
    # Every fourth CNOT keeps this fast.
    exempt_prefixes = {3: {(1, 1)}, 5: {(1, 1), (2, 2)}, 6: {(1, 1)}, 7: {(2, 3)}}
    shapes = _padded_shapes()
    deleted = exempt = 0
    for m, n, kr in shapes:
        k = (kr - 1).bit_length()
        ks = random_channel(m, n, kr, 3)
        circ = compile_measured(ks)
        depth, cnots = 0, []
        for i, g in enumerate(circ.gates):
            if g.kind == MEASURE:
                depth += 1
            elif g.kind == CNOT:
                bits = dict(g.condition or ())   # a register left out reads 0
                s = sum(bits.get(r, 0) << (depth - 1 - r) for r in range(depth))
                cnots.append((i, depth < k and (2 * s + 1) * 2 ** (k - depth - 1) >= kr, (depth, s)))
        for i, padded, prefix in cnots[::4]:
            if padded:
                assert prefix in exempt_prefixes[kr]
                exempt += 1
                continue
            cut = replace(circ, gates=circ.gates[:i] + circ.gates[i + 1:])
            assert verify_circuit(cut, ks) > 1e-8, (m, n, kr, i)
            deleted += 1
    assert len(shapes) == 25 and deleted > 450 and exempt > 50


@pytest.mark.parametrize("m,n,kr", [(2, 2, 4), (3, 3, 8), (4, 4, 1), (2, 1, 4), (3, 1, 8), (3, 2, 8)])
def test_every_cnot_of_a_chained_compile_is_needed(m, n, kr):
    # every prefix of these shapes holds a Kraus operator, so no block is
    # padding: a two-CNOT leaf that kept a spare CNOT, or that dropped the
    # diagonal the next leaf undoes, would survive losing a CNOT here
    ks = random_channel(m, n, kr, seed=20261020)
    circ = compile_measured(ks)
    assert verify_circuit(circ, ks) < 1e-8
    assert cnot_count(circ) == (predict_upper_bound(m, n, stinespring_isometry(ks)[1]), True)
    cnots = [i for i, g in enumerate(circ.gates) if g.kind == CNOT]
    for i in cnots:
        cut = replace(circ, gates=circ.gates[:i] + circ.gates[i + 1:])
        assert verify_circuit(cut, ks) > 1e-8, i


def _structured_two_qubit_channels():
    i2, x, z = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
    rng = np.random.default_rng(23)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lam, vec = np.linalg.eigh(h + h.conj().T)

    def near_unitary(eps):
        # Kraus operators within eps of a unitary: v^dag is near-local
        u = vec @ np.diag(np.exp(1j * eps * lam)) @ vec.conj().T
        return [np.sqrt(1 - eps) * u, np.sqrt(eps) * np.kron(x, i2)]

    return {
        "pauli": [np.sqrt(p) * np.kron(a, b)
                  for p, (a, b) in zip([0.4, 0.2, 0.2, 0.2], [(i2, i2), (x, i2), (i2, z), (x, z)])],
        "reset": [np.outer(np.eye(4)[0], np.eye(4)[j]) for j in range(4)],
        "dephasing-product": [np.kron(a, b) for a in (np.sqrt(0.7) * i2, np.sqrt(0.3) * z)
                              for b in (np.sqrt(0.9) * i2, np.sqrt(0.1) * z)],
        "near-unitary-1e-6": near_unitary(1e-6),
        "near-unitary-1e-3": near_unitary(1e-3),
    }


@pytest.mark.parametrize("name", sorted(_structured_two_qubit_channels()))
def test_structured_two_qubit_channels_compile_exactly(name):
    # basis-aligned and near-unitary channels meet leaves whose diagonal
    # the entries do not fix; each still compiles to the predicted count
    ops = _structured_two_qubit_channels()[name]
    ks = KrausSet(2, 2, [np.asarray(a, dtype=complex) for a in ops])
    circ = compile_measured(ks)
    assert cnot_count(circ) == (predict_upper_bound(2, 2, stinespring_isometry(ks)[1]), True)
    assert verify_circuit(circ, ks) < 1e-12


def test_two_to_two_worst_case_takes_the_template_count():
    # every leaf but the last one on each path is built up to a diagonal:
    # the compile reaches T22's 13 CNOTs without a fit
    for seed in range(3):
        ks = random_channel(2, 2, 4, seed)
        assert cnot_count(compile_measured(ks)) == (template("T22").cnot_count, True) == (13, True)


def _walker_distance(circ, ks):
    """Choi distance of the channel that tests/reference_walker.py reads off circ."""
    ops = [op for _, op in reference_branches(circ)]
    return kraus_distance([(1.0, KrausSet(ks.m, ks.n, ops))], [(1.0, ks)])


def _assert_measured_off_compile(ks):
    # m + 1 qubits, k measurements, uniform per-branch counts that meet the
    # prediction, the rewrite's fixed point, and the channel by both simulators
    m, n, k = ks.m, ks.n, stinespring_isometry(ks)[1]
    circ = compile_measured(ks)
    assert circ.num_qubits == m + 1 and count_measures(circ) == k
    assert cnot_count(circ) == (predict_upper_bound(m, n, k), True)
    assert standard_passes(circ) is circ
    assert verify_circuit(circ, ks) < 1e-8
    assert _walker_distance(circ, ks) < 1e-8


# the residual splits at each measured qubit: 2 at (2, 1), 14 at (3, 2),
# 13 at (3, 1), 73, 67 and 66 at (4, 3), (4, 2) and (4, 1)
@pytest.mark.parametrize("m,n,kr,residual", [
    (2, 1, 2, 2), (2, 1, 3, 2), (2, 1, 4, 2), (2, 1, 8, 2),
    (3, 1, 4, 13), (3, 1, 6, 13), (3, 1, 8, 13),
    (3, 2, 2, 14), (3, 2, 3, 14), (3, 2, 5, 14), (3, 2, 8, 14),
    (4, 1, 8, 66), (4, 2, 4, 67), (4, 3, 2, 73)])
def test_measured_off_residuals_take_the_predicted_count(m, n, kr, residual):
    k = (kr - 1).bit_length()
    assert predict_upper_bound(m, n, k) == (n + k - m) * round_cnots(m) + residual
    for seed in (1, 2):
        _assert_measured_off_compile(random_channel(m, n, kr, seed))


def _structured_measured_off_channels():
    e = [np.eye(2**q) for q in range(4)]
    prep = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / 2**0.5,
            np.array([1, 1j]) / 2**0.5]
    return {
        "partial-trace-2-1": (2, 1, [np.kron(e[1][i][None], e[1]) for i in range(2)]),
        "partial-trace-3-1": (3, 1, [np.kron(e[2][i][None], e[1]) for i in range(4)]),
        "partial-trace-3-2": (3, 2, [np.kron(e[1][i][None], e[2]) for i in range(2)]),
        "reset-and-discard-2-1": (2, 1, [np.outer(e[1][0], e[2][i]) for i in range(4)]),
        "measure-and-prepare-2-1": (2, 1, [np.outer(prep[i], e[2][i]) for i in range(4)]),
    }


@pytest.mark.parametrize("name", sorted(_structured_measured_off_channels()))
def test_structured_measured_off_channels_compile_exactly(name):
    # the residuals' top-level splits meet theta = 0 or pi and halves that
    # are exactly zero, where LAPACK's choices are free; every compile
    # still takes the predicted uniform count and realizes the channel
    m, n, ops = _structured_measured_off_channels()[name]
    _assert_measured_off_compile(KrausSet(m, n, [np.asarray(a, dtype=complex) for a in ops]))


def test_two_to_one_worst_case_takes_the_template_count():
    # the (2, 1) residual is one leaf built up to a diagonal that follows
    # the measurement of its first qubit: T21's 7 CNOTs without a fit
    for seed in range(3):
        ks = random_channel(2, 1, 4, seed)
        assert cnot_count(compile_measured(ks)) == (template("T21").cnot_count, True) == (7, True)


def test_measured_off_predictions_lie_between_the_bounds():
    # every m > n shape with m <= 4 that a channel has (m - n <= k <= m + n)
    # and the m + n + k cap admits
    shapes = [(m, n, k) for m in range(1, 5) for n in range(m)
              for k in range(m - n, min(m + n, MAX_COMPILE_QUBITS - m - n) + 1)]
    assert len(shapes) == 20
    for m, n, k in shapes:
        bounds = table1(m, n)
        assert bounds.lb_measured <= predict_upper_bound(m, n, k) <= bounds.ub_asymptotic_measured


@pytest.mark.parametrize("m,n,kr,stages", [(3, 3, 8, 4), (2, 1, 4, 2), (2, 3, 4, 3), (3, 2, 4, 2)])
def test_compile_synthesizes_each_stage_in_one_batch(monkeypatch, m, n, kr, stages):
    # the rounds' v^dag over all their prefixes, then the residuals when
    # m = n or (m, n) = (2, 1), are one decompose_isometries call on the
    # system qubits; m < n residuals take a second call on all n qubits,
    # and a (3, 2) residual's split one on the system qubits below the
    # measured one: w and z of each prefix, then its A_0 and A_1.  Each
    # call reaches the two-qubit leaves in one _leaves call.
    import chancomp.compiler as compiler
    import chancomp.shannon as shannon

    seen, leaf_stacks = [], []
    leaves = shannon._leaves

    def counted(v, qubits, **kwargs):
        seen.append((len(v), list(qubits)))
        return decompose_isometries(v, qubits, **kwargs)

    def counted_leaves(weyl, two, q0, q1):
        leaf_stacks.append(len(two))
        return leaves(weyl, two, q0, q1)

    monkeypatch.setattr(compiler, "decompose_isometries", counted)
    monkeypatch.setattr(compiler, "decompose_isometry", lambda v: pytest.fail("one by one"))
    monkeypatch.setattr(shannon, "_leaves", counted_leaves)
    ks = random_channel(m, n, kr, seed=60)
    circ = compile_measured(ks)
    assert plan_measured(ks).k_tilde + 1 == stages
    p = n if m < n else m + 1
    system = list(range(p - m, p))
    expected = {(3, 3, 8): [(15, system)],
                (2, 1, 4): [(3, system)],
                (2, 3, 4): [(3, system), (4, list(range(p)))],
                (3, 2, 4): [(1, system), (8, system[1:])]}[m, n, kr]
    assert seen == expected
    assert len(leaf_stacks) == len(seen)
    if m == 2 and m >= n:
        assert leaf_stacks == [3]
    assert verify_circuit(circ, ks) < 1e-8


@pytest.mark.parametrize("kr", [3, 8])
def test_batched_residuals_match_one_by_one(kr):
    # the (2, 3) residuals take one Shannon call; each of its gate lists is
    # decompose_isometry's for that residual alone.  Angles may differ in
    # the last bit: numpy's SIMD arctan2 can round an element differently
    # depending on where it falls in the batch.
    finals = plan_measured(random_channel(2, 3, kr, seed=70 + kr)).finals
    batched = decompose_isometries(finals, range(3))[0]
    assert len(batched) == len(finals) > 1
    for gates, v in zip(batched, finals):
        alone = decompose_isometry(v).gates
        assert [(g.kind, g.qubits) for g in gates] == [(g.kind, g.qubits) for g in alone]
        err = max(abs(a - b) for g, h in zip(gates, alone) for a, b in zip(g.params, h.params))
        assert err <= 1e-14


@pytest.mark.parametrize("m,n,kr", [(1, 4, 8), (1, 3, 4), (2, 4, 4)])
def test_batched_thin_residuals_match_one_by_one(m, n, kr):
    # the column-by-column residuals take one batched reduction; its
    # numpy steps are elementwise and its gates scalar, so each gate list
    # is decompose_isometry's for that residual alone, bit for bit
    finals = plan_measured(random_channel(m, n, kr, seed=80 + kr)).finals
    batched = decompose_isometries(finals, range(n))[0]
    assert len(batched) == len(finals) > 1
    for gates, v in zip(batched, finals):
        assert gates == list(decompose_isometry(v).gates)


def _simd_targets() -> list[str]:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [d for d in umath.__cpu_dispatch__ if umath.__cpu_features__.get(d)]


def test_compiled_text_of_square_and_wide_channels_is_pinned():
    # every m >= n corpus shape compiles to the text recorded with the
    # minimal Kraus form taken by SVD of the Kraus operators.  The digests
    # hold for the numpy build and SIMD level they were recorded with;
    # elsewhere the last bits of LAPACK and of numpy's SIMD math may differ.
    import hashlib
    import json
    import pathlib
    import platform

    from chancomp.circuit import serialize

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "golden_measured_digests.json").read_text())
    here = {"numpy": np.__version__, "machine": platform.machine(), "simd": _simd_targets()}
    if any(golden[key] != value for key, value in here.items()):
        pytest.skip(f"digests recorded on {[golden[key] for key in here]}, running on {list(here.values())}")
    got = {}
    for key in golden["digests"]:
        m, n, kr = map(int, key.split(","))
        text = serialize(compile_measured(random_channel(m, n, kr, 500 + kr)))
        got[key] = hashlib.sha256(text.encode()).hexdigest()
    assert got == golden["digests"]


def test_plans_compare_by_identity():
    # the generated field-wise __eq__ would compare numpy arrays and raise
    ks = random_channel(2, 2, 3, seed=1)
    a, b = plan_measured(ks), plan_measured(ks)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_mixtures_compare_by_identity():
    ks = random_channel(1, 1, 2, seed=1)
    a, b = ConvexMixture([(1.0, ks)]), ConvexMixture([(1.0, ks)])
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_one_to_one_rank2_takes_the_template_count():
    # one round of one CNOT: T11's count, with no template fit
    for seed in range(5):
        ks = random_channel(1, 1, 2, seed)
        circ = compile_measured(ks)
        assert cnot_count(circ) == (template("T11").cnot_count, True) == (1, True)
        assert verify_circuit(circ, ks) < 1e-8


def real_channel(m, n, kr, seed):
    rng = np.random.default_rng(seed)
    v = qr_rectangular(rng.standard_normal((kr * 2**n, 2**m)))[0].real
    return [v[i * 2**n:(i + 1) * 2**n] for i in range(kr)]


@pytest.mark.parametrize("m,n,kr", [(1, 1, 2), (1, 1, 4), (1, 2, 2), (2, 1, 4),
                                    (2, 2, 4), (1, 3, 4), (2, 3, 2)])
def test_compiled_angles_ignore_the_sign_of_round_off_on_real_channels(m, n, kr):
    # A +-1e-18 imaginary part on the negative entries of real Kraus operators
    # must not move any emitted angle: the minimal Kraus form's phases, like
    # the synthesizer's, follow the entries rather than LAPACK's sign tests.
    for seed in range(3):
        ops = real_channel(m, n, kr, seed)
        variants = [compile_measured(KrausSet(m, n, [a + sign * 1e-18j * (a < 0) for a in ops])).gates
                    for sign in (0, 1, -1)]
        for gates in variants[1:]:
            assert [(g.kind, g.qubits) for g in gates] == [(g.kind, g.qubits) for g in variants[0]]
            err = max((abs(a - b) for g, h in zip(gates, variants[0])
                       for a, b in zip(g.params, h.params)), default=0.0)
            assert err <= 1e-10


def test_compile_measured_force_k():
    ks = dephasing_like()
    circ = compile_measured(ks, force_k=2)
    assert count_measures(circ) == 2
    assert verify_circuit(circ, ks) < 1e-8


def test_round_cnots_values():
    # c(m) - 1 for v^dag, whose last leaf leaves its diagonal to the next
    # round, plus 2^m - 1 for the opened Ry multiplexor
    assert [round_cnots(m) for m in range(5)] == [0, 1, 5, 26, 114]


def test_predict_upper_bound_cases():
    assert predict_upper_bound(1, 2, 1) == round_cnots(1) + n_iso(1, 2) == 4   # T12's count
    assert predict_upper_bound(2, 2, 0) == n_iso(2, 2)
    # a (2, 1) residual is one leaf built up to the diagonal that follows
    # the measurement of its first qubit
    assert predict_upper_bound(2, 1, 2) == round_cnots(2) + 2 == 7   # T21's count
    assert predict_upper_bound(2, 1, 1) == 2  # n+k = m
    assert predict_upper_bound(1, 2, 2) == 2 * round_cnots(1) + n_iso(1, 2)
    assert predict_upper_bound(1, 3, 0) == n_iso(1, 3)
    assert predict_upper_bound(1, 1, 1) == 1
    assert predict_upper_bound(3, 3, 3) == 3 * round_cnots(3) + n_iso(3, 3) == 98


@pytest.mark.parametrize("m,n,k,least", [(3, 1, 1, 2), (2, 1, 0, 1), (4, 1, 2, 3), (1, 1, -1, 0)])
def test_predict_upper_bound_rejects_impossible_shapes(m, n, k, least):
    # a channel from m to n qubits has Kraus rank >= 2^(m-n), so k >= m - n
    with pytest.raises(ValueError, match=f"needs k >= {least}, got {k}"):
        predict_upper_bound(m, n, k)


@pytest.mark.parametrize("m,n", [(1, 3), (1, 4), (2, 4)])
def test_thin_predictions_are_within_the_leading_order_bound(m, n):
    # every Kraus rank a channel can have: k = 0 .. m + n
    for k in range(m + n + 1):
        assert predict_upper_bound(m, n, k) <= table1(m, n).ub_asymptotic_measured, k


def test_plan_isometry_channel_has_no_rounds():
    # k = 0 with m < n takes the general path: no rounds, one residual
    ks = random_channel(1, 3, 1, seed=41)
    plan = plan_measured(ks)
    assert (plan.k, plan.k_tilde) == (0, 0)
    assert plan.stages == () and plan.finals.shape == (1, 8, 2)


def test_compile_qcm_unitary_channel():
    ks = KrausSet(1, 1, [X])
    circ = compile_qcm(ks)
    assert circ.num_qubits == 1
    assert not any(g.kind == TRACE for g in circ.gates)
    assert verify_circuit(circ, ks) < 1e-10


def test_compile_qcm_rank2():
    ks = dephasing_like()
    circ = compile_qcm(ks)
    assert circ.num_qubits == 2
    assert sum(1 for g in circ.gates if g.kind == TRACE) == 1
    assert verify_circuit(circ, ks) < 1e-8


def test_compile_qcm_rank4():
    ks = random_channel(1, 1, 4, seed=41)
    circ = compile_qcm(ks)
    assert circ.num_qubits == 3
    assert sum(1 for g in circ.gates if g.kind == TRACE) == 2
    assert verify_circuit(circ, ks) < 1e-8


@pytest.mark.parametrize("m,n,kr,seed", [(1, 2, 2, 42), (2, 1, 3, 43), (2, 2, 4, 44)])
def test_compile_qcm_grid(m, n, kr, seed):
    ks = random_channel(m, n, kr, seed)
    assert verify_circuit(compile_qcm(ks), ks) < 1e-8


def test_convex_mixture_validation():
    ks = KrausSet(1, 1, [I2])
    with pytest.raises(ValueError, match="sum to one"):
        ConvexMixture([(0.5, ks)])
    with pytest.raises(ValueError, match="positive"):
        ConvexMixture([(1.5, ks), (-0.5, ks)])
    # NaN passes both p <= 0 and the sum check; infinities are refused too
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            ConvexMixture([(bad, ks), (1.0, ks)])


@pytest.mark.parametrize("how", ["decompose_isometry", "compile_qcm", "compile_random_qcm"])
def test_one_qubit_unitary_takes_one_u_gate(how):
    # a rank-1 1 -> 1 channel: its 2x2 dilation is one U gate, global phase included
    from chancomp.simulator import simulate_unitary

    for seed in (1, 2, 3):
        ks = random_channel(1, 1, 1, seed)
        v, _ = stinespring_isometry(ks)
        if how == "decompose_isometry":
            circ = decompose_isometry(v)
        elif how == "compile_qcm":
            circ = compile_qcm(ks)
        else:
            [(_, circ)] = compile_random_qcm(ConvexMixture([(1.0, ks)]))
        assert [g.kind for g in circ.gates] == ["U"]
        assert np.linalg.norm(simulate_unitary(circ) - v) < 1e-12


def test_compile_random_single_unitary():
    mix = ConvexMixture([(1.0, KrausSet(1, 1, [X]))])
    out = compile_random_qcm(mix)
    assert len(out) == 1 and out[0][0] == 1.0
    assert cnot_count(out[0][1])[0] == 0


def test_compile_random_mixture_matches_weighted_choi():
    mix = ConvexMixture([(0.5, KrausSet(1, 1, [I2])), (0.5, KrausSet(1, 1, [X]))])
    compiled = compile_random_qcm(mix)
    assert verify_mixture(compiled, mix) < 1e-8
    # the mixture is the fully dephased bit-flip channel; check explicitly
    flip = KrausSet(1, 1, [I2 / np.sqrt(2), X / np.sqrt(2)])
    assert verify_mixture(compiled, ConvexMixture([(1.0, flip)])) < 1e-8


def test_compile_random_rejects_high_rank_component():
    bad = random_channel(1, 1, 3, seed=45)  # rank 3 > 2^m = 2
    mix = ConvexMixture([(1.0, bad)])
    with pytest.raises(ValueError, match="not implementable"):
        compile_random_qcm(mix)


def test_compile_random_rejects_before_synthesis(monkeypatch):
    import chancomp.compiler as compiler

    calls = []
    monkeypatch.setattr(compiler, "decompose_isometry",
                        lambda v: calls.append(v) or pytest.fail("synthesized"))
    mix = ConvexMixture([(0.5, KrausSet(1, 1, [X])), (0.5, random_channel(1, 1, 3, seed=45))])
    with pytest.raises(ValueError, match="not implementable"):
        compile_random_qcm(mix)
    assert calls == []


def _forbid(monkeypatch, module, *names):
    for name in names:
        monkeypatch.setattr(module, name, lambda *a, _name=name, **kw: pytest.fail(f"{_name} ran"))


@pytest.mark.parametrize("compile_fn", [plan_measured, compile_measured, compile_qcm],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("m,n,force_k,what", [(5, 5, None, "m+n"), (1, 1, 8, "m+n+k")])
def test_compile_refuses_sizes_above_the_cap_before_the_kraus_analysis(monkeypatch, compile_fn,
                                                                      m, n, force_k, what):
    import chancomp.channel as channel

    _forbid(monkeypatch, channel, "minimal_kraus")
    ks = KrausSet(m, n, [np.eye(2**n, 2**m)])
    with pytest.raises(ValueError, match=re.escape(f"{what} = 10 exceeds the m+n+k cap of 9")):
        compile_fn(ks, force_k=force_k)


def test_compile_random_refuses_sizes_above_the_cap_before_the_kraus_analysis(monkeypatch):
    import chancomp.channel as channel

    _forbid(monkeypatch, channel, "minimal_kraus")
    mix = ConvexMixture([(0.5, KrausSet(5, 5, [np.eye(32)])), (0.5, KrausSet(5, 5, [np.eye(32)]))])
    with pytest.raises(ValueError, match=re.escape("m+n = 10 exceeds the m+n+k cap of 9")):
        compile_random_qcm(mix)


@pytest.mark.parametrize("compile_fn", [plan_measured, compile_measured, compile_qcm,
                                        lambda ks: compile_random_qcm(ConvexMixture([(1.0, ks)]))],
                         ids=["plan_measured", "compile_measured", "compile_qcm",
                              "compile_random_qcm"])
def test_compile_refuses_m_n_k_above_the_cap_before_synthesis(monkeypatch, compile_fn):
    import chancomp.compiler as compiler

    _forbid(monkeypatch, compiler, "qr_rectangular", "cs_split", "decompose_isometry",
            "decompose_isometries", "_dilation_circuit")
    ks = random_channel(3, 4, 8, seed=5)   # m+n = 7 passes; the analysis finds k = 3
    assert MAX_COMPILE_QUBITS == 9
    with pytest.raises(ValueError, match=re.escape("m+n+k = 10 exceeds the m+n+k cap of 9")):
        compile_fn(ks)


def test_verify_mixture_detects_wrong_weights():
    mix = ConvexMixture([(0.25, KrausSet(1, 1, [I2])), (0.75, KrausSet(1, 1, [X]))])
    compiled = compile_random_qcm(mix)
    assert verify_mixture(compiled, mix) < 1e-8
    swapped = [(1.0 - p, c) for p, c in compiled]
    assert verify_mixture(swapped, mix) > 0.1


def test_verify_refuses_circuits_of_other_sizes():
    two_to_one = compile_measured(random_channel(2, 1, 4, seed=3))
    msg = "circuit maps 2 to 1 qubits, but the channel maps 1 to 1"
    with pytest.raises(ValueError, match=msg):
        verify_circuit(two_to_one, dephasing_like())
    mix = ConvexMixture([(1.0, dephasing_like())])
    with pytest.raises(ValueError, match=msg):
        verify_mixture([(1.0, two_to_one)], mix)
