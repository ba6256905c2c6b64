import cmath
import itertools
import math

import numpy as np
import pytest

from chancomp.circuit import (
    CNOT,
    RY,
    RZ,
    U,
    Circuit,
    Gate,
    cnot_count,
    rz_matrix,
    u_angles,
    update_pairs,
    walsh_hadamard,
)
from chancomp.circuit import phase as _phase
from chancomp.bounds import lb_qcm_isometry
from chancomp.linalg import qr_rectangular
from chancomp import shannon
from chancomp.shannon import _MAGIC, _MIXES, _XYZ, _leaves, _unitary_eig, _weyl
from chancomp.simulator import simulate_unitary
from chancomp.synth import (
    cs_split,
    _column_gates,
    _reduction_segments,
    _u_gates,
    decompose_isometries,
    decompose_isometry,
    multiplexed_rotation,
    n_iso,
    ry_multiplexors_from_zero,
)
from reference_walker import apply_unitary_gate, gate1_matrix, ry_matrix


def random_isometry(rows, cols, rng):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return qr_rectangular(g)[0]


def frob_distance_up_to_phase(a, b) -> float:
    """min over phi of ||a - e^{i phi} b||_F, evaluated at the optimal
    phase phi = arg tr(a^dag b) (no cancellation when a ~ e^{i phi} b)."""
    if np.shape(a) != np.shape(b):
        raise ValueError("shape mismatch")
    ov = np.vdot(a, b)
    phase = ov.conjugate() / abs(ov) if abs(ov) > 0.0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def expected_multiplex(axis, controls, target, angles, p):
    """Independent oracle: build the block-diagonal rotation directly."""
    rot = ry_matrix if axis == RY else rz_matrix
    mat = np.zeros((2**p, 2**p), dtype=complex)
    for x in range(2**p):
        s = 0
        for ctl in controls:
            s = (s << 1) | ((x >> (p - 1 - ctl)) & 1)
        r = rot(angles[s])
        tb = (x >> (p - 1 - target)) & 1
        for tb2 in (0, 1):
            x2 = (x & ~(1 << (p - 1 - target))) | (tb2 << (p - 1 - target))
            mat[x2, x] += r[tb2, tb]
    return mat


@pytest.mark.parametrize("axis", [RY, RZ])
@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_multiplexed_rotation_matches_block_diagonal(axis, c):
    rng = np.random.default_rng(c)
    p = c + 1
    controls = list(range(c))
    target = c
    angles = rng.uniform(-3, 3, 2**c)
    gates = multiplexed_rotation(axis, controls, target, angles)
    circ = Circuit(p, tuple(range(p)), tuple(range(p)), tuple(gates), 0)
    got = simulate_unitary(circ)
    want = expected_multiplex(axis, controls, target, angles, p)
    assert np.linalg.norm(got - want) < 1e-10
    n_cnot = sum(1 for g in gates if g.kind == CNOT)
    assert n_cnot == (2**c if c >= 1 else 0)
    assert sum(1 for g in gates if g.kind == axis) == 2**c


def test_multiplexed_rotation_scrambled_wires():
    # controls out of order and interleaved with idle wires
    rng = np.random.default_rng(9)
    angles = rng.uniform(-3, 3, 4)
    controls, target, p = [3, 0], 2, 4
    gates = multiplexed_rotation(RY, controls, target, angles)
    circ = Circuit(p, tuple(range(p)), tuple(range(p)), tuple(gates), 0)
    got = simulate_unitary(circ)
    want = expected_multiplex(RY, controls, target, angles, p)
    assert np.linalg.norm(got - want) < 1e-10


def test_multiplexed_rotation_single_control_structure():
    t0, t1 = 0.8, -0.3
    gates = multiplexed_rotation(RY, [0], 1, [t0, t1])
    assert [g.kind for g in gates] == [RY, CNOT, RY, CNOT]
    assert gates[0].params[0] == pytest.approx((t0 + t1) / 2)
    assert gates[2].params[0] == pytest.approx((t0 - t1) / 2)
    assert gates[1].qubits == (0, 1) and gates[3].qubits == (0, 1)


@pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
def test_ry_multiplexor_from_zero_matches_the_full_one_on_zero(c):
    # the target (qubit 0) starts in |0>; the controls are the inputs
    rng = np.random.default_rng(40 + c)
    theta = rng.uniform(-3, 3, 2**c)
    controls, p = list(range(1, c + 1)), c + 1

    def on_zero(gates):
        return simulate_unitary(Circuit(p, tuple(controls), tuple(range(p)), tuple(gates), 0))

    opened = ry_multiplexors_from_zero(controls, 0, theta[None])[0]
    assert np.linalg.norm(on_zero(opened) - on_zero(multiplexed_rotation(RY, controls, 0, theta))) < 1e-12
    assert sum(1 for g in opened if g.kind == CNOT) == (2**c - 1 if c else 0)


def test_ry_multiplexors_from_zero_gives_each_row_its_gates_alone():
    # one butterfly serves the stack: each row gets, to the last bit, the
    # gates it gets alone
    rng = np.random.default_rng(47)
    theta = rng.uniform(-3, 3, (5, 8))
    stacked = ry_multiplexors_from_zero([1, 2, 3], 0, theta)
    assert stacked == [ry_multiplexors_from_zero([1, 2, 3], 0, row[None])[0] for row in theta]


def test_multiplexed_rotation_wrong_angle_count():
    with pytest.raises(ValueError, match="angles"):
        multiplexed_rotation(RY, [0, 1], 2, [0.1, 0.2])


def count_cnots(circ):
    return sum(1 for g in circ.gates if g.kind == CNOT)


def test_decompose_2x2_unitary_zero_cnots():
    rng = np.random.default_rng(0)
    u = random_isometry(2, 2, rng)
    circ = decompose_isometry(u)
    assert count_cnots(circ) == 0
    assert frob_distance_up_to_phase(simulate_unitary(circ), u) < 1e-10


@pytest.mark.parametrize("rows,cols", [(8, 2), (4, 1), (8, 8), (4, 4), (16, 8), (2, 2)],
                         ids=["column", "state-prep", "qsd-square", "kak", "qsd-round", "u"])
def test_decompose_isometries_on_relabelled_qubits(rows, cols):
    # the qubits only name the wires: each gate list is the range(p) one with
    # every gate's qubits mapped, for a reversed and an offset labelling
    rng = np.random.default_rng(rows + 7 * cols)
    stack = np.stack([random_isometry(rows, cols, rng) for _ in range(2)])
    p = rows.bit_length() - 1
    base = decompose_isometries(stack, range(p))[0]
    for qubits in (list(reversed(range(p))), list(range(1, p + 1))):
        want = [[Gate(g.kind, tuple(qubits[q] for q in g.qubits), g.params) for g in gates]
                for gates in base]
        assert decompose_isometries(stack, qubits)[0] == want


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (4, 1), (8, 2)])
def test_paths_other_than_shannon_leave_no_diagonal(rows, cols):
    rng = np.random.default_rng(rows + cols)
    stack = np.stack([random_isometry(rows, cols, rng) for _ in range(2)])
    p = rows.bit_length() - 1
    _, diagonals = decompose_isometries(stack, range(p), open_ends=True)
    assert np.array_equal(diagonals, np.ones((2, rows)))


def test_decompose_one_by_one_isometry_is_empty():
    circ = decompose_isometry(np.array([[1.0]], dtype=complex))
    assert (circ.num_qubits, circ.gates) == (0, ())


def test_decompose_state_prep_of_one():
    circ = decompose_isometry(np.array([[0.0], [1.0]], dtype=complex))
    assert count_cnots(circ) == 0
    got = simulate_unitary(circ)
    assert frob_distance_up_to_phase(got, np.array([[0.0], [1.0]])) < 1e-12
    assert [g.kind for g in circ.gates] == [U] and abs(circ.gates[0].params[2] - np.pi) < 1e-12


@pytest.mark.parametrize(
    "rows,cols",
    [(2, 1), (4, 1), (8, 1), (2, 2), (4, 2), (8, 2), (4, 4), (8, 4), (16, 4), (8, 8)],
)
def test_decompose_random_isometries(rows, cols):
    rng = np.random.default_rng(rows * 31 + cols)
    v = random_isometry(rows, cols, rng)
    circ = decompose_isometry(v)
    got = simulate_unitary(circ)
    assert frob_distance_up_to_phase(got, v) < 1e-8
    m = cols.bit_length() - 1
    n = rows.bit_length() - 1
    assert count_cnots(circ) <= 8 * 2 ** (m + n)
    assert circ.input_qubits == tuple(range(n - m, n))
    assert circ.output_qubits == tuple(range(n))


def test_decompose_output_is_exact_not_just_up_to_phase():
    rng = np.random.default_rng(5)
    v = random_isometry(8, 2, rng)
    got = simulate_unitary(decompose_isometry(v))
    assert np.linalg.norm(got - v) < 1e-10


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError, match="not an isometry"):
        decompose_isometry(np.ones((4, 2)))
    with pytest.raises(ValueError, match="shape"):
        decompose_isometry(np.eye(4)[:, :3])


def test_cnot_count_is_input_independent():
    rng = np.random.default_rng(17)
    for rows, cols in [(4, 2), (8, 2), (8, 4)]:
        counts = set()
        for _ in range(3):
            v = random_isometry(rows, cols, rng)
            counts.add(count_cnots(decompose_isometry(v)))
        assert len(counts) == 1


def test_column_by_column_invariant():
    for rows, cols in [(8, 4), (16, 4), (32, 2), (64, 8), (16, 16)]:
        column_by_column_invariant(rows, cols)


H_GATE = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
RZ_H = rz_matrix(-0.5 * math.pi) @ H_GATE


def step_gates(target, controls, alpha, beta):
    """A reduction step as it acts, gate by gate: leaf k is the special
    unitary (alpha[k], beta[k]) with H on its left unless it is the last
    and Rz(-pi/2) H on its right unless it is the first, and CNOT k
    (controls[c - 1 - bit], bit the trailing zeros of k + 1) follows it."""
    n, c = len(alpha), len(controls)
    gates = []
    for k, (a, b) in enumerate(zip(alpha, beta)):
        w = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
        if k < n - 1:
            w = H_GATE @ w
        if k > 0:
            w = w @ RZ_H
        gates.append(Gate(U, (target,), u_angles(w[None])[0]))
        if k < n - 1:
            bit = ((k + 1) & -(k + 1)).bit_length() - 1
            gates.append(Gate(CNOT, (controls[c - 1 - bit], target)))
    return gates


def column_by_column_invariant(rows, cols):
    # every step, with its restricted controls, leaves the reduced columns
    # e_0 .. e_{j-1} basis vectors up to a phase, and after column j's
    # steps column j is a phase times e_j
    rng = np.random.default_rng(23 + rows + cols)
    v = random_isometry(rows, cols, rng)
    p = rows.bit_length() - 1
    segments, lams, reduced = _reduction_segments(v[None])
    work = v.copy()
    for j, seg in enumerate(segments):
        for target, controls, alpha, beta in seg:
            assert target not in controls and len(alpha[0]) == 2 ** len(controls)
            before = np.abs(work[:, :j])
            for g in step_gates(target, controls, alpha[0], beta[0]):
                work = apply_unitary_gate(work, g, p)
            assert np.max(np.abs(np.abs(work[:, :j]) - before), initial=0.0) < 1e-12
        for i in range(j + 1):
            col = work[:, i]
            assert abs(abs(col[i]) - 1.0) < 1e-10
            off = np.delete(col, i)
            assert np.linalg.norm(off) < 1e-10
    assert np.linalg.norm(work - reduced[0]) < 1e-10
    done = np.exp(1j * lams[0]) * reduced[0, :cols]
    assert np.linalg.norm(done - np.eye(cols)) < 1e-10
    assert np.linalg.norm(reduced[0, cols:]) < 1e-10


def column_path_structured_inputs():
    """(name, isometry) pairs for the column-by-column shapes whose pairs
    meet the degenerate cases: basis columns (identity and antidiagonal
    concentrators, corners that vanish), equal magnitudes and real signs."""
    rng = np.random.default_rng(131)
    cases = []
    for rows, cols in [(4, 1), (4, 2), (8, 2), (16, 4), (32, 2), (64, 4)]:
        eye = np.eye(rows)
        hadamard = np.array([[1.0]])
        for _ in range(rows.bit_length() - 1):
            hadamard = np.kron(hadamard, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
        cases += [
            (f"identity{rows}x{cols}", eye[:, :cols]),
            (f"reversed{rows}x{cols}", eye[:, ::-1][:, :cols]),
            (f"permutation{rows}x{cols}", eye[:, rng.permutation(rows)][:, :cols]),
            (f"hadamard{rows}x{cols}", hadamard[:, :cols]),
            (f"phased{rows}x{cols}",
             np.exp(0.5j * np.pi * np.arange(rows))[:, None] * hadamard[:, :cols]),
        ]
    return cases


@pytest.mark.parametrize("name,v", column_path_structured_inputs(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_column_by_column_is_exact_on_structured_inputs(name, v):
    circ = decompose_isometry(v)
    rows, cols = v.shape
    assert count_cnots(circ) == n_iso(cols.bit_length() - 1, rows.bit_length() - 1)
    got = simulate_unitary(circ)
    err = frob_distance_up_to_phase(got, v) if cols == 1 else np.linalg.norm(got - v)
    assert err <= 1e-12, name


def test_cost_model_matches_emitted_counts():
    # every shape up to five qubits, and the thin ones (state preparation
    # included) up to eight
    rng = np.random.default_rng(29)
    for m in range(0, 6):
        for n in range(max(m, 1), 9 if m <= 3 else 6):
            v = random_isometry(2**n, 2**m, rng)
            circ = decompose_isometry(v)
            assert count_cnots(circ) == n_iso(m, n), (m, n)
            assert frob_distance_up_to_phase(simulate_unitary(circ), v) < 1e-10, (m, n)


def test_cost_model_known_values():
    assert n_iso(1, 1) == 0
    assert n_iso(0, 1) == 0
    assert n_iso(1, 2) == 3
    assert n_iso(2, 2) == 3
    assert n_iso(2, 3) == 14
    assert n_iso(3, 4) == 73
    assert n_iso(4, 4) == 100
    assert n_iso(2, 2) == lb_qcm_isometry(2, 2)
    for p in range(2, 7):
        assert 48 * n_iso(p, p) == 23 * 4**p - 72 * 2**p + 64


def test_cost_model_thin_shapes():
    # one uniformly controlled gate per column-by-column step: 2^c - 1
    # CNOTs for c controls
    want = {(1, 2): 3, (1, 3): 11, (1, 4): 29, (2, 4): 65, (3, 5): 307, (1, 8): 621, (0, 8): 247}
    assert {mn: n_iso(*mn) for mn in want} == want


def test_worst_case_count_equals_plain_count_for_unconditioned():
    rng = np.random.default_rng(31)
    v = random_isometry(8, 2, rng)
    circ = decompose_isometry(v)
    worst, uniform = cnot_count(circ)
    assert uniform and worst == count_cnots(circ)


# --- loop-form reference of the synthesizer ---------------------------------


def adjoint(g):
    """Inverse of a reduction gate; 0.0 - x keeps a zero angle +0.0."""
    if g.kind == CNOT:
        return g
    if g.kind in (RY, RZ):
        return Gate(g.kind, g.qubits, (0.0 - g.params[0],))
    return Gate(U, g.qubits, u_angles(gate1_matrix(g).conj().T[None])[0])


def direct_gray_angles(angles):
    """phi[i] = 2^-c sum_s (-1)^popcount(gray(i) & s) angles[s], term by term."""
    n = len(angles)
    phis = []
    for i in range(n):
        g = i ^ (i >> 1)
        acc = 0.0
        for s in range(n):
            acc += (-1.0 if bin(g & s).count("1") % 2 else 1.0) * angles[s]
        phis.append(acc / n)
    return phis


def phase(z):
    """cmath.phase mapped into (-pi + 1/2, pi + 1/2], the synthesizer's convention."""
    a = cmath.phase(z)
    return a + 2.0 * math.pi if a <= 0.5 - math.pi else a


def reference_multiplex(kind, controls, target, angles):
    """Gray-code multiplexor with the angles from the direct formula."""
    c = len(controls)
    if c == 0:
        return [Gate(kind, (target,), (float(angles[0]),))]
    gates = []
    for i, phi in enumerate(direct_gray_angles(angles)):
        gates.append(Gate(kind, (target,), (phi,)))
        bit = ((i + 1) & -(i + 1)).bit_length() - 1 if i < 2**c - 1 else c - 1
        gates.append(Gate(CNOT, (controls[c - 1 - bit], target)))
    return gates


def reference_diag(lams, qubits):
    if len(qubits) == 1:
        lo, hi = lams
        return [Gate(U, (qubits[0],), ((lo + hi) / 2.0, hi - lo, 0.0, 0.0))]
    half = len(lams) // 2
    thetas = [lams[2 * s + 1] - lams[2 * s] for s in range(half)]
    means = [(lams[2 * s + 1] + lams[2 * s]) / 2.0 for s in range(half)]
    return (reference_multiplex(RZ, qubits[:-1], qubits[-1], thetas)
            + reference_diag(means, qubits[:-1]))


def fewest_controls(p, others, active, protected):
    """The smallest set of the qubits `others` on whose values the rows
    `active` all differ from one another and from every row in
    `protected`, found by trying every subset in order of size; the test
    requires it to be the only one of its size."""
    def key(row, controls):
        return tuple((row >> (p - 1 - q)) & 1 for q in controls)

    for size in range(len(others) + 1):
        found = []
        for controls in itertools.combinations(others, size):
            keys = [key(r, controls) for r in active]
            if len(set(keys)) == len(keys) and not set(keys) & {key(r, controls) for r in protected}:
                found.append(list(controls))
        if found:
            assert len(found) == 1, found
            return found[0]
    raise AssertionError("no control set separates the active rows")


def reference_ucg(g):
    """The uniformly controlled gate g[t] (2x2 matrices, controls[0] the
    most significant bit of t) as the leaves of the Bergholm recursion,
    in loops over dense 2x2 matrices: node by node along each level, the
    halves (a, b) of a node, the diagonal e carried from the node before,
    turn into (d a e, b) = (z D w, z D^dag w) with d a e b^dag traceless
    and of determinant 1."""
    n = len(g)
    leaves = [np.array(x, dtype=complex) for x in g]
    eighth = np.diag(np.exp(0.25j * math.pi * np.array([1, -1])))
    q = np.array([1.0, cmath.exp(-1j)])
    half = n // 2
    while half:
        for s in range(half):
            e = np.eye(2)
            for i in range(s, n, 2 * half):
                a, b = leaves[i] @ e, leaves[i + half]
                x = a @ b.conj().T
                d0 = 1j * np.conj(x[0, 0]) / abs(x[0, 0]) if abs(x[0, 0]) >= 1e-12 else 1.0
                d = np.diag([d0, 1.0 / (d0 * np.linalg.det(x))])
                v = (np.eye(2) - 1j * (d @ x)) @ q
                v /= np.linalg.norm(v)
                z = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
                leaves[i], leaves[i + half] = eighth.conj() @ z.conj().T @ d @ a, z
                e = d.conj()
        half //= 2
    if n > 1:
        leaves = [H_GATE @ leaves[0]] + [H_GATE @ w @ RZ_H for w in leaves[1:-1]] \
            + [leaves[-1] @ RZ_H]
    return leaves


def dense_products(leaves, controls):
    """The matrix on the target of leaves[0], CNOT, leaves[1], ... for
    every control pattern, one pattern at a time."""
    c, n = len(controls), len(leaves)
    out = []
    for t in range(n):
        acc = np.eye(2)
        for k, w in enumerate(leaves):
            acc = w @ acc
            bit = ((k + 1) & -(k + 1)).bit_length() - 1
            if k < n - 1 and (t >> bit) & 1:
                acc = acc[::-1]
        out.append(acc)
    return out


def reference_step(work, j, b):
    """(controls, g, leaves) of the reduction step (j, b) on the working
    copy, written as loops, or None when no pair is active: the controls
    from a search over every subset of the other qubits, one matrix per
    control pattern from cmath and math, and the leaves from
    `reference_ucg`, checked to give g up to a diagonal pattern by
    pattern."""
    rows = len(work)
    p = rows.bit_length() - 1
    target = p - 1 - b
    others = [q for q in range(p) if q != target]
    jb = (j >> b) & 1
    low_j = j & ((1 << b) - 1)
    pairs, protected = [], []
    for s in range(1 << (p - 1)):
        r0 = ((s >> b) << (b + 1)) | (s & ((1 << b) - 1))
        r1 = r0 | (1 << b)
        if s & ((1 << b) - 1) == low_j and r0 >= j and r1 >= j:
            pairs.append((r0, r1))
        elif r0 < j:   # the pair holds a reduced row
            protected.append(r0)
    if not pairs:
        return None
    controls = fewest_controls(p, others, [r0 for r0, _ in pairs], protected)

    def pattern(row):
        t = 0
        for q in controls:
            t = (t << 1) | ((row >> (p - 1 - q)) & 1)
        return t

    g = [np.eye(2, dtype=complex) for _ in range(1 << len(controls))]
    for r0, r1 in pairs:
        a0, a1 = complex(work[r0, j]), complex(work[r1, j])
        norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
        if norm >= 1e-12:
            a0, a1 = a0 / norm, a1 / norm
            g[pattern(r0)] = (np.array([[a1, -a0], [a0.conjugate(), a1.conjugate()]]) if jb
                              else np.array([[a0.conjugate(), a1.conjugate()], [-a1, a0]]))
    leaves = reference_ucg(g)
    for got, want in zip(dense_products(leaves, controls), g):
        off = got @ want.conj().T
        assert abs(off[0, 1]) + abs(off[1, 0]) < 1e-12
    return controls, g, leaves


@pytest.mark.parametrize("c", range(8))
def test_gray_code_angles_match_direct_formula(c):
    rng = np.random.default_rng(40 + c)
    angles = rng.uniform(-np.pi, np.pi, 2**c)
    gates = multiplexed_rotation(RZ, list(range(1, c + 1)), 0, angles)
    got = [g.params[0] for g in gates if g.kind == RZ]
    want = direct_gray_angles(list(angles)) if c else list(angles)
    assert np.max(np.abs(np.array(got) - want)) <= 1e-13
    assert all(type(x) is float for x in got)


@pytest.mark.parametrize("kind", [RY, RZ])
@pytest.mark.parametrize("p", range(1, 6))
def test_block_update_matches_gate_by_gate(kind, p):
    # a multiplexed rotation, as one pair update by its per-pattern matrices
    rng = np.random.default_rng(7 * p + (kind == RY))
    cols = 3
    rot = ry_matrix if kind == RY else rz_matrix
    for b in range(p):
        target = p - 1 - b
        controls = [q for q in range(p) if q != target]
        angles = rng.uniform(-np.pi, np.pi, 2 ** (p - 1))
        angles[rng.random(angles.size) < 0.3] = 0.0
        start = rng.standard_normal((2**p, cols)) + 1j * rng.standard_normal((2**p, cols))
        gates = multiplexed_rotation(kind, controls, target, angles)
        for gates in (gates, gates[::-1]):
            want = start
            for g in gates:
                want = apply_unitary_gate(want, g, p)
            got = start.copy()
            update_pairs(got, b, np.array([rot(a) for a in angles]))
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize(
    "rows,cols", [(2, 1), (2, 2), (4, 2), (8, 4), (16, 16), (32, 1), (64, 8), (256, 2)]
)
def test_decompose_matches_loop_reference(rows, cols):
    # Step by step on one working copy, which the emitted gates move
    # along: a step's leaves fix the diagonal it leaves behind, and with
    # it the phases every later step sees, so two exact decompositions
    # whose rounding differs drift apart over the columns.
    rng = np.random.default_rng(rows + 3 * cols)
    v = random_isometry(rows, cols, rng)
    p = rows.bit_length() - 1
    segments, lams, _ = _reduction_segments(v[None])
    steps = iter([step for seg in segments for step in seg])
    work = v.astype(complex)
    reduction = []
    for j in range(cols):
        for b in range(p):
            ref = reference_step(work, j, b)
            if ref is None:
                continue
            target, controls, alpha, beta = next(steps)
            assert (target, list(controls)) == (p - 1 - b, ref[0])
            gates = step_gates(target, controls, alpha[0], beta[0])
            got = [gate1_matrix(g) for g in gates if g.kind == U]
            assert max(np.max(np.abs(x - y)) for x, y in zip(got, ref[2])) <= 1e-12
            for g in gates:
                work = apply_unitary_gate(work, g, p)
            reduction += gates
    assert next(steps, None) is None
    if cols >= 2:
        # the rows below cols are the inputs' basis states, the top qubits in |0>
        want = [-phase(work[x, x]) for x in range(cols)]
        assert np.max(np.abs(lams[0] - want)) <= 1e-12
        m = cols.bit_length() - 1
        reduction += reference_diag(list(lams[0]), list(range(p - m, p)))
    emitted = _column_gates(v[None], list(range(p)))[0]   # square shapes too
    want = [adjoint(g) for g in reversed(reduction)]
    assert [(g.kind, g.qubits, g.condition) for g in emitted] == \
        [(g.kind, g.qubits, g.condition) for g in want]
    err = max((np.max(np.abs(gate1_matrix(g) - gate1_matrix(h)))
               for g, h in zip(emitted, want) if g.kind != CNOT), default=0.0)
    assert err <= 1e-12


def test_decompose_fortran_ordered_input():
    rng = np.random.default_rng(61)
    v = np.asfortranarray(random_isometry(16, 4, rng))
    got = simulate_unitary(decompose_isometry(v))
    assert np.linalg.norm(got - v) < 1e-10


@pytest.mark.parametrize(
    "rows,cols", [(2, 1), (4, 1), (4, 2), (4, 4), (8, 2), (8, 4), (16, 4), (16, 8), (16, 16)]
)
def test_angles_ignore_the_sign_of_round_off_on_real_inputs(rows, cols):
    # A real isometry's negative entries sit on np.angle's branch cut; a
    # +-1e-18 imaginary part there must not move any emitted angle.  Square
    # inputs come in both determinant signs: det -1 puts det(v), and with
    # it the det(v)^(1/4) of the two-qubit leaves, on the cut.
    rng = np.random.default_rng(rows * 7 + cols)
    for _ in range(3):
        v = qr_rectangular(rng.standard_normal((rows, cols)))[0].real
        flipped = v * np.where(np.arange(cols) == 0, -1.0, 1.0)
        for u in (v, flipped) if rows == cols else (v,):
            nudge = 1e-18j * (u < 0)
            variants = [decompose_isometry(w).gates for w in (u + 0j, u + nudge, u - nudge)]
            for gates in variants[1:]:
                err = max((abs(a - b) for g, h in zip(gates, variants[0])
                           for a, b in zip(g.params, h.params)), default=0.0)
                assert err <= 1e-12


# --- Shannon decomposition path ---------------------------------------------


def random_unitary(d, rng):
    return random_isometry(d, d, rng)


def cs_isometry(theta, u1, u2, v1h):
    """[u1 C v1h; u2 S v1h] with C = diag(cos(theta / 2)), S = diag(sin(theta / 2))."""
    half = 0.5 * np.asarray(theta, dtype=float)[:, None]
    return np.vstack([u1 @ (np.cos(half) * v1h), u2 @ (np.sin(half) * v1h)])


def structured_inputs():
    """(name, matrix) pairs for the round and square shapes the Shannon
    decomposition takes: basis-aligned, real and degenerate cases."""
    rng = np.random.default_rng(71)
    cases = []
    for d in (4, 8, 16):
        eye = np.eye(d)
        perm = eye[rng.permutation(d)]
        rot = qr_rectangular(rng.standard_normal((d, d)))[0].real
        hadamard = np.array([[1.0]])
        for _ in range(d.bit_length() - 1):
            hadamard = np.kron(hadamard, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
        # CNOT from the top qubit to the bottom one, then a swap of those two
        bits = np.arange(d)[:, None] >> np.arange(d.bit_length() - 2, -1, -1) & 1
        bits[:, -1] ^= bits[:, 0]
        bits[:, [0, -1]] = bits[:, [-1, 0]]
        cases += [
            (f"identity{d}", eye),
            (f"permutation{d}", perm),
            (f"cnot-swap{d}", eye[:, bits @ (1 << np.arange(d.bit_length() - 2, -1, -1))]),
            (f"hadamard{d}", hadamard),
            (f"diagonal{d}", np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d)))),
            (f"orthogonal{d}", rot),
            (f"top{d}", np.vstack([eye, 0 * eye])),                     # [I; 0]
            (f"bottom{d}", np.vstack([0 * eye, eye])),                  # [0; I]
            (f"round-permutation{d}", np.eye(2 * d)[rng.permutation(2 * d)][:, :d]),
            (f"round-orthogonal{d}", qr_rectangular(rng.standard_normal((2 * d, d)))[0].real),
            (f"block-diagonal{d}", np.kron(np.diag([1, 0]), random_unitary(d // 2, rng))
             + np.kron(np.diag([0, 1]), random_unitary(d // 2, rng))),
            (f"antidiagonal{d}", np.kron([[0, 1], [1, 0]], random_unitary(d // 2, rng))),
        ]
        u1, u2, v1h = (random_unitary(d, rng) for _ in range(3))
        # s = 0 and c = 0 next to generic angles
        theta = np.resize([0.0, np.pi, 1.2, 0.0, np.pi, 2.5], d)
        cases.append((f"zero-halves{d}", cs_isometry(theta, u1, u2, v1h)))
        # s of 1e-9 to 1e-7, where c rounds to 1 and the SVD of the top half
        # leaves v1h free; and c of 1e-9 next to them
        theta = np.resize([2e-9, 6e-9, 2e-7, 1.0, np.pi - 2e-9], d)
        cases.append((f"near-degenerate{d}", cs_isometry(theta, u1, u2, v1h)))
        # u1 u2^dag with repeated eigenvalues
        x = u2 @ np.diag(np.resize([1, 1, 1j, -1], d)) @ u2.conj().T
        cases.append((f"repeated-eig{d}", cs_isometry(np.linspace(0.2, 3.0, d), x @ u2, u2, v1h)))
        cases.append((f"equal-halves{d}", cs_isometry(np.full(d, np.pi / 2), u2, u2, v1h)))
    return cases


@pytest.mark.parametrize("name,v", structured_inputs(), ids=lambda x: x if isinstance(x, str) else "")
def test_qsd_is_exact_on_structured_inputs(name, v):
    circ = decompose_isometry(v)
    rows, cols = v.shape
    m, n = cols.bit_length() - 1, rows.bit_length() - 1
    assert count_cnots(circ) == n_iso(m, n)
    assert np.linalg.norm(simulate_unitary(circ) - v) <= 1e-12, name


@pytest.mark.parametrize("rows,cols", [(8, 4), (16, 8), (32, 16), (4, 4), (8, 8), (16, 16),
                                       (32, 32)])
def test_qsd_is_exact_and_shape_determined_on_random_inputs(rows, cols):
    rng = np.random.default_rng(rows + 5 * cols)
    shapes = set()
    for _ in range(3):
        v = random_isometry(rows, cols, rng)
        circ = decompose_isometry(v)
        assert np.linalg.norm(simulate_unitary(circ) - v) <= 1e-12
        shapes.add(tuple((g.kind, g.qubits) for g in circ.gates))
    assert len(shapes) == 1


def _unitary_eig_cases():
    rng = np.random.default_rng(83)
    q = random_unitary(8, rng)
    return [
        np.eye(4),
        np.eye(8)[rng.permutation(8)],
        qr_rectangular(rng.standard_normal((8, 8)))[0].real,
        random_unitary(16, rng),
        q @ np.diag([1, 1, 1, 1j, 1j, -1, -1, -1]) @ q.conj().T,
        q @ np.diag(np.exp(1j * (np.pi + 0.5 + 1e-9 * np.arange(8)))) @ q.conj().T,
        -np.eye(2),
    ]


@pytest.mark.parametrize("x", _unitary_eig_cases())
def test_unitary_eig_residual(x):
    z, lam = _unitary_eig(x.astype(complex))
    assert np.linalg.norm(z.conj().T @ z - np.eye(len(x))) <= 1e-13
    assert np.linalg.norm(z @ np.diag(lam) @ z.conj().T - x) <= 1e-13
    assert np.all(np.diff(_phase(lam)) >= 0)


@pytest.mark.parametrize("name,v", [c for c in structured_inputs() if c[1].shape[0] > c[1].shape[1]],
                         ids=lambda x: x if isinstance(x, str) else "")
def test_cs_split_residual(name, v):
    h = v.shape[1]
    a, b = v[:h].astype(complex), v[h:].astype(complex)
    u1, u2, theta, v1h = cs_split(a, b)
    for u in (u1, u2, v1h):
        assert np.linalg.norm(u.conj().T @ u - np.eye(h)) <= 1e-13
    assert np.linalg.norm(u1 @ (np.cos(theta / 2)[:, None] * v1h) - a) <= 1e-13, name
    assert np.linalg.norm(u2 @ (np.sin(theta / 2)[:, None] * v1h) - b) <= 1e-13, name


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_decompose_unitaries_is_one_batch_of_exact_circuits(p):
    rng = np.random.default_rng(90 + p)
    stack = np.stack([random_unitary(2**p, rng) for _ in range(3)])
    lists = decompose_isometries(stack, range(p))[0]
    if not p:  # a 1 x 1 unitary is a global phase
        assert lists == [[], [], []]
        return
    assert len(lists) == 3
    for u, gates in zip(stack, lists):
        circ = Circuit(p, tuple(range(p)), tuple(range(p)), tuple(gates), 0)
        assert sum(1 for g in gates if g.kind == CNOT) == n_iso(p, p)
        assert np.linalg.norm(simulate_unitary(circ) - u) < 1e-12


@pytest.mark.parametrize("rows,cols", [(4, 4), (8, 8), (8, 4), (16, 16), (16, 8), (8, 2)])
def test_one_stack_gives_each_member_its_gates_alone(rows, cols):
    # a measured compile concatenates the stacks of its rounds and its
    # residuals into one call: each member keeps the gates it gets alone,
    # its angles included, to the last bit.
    rng = np.random.default_rng(rows + cols)
    stacks = [np.stack([random_isometry(rows, cols, rng) for _ in range(size)])
              for size in (1, 2, 4)]
    p = rows.bit_length() - 1
    qubits = [3, 0, 5, 1][:p]
    batched = decompose_isometries(np.concatenate(stacks), qubits)[0]
    assert len(batched) == 7
    for gates, v in zip(batched, np.concatenate(stacks)):
        alone = decompose_isometries(v[None], qubits)[0][0]
        assert gates == alone


def test_a_mixed_stack_gives_each_member_its_gates_alone():
    # structured members take the Weyl-coordinate diagonals, random
    # members the entry formula: in one stack each
    # still gets, to the last bit, the gates it gets alone
    rng = np.random.default_rng(139)
    structured = [v for name, v in structured_inputs() if v.shape == (8, 8)]
    stack = np.array(structured + [random_unitary(8, rng) for _ in range(4)], dtype=complex)
    stack = stack[rng.permutation(len(stack))]
    batched = decompose_isometries(stack, [2, 0, 1])[0]
    for gates, v in zip(batched, stack):
        assert gates == decompose_isometries(v[None], [2, 0, 1])[0][0]


@pytest.mark.parametrize("c", range(6))
def test_walsh_hadamard_of_a_stack_is_row_by_row(c):
    rng = np.random.default_rng(120 + c)
    w = rng.uniform(-np.pi, np.pi, (7, 2**c))
    got = walsh_hadamard(w)
    assert got.shape == w.shape
    assert np.array_equal(got, np.array([walsh_hadamard(row) for row in w]))
    signs = np.array([[(-1) ** bin(x & s).count("1") for s in range(2**c)] for x in range(2**c)])
    assert np.max(np.abs(got - w @ signs.T)) <= 1e-12


def test_u_gates_are_exact_with_global_phase():
    rng = np.random.default_rng(97)
    y = np.array([[0, -1], [1, 0]])
    mats = [random_unitary(2, rng) for _ in range(4)]
    mats += [np.eye(2), -np.eye(2), np.diag([1, -1]), np.diag([1j, 1]), y, 1j * y,
             np.array([[0, 1], [1, 0]]), np.array([[1, 1], [1, -1]]) / np.sqrt(2)]
    stack = np.array(mats, dtype=complex)
    for u, g in zip(stack, _u_gates(stack, 0)):
        assert g.kind == U and all(type(x) is float for x in g.params)
        got = simulate_unitary(Circuit(1, (0,), (0,), (g,), 0))
        assert np.linalg.norm(got - u) <= 1e-14


# --- three-CNOT two-qubit leaves ----------------------------------------------


def two_qubit_cases():
    """(name, 4x4 unitary) pairs for the magic-basis leaf: gates with
    degenerate Weyl coordinates, local and near-local products, and real
    orthogonal matrices of both determinant signs."""
    rng = np.random.default_rng(113)
    x = np.array([[0, 1], [1, 0]])
    xx = np.kron(x, x)
    orth = qr_rectangular(rng.standard_normal((4, 4)))[0].real
    orth[:, 0] *= np.sign(np.linalg.det(orth))
    # Weyl phases whose first two squares meet on Re + r Im for the first
    # r: that leaf needs the second one
    mix0 = np.arctan(_MIXES[0])
    phi = np.array([0.5 * mix0 + 0.4, 0.5 * mix0 - 0.4, 1.1, 0.0])
    phi[3] = -phi[:3].sum()
    o1, o2 = (qr_rectangular(rng.standard_normal((4, 4)))[0].real for _ in range(2))
    o1[:, 0] *= np.sign(np.linalg.det(o1))
    o2[:, 0] *= np.sign(np.linalg.det(o2))
    collision = _MAGIC @ o1 @ np.diag(np.exp(1j * phi)) @ o2 @ _MAGIC.conj().T

    def local_sandwich(a, b, c):
        # K1 exp(i (a XX + b YY + c ZZ)) K2 with random local K1, K2
        n = _MAGIC @ np.diag(np.exp(1j * (_XYZ.T @ (a, b, c)))) @ _MAGIC.conj().T
        k1, k2 = (np.kron(random_unitary(2, rng), random_unitary(2, rng)) for _ in range(2))
        return k1 @ n @ k2
    return [
        ("identity", np.eye(4)),
        ("cnot01", np.eye(4)[[0, 1, 3, 2]]),
        ("cnot10", np.eye(4)[[0, 3, 2, 1]]),
        ("swap", np.eye(4)[[0, 2, 1, 3]]),
        ("iswap", np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])),
        ("cz", np.diag([1, 1, 1, -1])),
        ("minus-identity", -np.eye(4)),
        ("diagonal", np.diag(np.exp(1j * rng.uniform(-3, 3, 4)))),
        ("local", np.kron(random_unitary(2, rng), random_unitary(2, rng))),
        ("near-local", np.kron(random_unitary(2, rng), random_unitary(2, rng))
         @ (np.cos(1e-9) * np.eye(4) + 1j * np.sin(1e-9) * xx)),
        ("orthogonal-det+1", orth),
        ("orthogonal-det-1", orth * np.array([-1.0, 1.0, 1.0, 1.0])),
        # eigenphase pairs summing to pi/4 meet on Re + r Im for r = tan(pi/8)
        ("xx+yy-pi/16", local_sandwich(np.pi / 16, np.pi / 16, 0.0)),
        ("pi/16-multiples", local_sandwich(3 * np.pi / 16, np.pi / 8, np.pi / 16)),
        ("accidental-collision", collision),
        ("random", random_unitary(4, rng)),
    ]


@pytest.mark.parametrize("name,u", two_qubit_cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_kak_leaf_is_exact_with_global_phase(name, u):
    circ = decompose_isometry(u)
    assert count_cnots(circ) == 3 == n_iso(2, 2)
    assert np.linalg.norm(simulate_unitary(circ) - u) <= 1e-12, name


def exact_leaves(stack, q0=0, q1=1):
    stack = np.asarray(stack, dtype=complex)
    return _leaves(_weyl(stack), np.zeros(len(stack), dtype=bool), q0, q1)


def test_kak_batch_matches_one_by_one_and_shares_one_gate_sequence():
    stack = np.array([u for _, u in two_qubit_cases()], dtype=complex)
    leaves = exact_leaves(stack)
    assert leaves == [exact_leaves(u[None])[0] for u in stack]
    assert len({tuple((g.kind, g.qubits) for g in leaf) for leaf in leaves}) == 1
    assert [g.kind for g in leaves[0]] == [U, U, CNOT, RY, CNOT, RZ, RY, CNOT, U, U]


def test_kak_first_mix_alone_serves_structured_inputs(monkeypatch):
    monkeypatch.setattr(shannon, "_MIXES", _MIXES[:1])
    for name, u in two_qubit_cases():
        if name == "accidental-collision":
            continue
        leaf = exact_leaves([u])[0]
        assert np.linalg.norm(simulate_unitary(Circuit(2, (0, 1), (0, 1), tuple(leaf), 0)) - u) \
            <= 1e-12, name


# --- two-CNOT leaves up to a diagonal ----------------------------------------


def near_degenerate_leaves():
    """(name, 4x4 unitary) pairs whose Weyl coordinates sit within eps of
    the identity or of a CNOT class: two of them small, where tr gamma
    read from the entries fixes psi only to about 1e-16 / eps^2."""
    rng = np.random.default_rng(127)
    paulis = [np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                                                   [[1, 0], [0, -1]])]

    def sandwich(a, b, c):
        h = sum(x * np.kron(s, s) for x, s in zip((a, b, c), paulis))
        lam, vec = np.linalg.eigh(h)
        k1, k2 = (np.kron(random_unitary(2, rng), random_unitary(2, rng)) for _ in range(2))
        return k1 @ vec @ np.diag(np.exp(1j * lam)) @ vec.conj().T @ k2

    return [(f"{kind}-{eps:g}", sandwich(*abc))
            for eps in (1e-4, 1e-6, 1e-8, 1e-10)
            for kind, abc in (("near-local", (eps, 2 * eps, -eps)),
                              ("near-cnot", (np.pi / 4, eps, 2 * eps)))]


def leaf_cases():
    rng = np.random.default_rng(131)
    return (two_qubit_cases() + near_degenerate_leaves()
            + [(f"random{i}", random_unitary(4, rng)) for i in range(40)])


def two_cnot_leaves(stack):
    """Each leaf of the stack, open-ended: (its diagonal's e^{i psi}, its gates)."""
    stack = np.asarray(stack, dtype=complex)
    lists, carried = decompose_isometries(stack, range(2), open_ends=True)
    assert np.array_equal(carried[:, :2], np.ones((len(stack), 2)))
    assert np.array_equal(carried[:, 2], carried[:, 3].conj())
    return carried[:, 3], lists


def test_two_cnot_leaf_realizes_its_diagonal_times_the_leaf():
    cases = leaf_cases()
    w, leaves = two_cnot_leaves([u for _, u in cases])
    assert np.allclose(np.abs(w), 1.0, atol=1e-15)
    for (name, u), x, leaf in zip(cases, w, leaves):
        assert count_cnots(Circuit(2, (0, 1), (0, 1), tuple(leaf), 0)) == 2
        got = simulate_unitary(Circuit(2, (0, 1), (0, 1), tuple(leaf), 0))
        assert np.linalg.norm(got - np.diag([1, 1, np.conj(x), x]) @ u) <= 1e-12, name


def test_every_two_cnot_leaf_has_one_gate_structure():
    # the coordinate that vanishes sits in slot a for some inputs and in
    # slot c for others; the outer U gates absorb the difference
    _, leaves = two_cnot_leaves([u for _, u in leaf_cases()])
    assert {tuple((g.kind, g.qubits) for g in leaf) for leaf in leaves} == {
        ((U, (0,)), (U, (1,)), (CNOT, (0, 1)), (RY, (0,)), (RZ, (1,)), (CNOT, (0, 1)),
         (U, (0,)), (U, (1,)))}


def test_structured_leaves_find_their_diagonal_where_the_entries_give_none():
    # the identity and a CZ leave tr gamma(D L) real for every psi: the
    # entry formula sees 0 + 0i, and so do the Weyl coordinates; psi = 0
    w, _ = two_cnot_leaves([np.eye(4), np.diag([1, 1, 1, -1])])
    assert np.array_equal(w, [1.0, 1.0])


def test_two_cnot_leaves_match_one_by_one():
    # a leaf gets the same gates, to the last bit, alone and in a stack
    # that mixes entry-formula and Weyl-coordinate diagonals
    stack = [u for _, u in leaf_cases()]
    _, batched = two_cnot_leaves(stack)
    assert batched == [two_cnot_leaves([u])[1][0] for u in stack]


def test_chained_members_realize_their_diagonals():
    # a heap of 3-qubit unitaries: member j undoes the diagonal d of member
    # (j - 1) // 2 and leaves its own, so it realizes diag(d_j) v_j diag(d_parent)^dag
    rng = np.random.default_rng(137)
    stack = np.stack([random_unitary(8, rng) for _ in range(7)])
    heap = (np.arange(7) - 1) // 2

    def run(gates):
        assert count_cnots(Circuit(3, (0, 1, 2), (0, 1, 2), tuple(gates), 0)) in (19, 20)
        return simulate_unitary(Circuit(3, (0, 1, 2), (0, 1, 2), tuple(gates), 0))

    lists, carried = decompose_isometries(stack, range(3), parents=heap, open_ends=True)
    assert np.allclose(np.abs(carried), 1.0, atol=1e-15) and not np.allclose(carried, 1.0)
    for j, gates in enumerate(lists):
        assert count_cnots(Circuit(3, (0, 1, 2), (0, 1, 2), tuple(gates), 0)) == n_iso(3, 3) - 1
        before = carried[heap[j]] if j else np.ones(8)
        want = np.diag(carried[j]) @ stack[j] @ np.diag(before.conj())
        assert np.linalg.norm(run(gates) - want) <= 1e-12, j
    # without `open_ends`, members 3 to 6 close their chains: every path is exact
    lists, closed = decompose_isometries(stack, range(3), parents=heap)
    assert np.array_equal(closed[3:], np.ones((4, 8)))
    for j in range(3, 7):
        path = [j, heap[j], 0]
        assert [count_cnots(Circuit(3, (0, 1, 2), (0, 1, 2), tuple(lists[i]), 0)) for i in path] \
            == [n_iso(3, 3), n_iso(3, 3) - 1, n_iso(3, 3) - 1]
        got = run(lists[path[0]]) @ run(lists[path[1]]) @ run(lists[path[2]])
        want = stack[path[0]] @ stack[path[1]] @ stack[path[2]]
        assert np.linalg.norm(got - want) <= 1e-12, j


def test_kak_raises_when_no_mix_finds_a_real_eigenbasis(monkeypatch):
    monkeypatch.setattr(shannon, "_MIXES", _MIXES[:1])
    u = dict(two_qubit_cases())["accidental-collision"]
    with pytest.raises(ValueError, match="no real eigenbasis"):
        decompose_isometry(u)
