"""The quantum Shannon decomposition (Shende, Bullock and Markov,
arXiv:quant-ph/0406176) of square unitaries and measured rounds (2^{p+1} x
2^p, the top qubit starting in |0>) of four or more columns, for
`synth.decompose_isometries`, which imports this module on its first
Shannon call.

A cosine-sine split of the top qubit (`synth.cs_split`) gives
(u1 + u2) . Ry-mux . (v1 + v2)^dag; each block-diagonal factor is
demultiplexed into qsd(W), an Rz multiplexor and qsd(Z) on the lower
qubits, down to two-qubit unitaries, the leaves.  The Ry multiplexor's
closing CNOT folds into u2 as a CZ.  For a round only v1^dag acts, since
the top qubit starts in |0>.  The split, the eigendecompositions and the
QR steps are numpy.linalg calls, one batch per level of the recursion;
scipy.linalg (cossin, schur) would add its import time to every CLI
compile.  Every leaf but the last in time is built up to a diagonal, in
two CNOTs, and the next leaf takes the diagonal over (Appendix A of the
same paper; `_leaf_diagonals`); a stack may chain its members the same
way.  The last takes the three-CNOT magic-basis (KAK) form of Vatan and
Williams (arXiv:quant-ph/0308006).  One pass over the leaf positions
chains the diagonals, then one batched `_leaves` call builds every leaf.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import CNOT, RY, RZ, U, Gate, phase, rz_matrix, u_angles
from .linalg import canonical_phases, dagger, qr_rectangular
from .synth import cs_split, multiplexed_rotations

_ULP = np.finfo(np.float64).eps


def _unitary_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, lam) with x = z diag(lam) z^dag and z unitary, for each unitary
    in the stack x.

    numpy's `eig`, its pairs sorted by `phase` of the eigenvalue, and the
    eigenvectors made orthonormal by QR: within a repeated eigenvalue
    `eig` need not return orthogonal vectors, across distinct ones they
    already are."""
    lam, vec = np.linalg.eig(x)
    order = np.argsort(phase(lam), axis=-1, kind="stable")
    vec = np.take_along_axis(vec, order[..., None, :], axis=-1)
    return canonical_phases(qr_rectangular(vec)[0]), np.take_along_axis(lam, order, axis=-1)


def _demultiplex(u1: np.ndarray, u2: np.ndarray):
    """(w, rz, z) with u1 + u2 = (I x z)(D + D^dag)(I x w), for stacks of
    the blocks: u1 + u2 applies u1 to the lower qubits when the top qubit
    is 0 and u2 when it is 1.

    u1 u2^dag = z diag(d^2) z^dag gives w = diag(d) z^dag u2, and D + D^dag
    is the Rz multiplexor on the top qubit of angles rz = -2 arg d."""
    z, lam = _unitary_eig(u1 @ dagger(u2))
    phi = phase(lam)
    w = np.exp(0.5j * phi)[..., None] * (dagger(z) @ u2)
    return w, 0.0 - phi, z


# The magic basis: M^dag (A x B) M is real orthogonal for A, B in SU(2),
# and M^dag (a XX + b YY + c ZZ) M = diag(_XYZ.T @ (a, b, c)).
_MAGIC = 0.5**0.5 * np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]])
_MAGIC_DAG = dagger(_MAGIC)
_XYZ = np.array([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, -1, -1]])
# The r of Re s + r Im s that `_real_eigvecs` tries in turn.  Each r is
# transcendental, so arctan(r) is no rational multiple of pi (whose
# tangents are algebraic) and structured eigenphases do not meet on it;
# the arctans spread over the half-turn.
_MIXES = (np.e - 2.0, np.pi - 3.0, np.e, -np.e, 2.0 - np.e)
# Two eigenvalues of s have met on Re s + r Im s when their gap there is
# below 1 / _KAK_RATIO of their gap on s, and the latter is past _KAK_ATOL.
_KAK_RATIO = 300.0
_KAK_ATOL = 1e-13
# Weights that fix the sign of each real eigenvector: their sum against
# a nonzero algebraic vector is never zero, since cos(k) is a polynomial
# in cos(1) (Chebyshev) and cos(1) is transcendental.
_SIGN_WEIGHTS = np.cos(np.arange(4))
_RZ_QUARTER = rz_matrix(0.5 * np.pi)
# the outer factors of the two-CNOT (first) and three-CNOT (second) forms
# of `_leaves`: before the CNOTs on q0, after them on q0 and on q1
_BEFORE = np.array([_RZ_QUARTER, dagger(_RZ_QUARTER)])
_AFTER0 = np.array([dagger(_RZ_QUARTER), np.eye(2)])
_AFTER1 = np.array([np.eye(2), _RZ_QUARTER])
# The eigenvector order that moves Weyl coordinate a, b or c into slot b:
# 3-cycles, so p keeps det +1.  Pairs (0, 2), (1, 2) and (0, 1) of phi
# sum to twice a, b and c, modulo pi.
_TO_SLOT_B = np.array([[0, 3, 1, 2], [0, 1, 2, 3], [0, 2, 3, 1]])
# Below this |A - conj B| (of `_leaf_diagonals`, at most 4 for a unitary
# leaf) psi is read from the Weyl coordinates: from the entries it is
# good to about 1e-16 / |A - conj B|.
_CARRY_ATOL = 1e-2
_ONE = 1.0 + 0.0j
# The entry pairs (of a 4x4 flattened row by row) of the four sums
# -(L00 L33 + L03 L30), L01 L32 + L02 L31, -(L10 L23 + L13 L20) and
# L11 L22 + L12 L21 of `_leaf_diagonals`, with their signs.
_YY_TERMS = (np.array([0, 3, 1, 2, 4, 7, 5, 6]), np.array([15, 12, 14, 13, 11, 8, 10, 9]))
_YY_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])[:, None]
# A Weyl coordinate counts as a multiple of pi/2 when |sin 2x| is at most this.
_ZERO_COORD = 1e-14


def _real_eigvecs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, lam) with p in SO(4) real and p^T s p = diag(lam), for each
    symmetric unitary in the stack s.

    The real and imaginary parts of s commute, so the eigenvectors of
    Re s + r Im s serve both unless two eigenvalues meet by accident
    there; the members where they do get the next r, and ValueError is
    raised when the last one fails too.  The test compares gaps rather
    than the round-off in p^T s p, so it gives the same verdict on inputs
    that differ by round-off.  Each column's sign makes its
    `_SIGN_WEIGHTS` sum positive, the last one excepted, which makes
    det p = +1."""
    p, lam = np.empty(s.shape), np.empty(s.shape[:-1], dtype=complex)
    todo, x = slice(None), s
    for r in _MIXES:
        mu, q = np.linalg.eigh(x.real + r * x.imag)
        y = np.diagonal(q.swapaxes(-1, -2) @ x @ q, axis1=-2, axis2=-1)
        p[todo], lam[todo] = q, y
        met = np.abs(mu[:, :, None] - mu[:, None, :])
        apart = np.abs(y[:, :, None] - y[:, None, :])
        todo = np.arange(len(s))[todo][(apart > _KAK_RATIO * met + _KAK_ATOL).any(axis=(-2, -1))]
        if not todo.size:
            break
        x = s[todo]
    else:
        raise ValueError("KAK: no real eigenbasis found")
    # sign flips are exact, and leave each p_k^T s p_k as it is
    p *= np.where(_SIGN_WEIGHTS @ p < 0.0, -1.0, 1.0)[:, None, :]
    p[..., 3] *= np.sign(np.linalg.det(p))[:, None]
    return p, lam


def _local_factors(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with k = a x b, for each local 4x4 unitary in the stack k.

    Reshaped to R[(i, j), (k, l)] = a[i, j] b[k, l], k is the rank-one
    a b^T; its largest row is a multiple of b, which gets the canonical
    phase and norm sqrt(2), and then a = R b^* / 2."""
    n = len(k)
    r = k.reshape(n, 2, 2, 2, 2).swapaxes(2, 3).reshape(n, 4, 4)
    b = r[np.arange(n), np.argmax(np.linalg.norm(r, axis=-1), axis=-1)]
    b = canonical_phases(b[..., None])
    b *= 2.0**0.5 / np.linalg.norm(b, axis=-2, keepdims=True)
    return (r @ b.conj()).reshape(n, 2, 2) / 2.0, b.reshape(n, 2, 2)


def _weyl(u: np.ndarray):
    """(g, um, p, phi) of the magic-basis decomposition of each 4x4 unitary
    in the stack u: u = e^{ig} M um M^dag and um = O1 diag(e^{i phi}) p^T,
    with p and O1 = (um p) e^{-i phi} in SO(4) and sum(phi) a multiple of
    2 pi.  p^T diagonalizes the symmetric unitary um^T um = p diag(e^{2i
    phi}) p^T (`_real_eigvecs`).  The Weyl coordinates of u are
    (a, b, c) = _XYZ @ phi / 4: u / det(u)^(1/4) = K1 N(a, b, c) K2 with
    K1, K2 local and N(a, b, c) = exp(i (a XX + b YY + c ZZ))."""
    g = 0.25 * phase(np.linalg.det(u))
    um = _MAGIC_DAG @ (u * np.exp(-1j * g)[:, None, None]) @ _MAGIC
    p, lam = _real_eigvecs(um.swapaxes(-1, -2) @ um)
    phi = 0.5 * phase(lam)
    # det diag(e^{i phi}) = +-1; make it +1 so that O1 is in SO(4) too
    phi[:, 0] += np.where(np.cos(phi.sum(axis=-1)) < 0.0, np.pi, 0.0)
    return g, um, p, phi


def _coordinates(phi: np.ndarray) -> np.ndarray:
    """The Weyl coordinates (a, b, c) = _XYZ @ phi / 4 of each row of phi,
    elementwise: a matrix product would let BLAS sum a row in an order
    that depends on the height of the stack."""
    return 0.25 * (_XYZ * phi[:, None, :]).sum(axis=-1)


def _leaves(weyl: tuple, two: np.ndarray, q0: int, q1: int) -> list[list[Gate]]:
    """The circuit of each 4x4 unitary u of a stack, from its `_weyl`
    decomposition, on qubits q0 (most significant) and q1, global phase
    included: two CNOTs where `two` is set, which needs one Weyl
    coordinate at a multiple of pi/2 (a real tr gamma, `_leaf_diagonals`),
    else three.

    From `_weyl`, u = e^{ig} M O1 diag(e^{i phi}) p^T M^dag.  The three-CNOT
    form (Vatan and Williams, arXiv:quant-ph/0308006) realizes N(a, b, c)
    as e^{i pi/4} (I x Rz(pi/2)) CNOT(q1->q0) (Rz(pi/2 - 2c) x Ry(2a - pi/2))
    CNOT(q0->q1) (I x Ry(pi/2 - 2b)) CNOT(q1->q0) (Rz(-pi/2) x I).  The
    two-CNOT form first moves the coordinate nearest a multiple of pi/2
    into slot b, by an even permutation of the eigenvectors (which stay in
    SO(4), so the permutation lands in the outer U gates), then to 0, by
    pi shifts of phi[1] and phi[2], and drops it: N(a, 0, c) is
    (Rz(-pi/2) x I) CNOT(q0->q1) (Ry(-2a) x Rz(-2c)) CNOT(q0->q1)
    (Rz(pi/2) x I).  Either way the outer Rz(+-pi/2) fold into the four U
    gates.  One `_local_factors` call splits O1 and p of every leaf, and
    one `u_angles` call reads all four U gates of every leaf."""
    g, um, p, phi = weyl
    s = np.abs(np.sin(2.0 * _coordinates(phi)))
    # coordinates within round-off of a multiple of pi/2 tie: take the first
    order = _TO_SLOT_B[np.where(two, np.argmin(np.where(s <= _ZERO_COORD, 0.0, s), axis=-1), 1)]
    rows = np.arange(len(phi))[:, None]
    p = p[rows[:, None], np.arange(4)[:, None], order[:, None, :]]
    phi = phi[rows, order]
    a, b, c = _coordinates(phi).T
    quarters = two * np.rint(b * (2.0 / np.pi))   # b = quarters pi/2 on a two-CNOT leaf
    phi[:, 1:3] -= np.pi * quarters[:, None]
    o1 = ((um @ p) * np.exp(-1j * phi)[:, None, :]).real
    n = len(um)
    # O1 = k0 x k1 (rows :n) and O2 = p^T (rows n:) back from the magic basis, in one call
    k0, k1 = _local_factors(_MAGIC @ np.concatenate([o1, p.swapaxes(-1, -2)]) @ _MAGIC_DAG)
    form = np.where(two, 0, 1)
    rephase = np.exp(1j * (g + 0.25 * phi.sum(axis=-1) + np.where(two, 0.0, 0.25 * np.pi)))
    # the U gates before the CNOTs (q0, then q1), then after them, in one call
    angles = u_angles(np.concatenate([rephase[:, None, None] * (_BEFORE[form] @ k0[n:]), k1[n:],
                                      k0[:n] @ _AFTER0[form], k1[:n] @ _AFTER1[form]]))
    cx10, cx01 = Gate(CNOT, (q1, q0)), Gate(CNOT, (q0, q1))
    out = []
    for j, (x, y, z, short) in enumerate(zip(a.tolist(), b.tolist(), c.tolist(), two.tolist())):
        first, second = Gate(U, (q0,), angles[j]), Gate(U, (q1,), angles[n + j])
        third, fourth = Gate(U, (q0,), angles[2 * n + j]), Gate(U, (q1,), angles[3 * n + j])
        if short:
            out.append([first, second, cx01, Gate(RY, (q0,), (0.0 - 2.0 * x,)),
                        Gate(RZ, (q1,), (0.0 - 2.0 * z,)), cx01, third, fourth])
        else:
            out.append([first, second, cx10, Gate(RY, (q1,), (0.5 * np.pi - 2.0 * y,)), cx01,
                        Gate(RZ, (q0,), (0.5 * np.pi - 2.0 * z,)),
                        Gate(RY, (q1,), (2.0 * x - 0.5 * np.pi,)), cx10, third, fourth])
    return out


def _weyl_diagonals(u: np.ndarray) -> np.ndarray:
    """e^{i psi} of `_leaf_diagonals` for each 4x4 unitary in the stack u,
    from its Weyl coordinates.

    D = (I x Rz(psi)) exp(i psi ZZ / 2), and the magic basis takes ZZ to
    diag(1, 1, -1, -1), so tr gamma(D u) is, up to sign,
    sum_k e^{2i lam_k} (e^{i psi} w_k + e^{-i psi} (1 - w_k)) with
    lam = _XYZ^T (a, b, c) and w_k = O1[0, k]^2 + O1[1, k]^2.  Its
    imaginary part vanishes at
    tan psi = 2 sin 2a sin 2b sin 2c / sum_k (2 w_k - 1) sin^2 lam_k:
    both sides are written so that nothing cancels when the coordinates
    are small, where the entries of u hold them only to round-off."""
    _, um, p, phi = _weyl(u)
    o1 = ((um @ p) * np.exp(-1j * phi)[:, None, :]).real
    s = np.sin(2.0 * _coordinates(phi))
    lam = phi - 0.25 * phi.sum(axis=-1, keepdims=True)   # _XYZ^T (a, b, c)
    den = ((2.0 * (o1[:, 0] ** 2 + o1[:, 1] ** 2) - 1.0) * np.sin(lam) ** 2).sum(axis=-1)
    # a leaf that already takes two CNOTs takes no diagonal: where two or
    # three coordinates vanish, psi would follow the round-off
    done = (np.abs(s) <= _ZERO_COORD).any(axis=-1)
    return np.where(done, 1.0, _unit(den, 2.0 * np.prod(s, axis=-1)))


def _diagonal(w: np.ndarray) -> np.ndarray:
    """The entries of D = diag(1, 1, conj w, w) of `_leaf_diagonals`, a row
    of four per w = e^{i psi}."""
    d = np.ones(w.shape + (4,), dtype=complex)
    d[..., 2], d[..., 3] = w.conj(), w
    return d


def _unit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x + iy) / |x + iy|, or 1 where x = y = 0, by correctly rounded
    real arithmetic alone, so that a member's value does not depend on
    its place in the stack."""
    r = np.sqrt(x * x + y * y)
    safe = np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, x / safe, 1.0) + 1j * np.where(r > 0.0, y / safe, 0.0)


def _leaf_diagonals(leaves: np.ndarray, order: np.ndarray, parents, open_ends: bool):
    """(w_in, w_out, two) for the leaves of a stack, chained in time order.

    Member j runs leaves[order[j, 0]], leaves[order[j, 1]], ... on the
    same two qubits, and between them only multiplexors that those qubits
    control, which commute with a diagonal on them.  So each leaf L may be
    built up to D = diag(1, 1, e^{-i psi}, e^{i psi}) (Shende, Bullock and
    Markov, arXiv:quant-ph/0406176, Appendix A): the circuit realizes
    D L, and the next leaf takes D^dag on its right.  With psi chosen so
    that tr gamma(D L) is real, gamma(x) = x YY x^T YY for x = L /
    det(L)^(1/4), D L takes two CNOTs (Shende, Markov and Bullock,
    arXiv:quant-ph/0308033).  Leaf i is realized as diag(1, 1, conj
    w_out[i], w_out[i]) L diag(1, 1, w_in[i], conj w_in[i]), w = e^{i psi},
    in two CNOTs where two[i].

    The first leaf of member j takes over the diagonal of the last leaf of
    member parents[j] (parents[j] < j, or -1 for none).  The last leaf of
    a member that no other member continues is exact, unless `open_ends`.
    tr gamma(D L) = e^{i psi} A + e^{-i psi} B, with A and B bilinear in
    the entries of L; so Im tr gamma vanishes at psi = -arg(A - conj B),
    where A - conj B = alpha conj(w_in) + beta w_in with alpha and beta
    taken from L once for every leaf.  The pass over the leaf positions
    is then one complex multiply-add per leaf.  Where |A - conj B| is
    below _CARRY_ATOL, psi from the entries loses the digits the Weyl
    coordinates keep, and `_weyl_diagonals` gives it instead, for the
    members of a heap level at one position in one call."""
    n, count = order.shape
    # the terms of (L YY L^T)[0, 3] and [1, 2] that the columns 2 and 3 of
    # D_in^dag scale by conj(w_in) and by w_in, each a sum of two products
    e = leaves.reshape(-1, 16).T   # e[4 r + s]: entry (r, s) of every leaf
    terms = (e[_YY_TERMS[0]] * e[_YY_TERMS[1]]).reshape(4, 2, -1).sum(axis=1)
    terms *= np.exp(-0.5j * phase(np.linalg.det(leaves))) * _YY_SIGNS
    # one Python complex per leaf: a stack's rows are few, its positions many
    alpha, beta = (-terms[:2] - terms[3:1:-1].conj()).tolist()
    parents = [-1] * n if parents is None else np.asarray(parents).tolist()
    rows_at, depth = [], []
    for j, parent in enumerate(parents):
        depth.append(depth[parent] + 1 if parent >= 0 else 0)
        rows_at += [[] for _ in range(depth[j] + 1 - len(rows_at))]
        rows_at[depth[j]].append(j)
    continued = set(parents)
    order = order.tolist()
    w_in, w_out, two = [_ONE] * len(leaves), [_ONE] * len(leaves), [True] * len(leaves)
    for rows in rows_at:
        seqs = [order[j] for j in rows]
        ws = [w_out[order[parents[j]][-1]] if parents[j] >= 0 else _ONE for j in rows]
        ends = [not open_ends and j not in continued for j in rows]
        for t in range(count):
            last, weak = t == count - 1, []
            for k, seq in enumerate(seqs):
                i, w = seq[t], ws[k]
                w_in[i] = w
                if last and ends[k]:
                    w, two[i] = _ONE, False
                else:
                    z = alpha[i] * w.conjugate() + beta[i] * w
                    zz = z.real * z.real + z.imag * z.imag
                    if zz < _CARRY_ATOL**2:
                        weak.append(k)
                        continue
                    r = math.sqrt(zz)
                    w = complex(z.real / r, -z.imag / r)
                ws[k] = w_out[i] = w
            if weak:
                i = [seqs[k][t] for k in weak]
                undone = leaves[i] * _diagonal(np.array([w_in[x] for x in i])).conj()[:, None]
                for k, x, w in zip(weak, i, _weyl_diagonals(undone).tolist()):
                    ws[k] = w_out[x] = w
    return np.array(w_in), np.array(w_out), np.array(two)


def _qsd(u: np.ndarray, qubits: list[int]):
    """Shannon decomposition of each matrix in the stack u, on `qubits`
    (qubits[0] most significant), down to its two-qubit leaves: (leaves,
    order, gaps), where member j runs leaves[order[j, 0]], then the gates
    gaps[j][0], then leaves[order[j, 1]], and so on, all leaves on
    qubits[-2:].

    The matrices are unitaries, or rounds: 2^p x 2^(p-1) with qubits[0]
    starting in |0>.  Every matrix of a level is split by the same batched
    numpy calls, and their factors form the stack of the level below;
    one Walsh-Hadamard butterfly (`multiplexed_rotations`) gives the level's
    multiplexor angles for the whole stack.  The Ry multiplexor's closing
    CNOT, from lower[0], is a CZ in disguise: Ry(t) = Z X Ry(t + pi), so
    the patterns where lower[0] is 1 take theta + pi, and the CZ, which is
    I + Z on lower[0] in the blocks of the top qubit, folds into u2 before
    it is demultiplexed.  A unitary then takes 4 c(p-1) + 3 2^(p-1) - 1
    CNOTs and a round 3 c(p-1) + 2^p - 1, c(2) = 3, before the leaves are
    built up to their diagonals (`_leaf_diagonals`)."""
    if len(qubits) == 2:
        return u, np.arange(len(u))[:, None], [[] for _ in u]
    top, lower = qubits[0], tuple(qubits[1:])
    n, h = len(u), u.shape[1] // 2
    u1, u2, theta, v1h = cs_split(u[:, :h, :h], u[:, h:, :h])
    lower0 = np.arange(h) >= h // 2
    if u.shape[2] == h:
        # only v1h acts on the lower qubits while the top one is |0>
        w, rz, z = _demultiplex(u1, np.where(lower0, -u2, u2))
        mux = multiplexed_rotations([RY] * n + [RZ] * n, lower, top,
                            np.concatenate([theta + np.pi * lower0, rz]))
        return _joined(_qsd(np.concatenate([v1h, w, z]), lower), n, [0, 1, 2],
                       [[m[:-1] for m in mux[:n]], mux[n:]])
    # the right half is [-u1 S v2h; u2 C v2h]
    cos, sin = np.cos(0.5 * theta)[..., None], np.sin(0.5 * theta)[..., None]
    v2h = cos * (dagger(u2) @ u[:, h:, h:]) - sin * (dagger(u1) @ u[:, :h, h:])
    w, rz, z = _demultiplex(np.concatenate([v1h, u1]),
                            np.concatenate([v2h, np.where(lower0, -u2, u2)]))
    mux = multiplexed_rotations([RZ] * 2 * n + [RY] * n, lower, top,
                        np.concatenate([rz, theta + np.pi * lower0]))
    # w and z hold v's factors, then u's: v's w, Rz, z, then Ry, then u's w, Rz, z
    return _joined(_qsd(np.concatenate([w, z]), lower), n, [0, 2, 1, 3],
                   [mux[:n], [m[:-1] for m in mux[2 * n:]], mux[n:2 * n]])


def _joined(sub, n: int, parts: list[int], muxes: list) -> tuple:
    """`_qsd`'s triple for n members from that of the level below: member
    j runs member parts[k] n + j of the level below for each k in turn,
    with the gates muxes[k][j] between parts k and k + 1."""
    leaves, order, gaps = sub
    order = np.concatenate([order[b * n:(b + 1) * n] for b in parts], axis=1)
    joined = []
    for j in range(n):
        row = list(gaps[parts[0] * n + j])
        for mux, b in zip(muxes, parts[1:]):
            row += [mux[j]] + gaps[b * n + j]
        joined.append(row)
    return leaves, order, joined


def shannon_decomposition(v: np.ndarray, qubits: list[int], parents, open_ends: bool):
    """(gate lists, diagonals) of the stack v: `_qsd`, its leaves chained
    by `_leaf_diagonals` and built in one `_leaves` call;
    `synth.decompose_isometries` describes the arguments and the result."""
    # As in `synth._reduction_segments`: an imaginary part within round-off of
    # the unit columns is round-off, and a real input decomposes as itself.
    # The chained diagonals pass a perturbation of one leaf on to the next.
    v = v.astype(np.complex128)
    v.imag[np.abs(v.imag) <= _ULP] = 0.0
    leaves, order, gaps = _qsd(v, qubits)
    w_in, w_out, two = _leaf_diagonals(leaves, order, parents, open_ends)
    d_out = _diagonal(w_out)
    built = _leaves(_weyl(d_out[:, :, None] * leaves * _diagonal(w_in).conj()[:, None, :]), two,
                    *qubits[-2:])
    out = []
    for row, gap in zip(order.tolist(), gaps):
        gates = list(built[row[0]])
        for between, i in zip(gap, row[1:]):
            gates += between
            gates += built[i]
        out.append(gates)
    return out, np.tile(d_out[order[:, -1]], (1, len(v[0]) // 4))
