"""Decompose isometries into CNOT + single-qubit gates.

`decompose_isometries` is the one synthesis entry: a stack of isometries
of one shape, on named qubits, by one batched call (`decompose_isometry`
checks and decomposes a single matrix through it).  A one-qubit unitary
is one U gate, and every U gate takes its angles from the batched ZYZ
`circuit.u_angles`; other shapes take one of two constructions, chosen
from the shape of the isometry alone:

* The quantum Shannon decomposition (Shende, Bullock and Markov,
  arXiv:quant-ph/0406176) takes square unitaries and measured rounds
  (2^{p+1} x 2^p, the top qubit starting in |0>) of four or more
  columns.  It lives in the module `shannon`, imported on the first
  such call, so that a process that never takes it does not load it.
* Every other shape goes column by column (Iten et al., arXiv:1501.06911):
  for column j the reduction walks the target qubits from least to most
  significant, each step one uniformly controlled single-qubit gate that
  moves the mass of every active pair onto the bit of j.  The gate is
  built up to a diagonal by demultiplexing one control at a time
  (Bergholm et al., arXiv:quant-ph/0410066): 2^c - 1 CNOTs and 2^c U
  gates for c controls (`_ucg`).  The diagonal only rephases rows, so the
  reduction applies the step's actual matrix to its working copy and
  goes on.  A step is controlled only by the qubits that tell its active
  patterns apart from one another and from the patterns holding rows of
  already-reduced columns, where its gate is the identity.  A final
  diagonal on the input qubits cancels the per-column phases, so an
  isometry of two or more columns is reproduced exactly, global phase
  included.  A single column (state preparation) skips the diagonal and
  is reproduced up to a global phase.

Both keep gates whose angles happen to be zero, so the set of emitted
gates depends only on the matrix dimensions, never on its entries.
That makes CNOT counts input-independent (`n_iso`), which the channel
compiler relies on for uniform per-branch costs.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .circuit import (CNOT, RY, RZ, U, ZERO_AMP, Circuit, Gate, phase, u_angles, update_pairs,
                      walsh_hadamard)
from .linalg import canonical_phases, dagger, is_isometry, qr_rectangular

_ULP = np.finfo(np.float64).eps
_SQRT_HALF = 0.5**0.5
# The second entry of the vector (1, e^{-i}) whose projection gives each
# eigenvector in `_ucg`: the projection's inner product with it is real
# and positive, the phase `canonical_phases` picks.
_Q1 = cmath.exp(-1j)
_EIGHTH = cmath.exp(-0.25j * math.pi)   # D[0]^*, for D of `_ucg`


@lru_cache(maxsize=1024)
def _gray_code_cnots(controls: tuple[int, ...], target: int) -> tuple[Gate, ...]:
    """The CNOT after rotation i of the Gray-code multiplexor, for each i.

    Its control is the bit that flips between gray(i) and gray(i + 1)
    (the trailing zeros of i + 1), wrapping to the top bit after the last
    rotation.  Gates are immutable, so one Gate per control wire serves
    every slot, and every multiplexor, that uses it.
    """
    c = len(controls)
    by_bit = [Gate(CNOT, (controls[c - 1 - bit], target)) for bit in range(c)]
    bits = [((i + 1) & -(i + 1)).bit_length() - 1 for i in range(2**c - 1)] + [c - 1]
    return tuple(by_bit[bit] for bit in bits)


def multiplexed_rotations(axes, controls: tuple, target: int,
                          angles: np.ndarray) -> list[list[Gate]]:
    """`multiplexed_rotation` of each row of the stack angles, about axes[i]
    for row i.  Rotation i of a row carries the Walsh-Hadamard coefficient
    of that row at gray(i) = i ^ (i >> 1), scaled by 2^-c for c controls:
    one butterfly (`walsh_hadamard`) gives them for every row."""
    size = angles.shape[-1]
    i = np.arange(size)
    phis = (walsh_hadamard(angles)[:, i ^ (i >> 1)] / size).tolist()
    if not controls:
        return [[Gate(axis, (target,), (row[0],))] for axis, row in zip(axes, phis)]
    cnots = _gray_code_cnots(controls, target)
    return [[g for phi, cx in zip(row, cnots) for g in (Gate(axis, (target,), (phi,)), cx)]
            for axis, row in zip(axes, phis)]


def multiplexed_rotation(axis: str, controls, target: int, angles) -> list[Gate]:
    """Gate list realizing the block-diagonal rotation family.

    For every control pattern s (controls[0] is the most significant
    bit) the target qubit sees R_axis(angles[s]).  Uses the Gray-code
    construction: exactly 2^c rotations and 2^c CNOTs for c >= 1
    controls, a bare rotation for c = 0.  The one-row case of
    `multiplexed_rotations`.
    """
    if axis not in (RY, RZ):
        raise ValueError(f"axis must be {RY} or {RZ}")
    controls = tuple(controls)
    if target in controls:
        raise ValueError("target cannot be a control")
    angles = np.array(angles, dtype=np.float64).reshape(1, -1)
    if angles.size != 2 ** len(controls):
        raise ValueError(f"need {2 ** len(controls)} angles, got {angles.size}")
    return multiplexed_rotations((axis,), controls, target, angles)[0]


def ry_multiplexors_from_zero(controls, target: int, theta: np.ndarray) -> list[list[Gate]]:
    """The Ry multiplexor of `multiplexed_rotation` for each row of the
    stack theta, without its closing CNOT, for a target that starts in
    |0>: 2^c - 1 CNOTs for c >= 1 controls.  One `multiplexed_rotations`
    call serves the stack.

    The closing CNOT is controlled by controls[0].  On a target in |0> it
    only flips the target where that control is 1, so those patterns take
    pi - theta, whose rotated |0> is the flip of that of theta."""
    controls = tuple(controls)
    theta = np.asarray(theta, dtype=np.float64)
    axes = [RY] * len(theta)
    if not controls:
        return multiplexed_rotations(axes, controls, target, theta)
    half = theta.shape[-1] // 2
    psi = np.concatenate([theta[:, :half], np.pi - theta[:, half:]], axis=-1)
    return [row[:-1] for row in multiplexed_rotations(axes, controls, target, psi)]


@lru_cache(maxsize=4096)
def _step_controls(j: int, b: int, p: int):
    """(controls, index, rows, live) of the uniformly controlled gate that
    reduces column j at target bit b, or None when no pattern is active.

    A pattern s (the p - 1 bits other than bit b) is active, so may need a
    rotation, when it agrees with j below bit b and its row pair sits at or
    above row j.  It is protected when its pair touches a row below j: those
    rows belong to columns already reduced to basis vectors.  The controls
    are the qubits whose values tell the active patterns apart from one
    another and from the protected ones.  Starting from the bits above b
    and the bits below b that are 1 in j, which always separate, each bit
    is dropped in turn, least significant first, while the separation
    still holds.  index[s] is the control pattern of the full pattern s.
    Control pattern t takes its matrix from one full pattern: its active
    pattern where it has one, else its first; rows[:, t] holds that
    pattern's row pair and live[t] whether it is active.  The other
    patterns (no amplitude in column j, no reduced row) are don't-cares.
    """
    low_mask = (1 << b) - 1
    s = np.arange(1 << (p - 1))
    row0 = ((s >> b) << (b + 1)) | (s & low_mask)
    protected = row0 < j
    active = ((s & low_mask) == (j & low_mask)) & ~protected
    if not active.any():
        return None

    own, others = s[active].tolist(), s[protected].tolist()

    def separates(bits: int) -> bool:
        keys = {x & bits for x in own}
        return len(keys) == len(own) and keys.isdisjoint([x & bits for x in others])

    bits = ((1 << (p - 1)) - 1) & ~low_mask | (j & low_mask)
    for i in range(p - 1):
        if (bits >> i) & 1 and separates(bits & ~(1 << i)):
            bits &= ~(1 << i)
    kept = [i for i in reversed(range(p - 1)) if (bits >> i) & 1]   # most significant first
    # pattern bit i is row bit i below b and row bit i + 1 above it
    controls = tuple(p - 1 - i - (i >= b) for i in kept)
    index = np.zeros_like(s)
    for i in kept:
        index = (index << 1) | ((s >> i) & 1)
    rep = np.unique(index, return_index=True)[1]   # the first pattern of each
    rep[index[active]] = s[active]
    rows = np.stack([row0[rep], row0[rep] | (1 << b)])
    live = active[rep]
    for x in (index, rows, live):
        x.flags.writeable = False
    return controls, index, rows, live


def _diag_gates(lams, qubits) -> list[Gate]:
    """Exact diagonal phase gate diag(e^{-i lam_x}): a phased Rz carrying
    the mean, then a cascade of multiplexed Rz.  Angles are negated as
    0.0 - x, so a zero angle stays +0.0 and prints as "0"."""
    if len(qubits) == 1:
        lo, hi = lams[0], lams[1]
        return [Gate(U, (qubits[0],), (0.0 - (lo + hi) / 2.0, 0.0 - (hi - lo), 0.0, 0.0))]
    half = len(lams) // 2
    thetas = np.array([lams[2 * s + 1] - lams[2 * s] for s in range(half)])
    means = [(lams[2 * s + 1] + lams[2 * s]) / 2.0 for s in range(half)]
    # read backwards, the Gray-code list realizes the same matrix
    mux = multiplexed_rotation(RZ, qubits[:-1], qubits[-1], 0.0 - thetas)
    return _diag_gates(means, qubits[:-1]) + mux[::-1]


def _su2(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The special unitaries [[alpha, -conj(beta)], [beta, conj(alpha)]]."""
    g = np.stack([alpha, -beta.conj(), beta, alpha.conj()], axis=-1)
    return g.reshape(alpha.shape + (2, 2))


def _concentrators(col: np.ndarray, rows: np.ndarray, jb: int, live: np.ndarray):
    """(alpha, beta) of one special unitary (`_su2`) per control pattern for
    each column in the stack col, with the row pairs (a0, a1) `rows` of
    `_step_controls`: for a live pattern with mass, the one that moves its
    pair onto bit value jb with a real positive entry; the identity
    elsewhere."""
    a0, a1 = col[:, rows].transpose(1, 0, 2)
    norm = np.hypot(np.abs(a0), np.abs(a1))
    use = live & (norm >= ZERO_AMP)
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=use)
    if jb:
        alpha, beta = a1 * scale, a0.conj() * scale
    else:
        alpha, beta = a0.conj() * scale, -a1 * scale
    return np.where(use, alpha, 1.0), beta


def _ucg(alpha: list, beta: list) -> tuple[list, list]:
    """The uniformly controlled gate g[t] = _su2(alpha[t], beta[t]) (2^c
    control patterns t, controls[0] most significant) up to a diagonal
    (Bergholm et al., arXiv:quant-ph/0410066; Iten et al.,
    arXiv:1501.06911): alpha and beta become, in place, those of leaves w,
    and (lam0, lam1) is returned, such that H w[0], CNOT, H w[1] Rz(-pi/2) H,
    CNOT, ..., w[2^c - 1] Rz(-pi/2) H (H on the left of every leaf but the
    last, Rz(-pi/2) H on the right of every leaf but the first, between
    the CNOTs of `multiplexed_rotation` less its last) gives
    diag(lam0[t], lam1[t]) g[t] under pattern t: 2^c - 1 CNOTs.

    Level l demultiplexes control l of every node (a run of patterns that
    agree on the controls above l): its halves (a, b) become
    (d a e, b) = (z D w, z D^dag w) with D = diag(e^{i pi/4}, e^{-i pi/4}),
    w and z the node's children.  The middle gate D + D^dag is
    exp(i pi/4 Z_l Z_t): the CNOT from control l, H before and H,
    Rz(-pi/2) after it on the target, and diag(1, -i) on the control,
    which commutes to the end.  The left diagonal d makes d a e b^dag
    traceless, so that its eigenvalues are +-i: d0 = i conj(x) / |x| for
    its corner x, or 1 where x vanishes, and d1 fixes the determinant.
    The next node of the level takes over conj(d) as its e, so the carry
    runs along the nodes; the last node's d, and the controls' phases,
    are what lam collects.  z's first column is the projection of
    (1, e^{-i}) onto the +i eigenvector.  Every gate stays in SU(2), so
    the work is scalar: one (alpha, beta) pair per gate, in Python
    complex numbers."""
    n = len(alpha)
    last = []   # per level, the last node's (d0, d1) of each pair
    q1, iq1, eighth, eighth_c = _Q1, 1j * _Q1, _EIGHTH, _EIGHTH.conjugate()
    half = n >> 1
    while half:
        span = 2 * half
        ds = []
        last.append(ds)
        for s in range(half):
            e0 = e1 = 1.0
            for i in range(s, n, span):
                j = i + half
                a0, a1, b0, b1 = alpha[i], beta[i], alpha[j].conjugate(), beta[j]
                x = a0 * b0 * e0 + a1.conjugate() * b1 * e1   # (a e b^dag)[0, 0]
                r = abs(x)
                if r >= ZERO_AMP:   # then d a e b^dag has the corner i r
                    f0, u0, u1 = x * -1j / r, r, -r
                else:                # any d0 serves, and the corner is x
                    f0, u0, u1 = 1.0, -1j * x, -1j * x.conjugate()
                c0 = f0.conjugate()
                a0 *= c0 * e0     # d a e with d = conj(f), still in SU(2)
                a1 *= f0 * e1.conjugate()
                e0, e1 = f0, e0 * e1 * c0
                # y = d a e b^dag has the first column (i u0, y1); v = q - i y q
                y1 = a1 * b0 - a0.conjugate() * b1
                v0 = (1.0 + u0) + iq1 * y1.conjugate()
                v1 = q1 * (1.0 + u1) - 1j * y1
                norm = math.hypot(abs(v0), abs(v1))
                v0, v1 = v0 / norm, v1 / norm
                alpha[i] = eighth * (v0.conjugate() * a0 + v1.conjugate() * a1)
                beta[i] = eighth_c * (v0 * a1 - v1 * a0)
                alpha[j], beta[j] = v0, v1
            ds.append((e0.conjugate(), e1.conjugate()))
        half >>= 1
    # lam[t] multiplies, over the levels l, the last node's d of the pair
    # t's low bits select where t's bit l is 0, and where it is 1 the
    # controls' diag(1, -i) of the 2^l CNOTs on control l, undone
    lam0 = lam1 = [1.0]
    for level in reversed(range(len(last))):
        ph = (1j, -1.0)[level] if level < 2 else 1.0
        d0, d1 = zip(*last[level])
        lam0 = [d * x for d, x in zip(d0, lam0)] + [ph * x for x in lam0]
        lam1 = [d * x for d, x in zip(d1, lam1)] + [ph * x for x in lam1]
    return lam0, lam1


def _emitted_leaves(alpha: np.ndarray, beta: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The U gate matrices that run `_ucg` circuits backwards, from
    (alpha, beta) of the leaves of consecutive steps of `sizes` leaves,
    each step's leaves reversed.  The leaf at reversed position k of a
    step of n leaves had H folded in on its left unless k = 0 and
    Rz(-pi/2) H on its right unless k = n - 1; its gate is the adjoint."""
    pos = np.concatenate([np.arange(n) for n in [0] + sizes])[:, None, None]
    last = np.repeat(sizes, sizes)[:, None, None] - 1
    w = _su2(alpha, beta)
    r0, r1 = w[..., 0, :], w[..., 1, :]
    w = np.where(pos > 0, _SQRT_HALF * np.stack([r0 + r1, r0 - r1], axis=-2), w)
    c0, c1 = w[..., :, 0] * _EIGHTH.conjugate(), w[..., :, 1] * _EIGHTH
    w = np.where(pos < last, _SQRT_HALF * np.stack([c0 + c1, c0 - c1], axis=-1), w)
    return dagger(w)


def _reduction_segments(v: np.ndarray):
    """Per-column steps of the reduction of each isometry in the stack v,
    the final diagonal's phases and the reduced working copies.

    A step (target, controls, alpha, beta) is the `_ucg` circuit, with its
    leaves' (alpha, beta) for each isometry, of the special unitaries that
    concentrate column j of every active pattern onto bit b of j
    (`_concentrators`); the qubits outside the controls do not matter
    (`_step_controls`).  The steps in order, then diag(e^{i lams}) on the
    first rows (None for one column), map v to [I; 0] exactly.  Each step
    is one pair update of the working copies by the matrix its circuit
    gives each pattern, diag(lam) g: the diagonal only rephases rows, and
    the final one absorbs the phases."""
    n_mat, rows, cols = v.shape
    p = rows.bit_length() - 1
    work = v.astype(np.complex128)   # a fresh copy
    # An imaginary part within round-off of the unit columns is round-off:
    # the leftover diagonals carry rounding from step to step, so a real
    # input decomposes as itself whatever the sign of that round-off.
    work.imag[np.abs(work.imag) <= _ULP] = 0.0
    segments = []
    for j in range(cols):
        seg = []
        for b in range(p):
            step = _step_controls(j, b, p)
            if step is None:
                continue
            controls, index, rows, live = step
            alpha, beta = _concentrators(work[:, :, j], rows, (j >> b) & 1, live)
            leaves = alpha.tolist(), beta.tolist()
            lam = np.array([_ucg(x, y) for x, y in zip(*leaves)]).transpose(0, 2, 1)
            update_pairs(work, b, (lam[..., None] * _su2(alpha, beta))[:, index])
            seg.append((p - 1 - b, controls) + leaves)
        segments.append(seg)
    lams = -phase(np.diagonal(work, axis1=1, axis2=2)) if cols >= 2 else None
    return segments, lams, work


def _column_gates(v: np.ndarray, qubits: list[int]) -> list[list[Gate]]:
    """The column-by-column reduction of each isometry in the stack v, run
    backwards, on `qubits` (qubits[0] most significant): the inverse
    diagonal, then each step's inverse from the last step to the first,
    its leaves adjoint and reversed between the same CNOTs (their sequence
    is a palindrome).  The diagonal acts on the input qubits, the last
    log2(columns), alone, since the others start in |0>.  One `u_angles`
    call serves every leaf of every isometry."""
    segments, lams, _ = _reduction_segments(v)
    m = v.shape[2].bit_length() - 1
    steps = [(qubits[t], tuple(qubits[c] for c in controls), alpha, beta)
             for seg in reversed(segments) for t, controls, alpha, beta in reversed(seg)]
    alpha = np.array([[x for _, _, a, _ in steps for x in reversed(a[i])] for i in range(len(v))])
    beta = np.array([[x for _, _, _, b in steps for x in reversed(b[i])] for i in range(len(v))])
    per = alpha.shape[1]
    angles = u_angles(_emitted_leaves(alpha, beta, [1 << len(c) for _, c, _, _ in steps])
                      .reshape(-1, 2, 2))
    out = []
    for i in range(len(v)):
        gates = [] if lams is None else _diag_gates(lams[i].tolist(), qubits[len(qubits) - m:])
        it = iter(angles[i * per:(i + 1) * per])
        for target, controls, _, _ in steps:
            for cx in _gray_code_cnots(controls, target)[:-1] if controls else ():
                gates.append(Gate(U, (target,), next(it)))
                gates.append(cx)
            gates.append(Gate(U, (target,), next(it)))
        out.append(gates)
    return out


def _u_gates(u: np.ndarray, q: int) -> list[Gate]:
    """One U gate on qubit q per 2x2 unitary in the stack u (`u_angles`)."""
    return [Gate(U, (q,), angles) for angles in u_angles(u)]


def cs_split(a: np.ndarray, b: np.ndarray):
    """(u1, u2, theta, v1h) with a = u1 C v1h and b = u2 S v1h, where
    C = diag(cos(theta / 2)) and S = diag(sin(theta / 2)), for the square
    halves of isometries [a; b] (stacks of them).

    The SVD of a fixes v1h.  Where c >= 1/sqrt(2) it leaves v1h free
    within each cluster of c near 1, so those rows are turned by the SVD
    of b's image of them, which makes every column of b v1h^dag
    orthogonal; the other rows get distinct singular values above 1 on
    rows of their own, which keeps them in place.  Then QR of a v1h^dag
    (descending c) and of b v1h^dag (descending s) gives u1, c, u2 and s:
    each column is found from the ones before it, which are the
    well-determined ones."""
    _, c, v1h = np.linalg.svd(a)
    n = c.shape[-1]
    near_one = c >= _SQRT_HALF
    v1 = dagger(v1h)
    apart = np.where(near_one, 0.0, 2.0 + np.arange(n))[..., None, :] * np.eye(n)
    zh = np.linalg.svd(np.concatenate([(b @ v1) * near_one[..., None, :], apart], axis=-2),
                       full_matrices=False)[2]
    v1 = canonical_phases(v1 @ dagger(zh)[..., ::-1])
    u1, r1 = qr_rectangular(a @ v1)
    u2, r2 = qr_rectangular((b @ v1)[..., ::-1])
    c = np.diagonal(r1, axis1=-2, axis2=-1).real
    s = np.diagonal(r2, axis1=-2, axis2=-1).real[..., ::-1]
    # contiguous inputs: numpy's arctan2 loop on a strided view can round
    # an element differently, so a matrix's angles would depend on its batch
    theta = 2.0 * np.arctan2(np.ascontiguousarray(s), np.ascontiguousarray(c))
    return u1, u2[..., ::-1], theta, dagger(v1)


def _uses_qsd(m: int, n: int) -> bool:
    """Whether an m-to-n isometry takes the Shannon decomposition: square
    unitaries and measured rounds of four or more columns."""
    return m >= 2 and n - m <= 1


def decompose_isometries(v: np.ndarray, qubits, parents=None,
                         open_ends: bool = False) -> tuple[list[list[Gate]], np.ndarray]:
    """(gate lists, diagonals): one gate list per isometry in the stack v
    (2^p x 2^c each) on the p `qubits` (qubits[0] most significant, the
    inputs on the last c), by one batched call whose construction the
    shape alone picks: no gate for p = 0 (a 1 x 1 isometry is a global
    phase), one U gate for a one-qubit unitary, the Shannon decomposition
    where `_uses_qsd`, else the column-by-column reduction.  Each list
    holds n_iso(c, p) CNOTs.

    The Shannon path leaves a diagonal d_j, row j of the 2^p diagonal
    entries returned, on the last two qubits after member j and undoes
    d_parents[j] before it (parents[j] < j, or -1 for none): its gates
    realize diag(d_j) v[j] diag(d_parents[j])^dag.  So a chain of members
    whose in-between gates those qubits control, such as a measured
    round's ancilla multiplexor and measurement, costs one CNOT less per
    member that another continues.  d_j is 1 when no member continues j,
    unless `open_ends`: then every member leaves its diagonal, and
    whatever follows must undo it.  The other paths leave none (d = 1)."""
    qubits = list(qubits)
    rows, cols = v.shape[1:]
    p, mc = rows.bit_length() - 1, cols.bit_length() - 1
    if _uses_qsd(mc, p):
        from .shannon import shannon_decomposition

        return shannon_decomposition(v, qubits, parents, open_ends)
    if p == 0:
        lists = [[] for _ in v]
    elif p == mc == 1:
        lists = [[g] for g in _u_gates(v, qubits[0])]
    else:
        lists = _column_gates(v, qubits)
    return lists, np.ones((len(v), rows), dtype=complex)


def decompose_isometry(v) -> Circuit:
    """Circuit on p qubits reproducing the 2^p x 2^c isometry v (up to a
    global phase when c = 1), by `decompose_isometries`.

    The first p - log2(c) qubits start in |0>; the inputs feed the
    trailing qubits.  The emitted gates and their CNOT count depend only
    on the shape of v."""
    v = np.asarray(v, dtype=np.complex128)
    rows, cols = v.shape
    p, mc = rows.bit_length() - 1, max(cols - 1, 0).bit_length()
    if 2**p != rows or 2**mc != cols or rows < cols:
        raise ValueError("shape must be 2^n x 2^m with n >= m")
    if not is_isometry(v):
        raise ValueError("not an isometry")
    gates = decompose_isometries(v[None], range(p))[0][0]
    return Circuit(p, tuple(range(p - mc, p)), tuple(range(p)), tuple(gates), 0)


@lru_cache(maxsize=None)
def n_iso(m: int, n: int) -> int:
    """CNOT count `decompose_isometry` emits for any m-to-n isometry.

    The Shannon decomposition of a p-qubit unitary takes
    4 c(p-1) + 3 2^(p-1) - 1 CNOTs with c(2) = 3 before its 4^(p-2)
    leaves chain their diagonals, and one less for every leaf but the
    last: c(p) = (23 4^p - 72 2^p + 64) / 48 (Shende, Bullock and Markov,
    arXiv:quant-ph/0406176, Appendix A).  A round (n = m + 1) chains the
    3 4^(m-2) leaves of its three m-qubit unitaries, and its Ry
    multiplexor drops its closing CNOT: 3 c(m) + 2^(m+1) - 3.  The
    column-by-column count is summed over the steps the reduction takes:
    2^c - 1 for a step whose uniformly controlled gate has c controls
    (`_step_controls`), then 2^m - 2 for the diagonal on the m input
    qubits."""
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    if _uses_qsd(m, n):
        c = (23 * 4**m - 72 * 2**m + 64) // 48
        return c if n == m else 3 * c + 2 ** (m + 1) - 3
    count = 0
    for j in range(2**m):
        for b in range(n):
            step = _step_controls(j, b, n)
            if step is not None:
                count += 2 ** len(step[0]) - 1
    return count + (2**m - 2 if m else 0)
