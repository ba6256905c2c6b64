"""Decompose isometries into CNOT + single-qubit gates.

The synthesizer reduces an isometry column by column: for column j it
walks the target qubits from least to most significant, each step using
a multiplexed Rz (phase alignment) followed by a multiplexed Ry (mass
concentration) over the remaining qubits, with rotation angles forced to
zero on control patterns that would disturb already-reduced columns.  A
final diagonal cascade cancels the per-column phases, so the emitted
circuit reproduces an isometry of two or more columns exactly, global
phase included.  A single column (state preparation) skips the cascade
and is reproduced up to a global phase.

Rotations whose angle happens to be zero are kept, and the set of
emitted gates depends only on the matrix dimensions, never on its
entries.  That makes CNOT counts input-independent, which the channel
compiler relies on for uniform per-branch costs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import CNOT, RY, RZ, U, Circuit, Gate, rotate_pairs, walsh_hadamard
from .linalg import is_isometry

_ZERO_AMP = 1e-12


def _gray_code_angles(angles: np.ndarray) -> list[float]:
    """Rotation angles of the Gray-code multiplexor, in emission order.

    phi[i] = 2^-c sum_s (-1)^popcount(gray(i) & s) angles[s] with
    gray(i) = i ^ (i >> 1): a Walsh-Hadamard transform read out in Gray
    order.
    """
    n = angles.size
    i = np.arange(n)
    return (walsh_hadamard(angles)[i ^ (i >> 1)] / n).tolist()


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


def multiplexed_rotation(axis: str, controls, target: int, angles) -> list[Gate]:
    """Gate list realizing the block-diagonal rotation family.

    For every control pattern s (controls[0] is the most significant
    bit) the target qubit sees R_axis(angles[s]).  Uses the Gray-code
    construction: exactly 2^c rotations and 2^c CNOTs for c >= 1
    controls, a bare rotation for c = 0.  Rotation i carries the
    Walsh-Hadamard coefficient of `angles` at gray(i), scaled by 2^-c.
    """
    if axis not in (RY, RZ, "Y", "Z"):
        raise ValueError("axis must be Y or Z")
    kind = RY if axis in (RY, "Y") else RZ
    controls = tuple(controls)
    if target in controls:
        raise ValueError("target cannot be a control")
    angles = np.array(angles, dtype=np.float64).reshape(-1)
    if angles.size != 2 ** len(controls):
        raise ValueError(f"need {2 ** len(controls)} angles, got {angles.size}")
    if not controls:
        return [Gate(kind, (target,), (float(angles[0]),))]
    gates = []
    for phi, cx in zip(_gray_code_angles(angles), _gray_code_cnots(controls, target)):
        gates.append(Gate(kind, (target,), (phi,)))
        gates.append(cx)
    return gates


def _phase(z) -> np.ndarray:
    """np.angle mapped into (-pi + 1/2, pi + 1/2], a cut on which no
    multiple of pi/4 lies.  np.angle cuts the negative real axis, where the
    entries of real isometries sit and round-off moves the angle by 2 pi."""
    a = np.angle(z)
    return np.where(a <= 0.5 - np.pi, a + 2.0 * np.pi, a)


@lru_cache(maxsize=4096)
def _active_mask(j: int, b: int, p: int) -> np.ndarray:
    """Control patterns that may need a rotation when reducing column j.

    A pattern s (the p - 1 bits other than bit b) is active when the pair
    member on the wrong side of target bit b can carry mass: it must
    agree with j below bit b and both pair members must sit at or above
    row j (rows below j belong to columns already reduced to basis
    vectors and must not be touched).
    """
    jb = (j >> b) & 1
    low_mask = (1 << b) - 1
    s = np.arange(1 << (p - 1))
    low = s & low_mask
    high = (s >> b) << (b + 1)
    wrong = high | ((1 - jb) << b) | low
    right = high | (jb << b) | low
    mask = (low == (j & low_mask)) & (wrong >= j) & (right >= j)
    mask.flags.writeable = False
    return mask


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


def _reduction_segments(v: np.ndarray):
    """Per-column steps of the reduction, the final diagonal's phases and
    the reduced working copy.

    A step (kind, target, angles) gives the target qubit R_kind(angles[s])
    for every pattern s of the other qubits (high to low).  The steps in
    order, then diag(e^{i lams}) (None for one column), map v to [I; 0]
    exactly.  Each step is one block update of the working copy
    (rotate_pairs), its angles read off the column pairs in bulk.
    """
    rows, cols = v.shape
    p = rows.bit_length() - 1
    work = v.astype(np.complex128)   # a fresh copy
    segments = []
    for j in range(cols):
        seg = []
        for b in range(p):
            active = _active_mask(j, b, p)
            if not active.any():
                continue
            target = p - 1 - b
            col = work[:, j].reshape(-1, 2, 1 << b)
            # phase alignment within each active pair
            a0, a1 = col[:, 0].reshape(-1), col[:, 1].reshape(-1)
            both = active & (np.minimum(np.abs(a0), np.abs(a1)) >= _ZERO_AMP)
            rz = np.where(both, _phase(a0 * a1.conj()), 0.0)
            seg.append((RZ, target, rz))
            rotate_pairs(work, RZ, b, rz)
            # rotate mass onto the component matching bit b of j
            a0, a1 = np.abs(col[:, 0].reshape(-1)), np.abs(col[:, 1].reshape(-1))
            either = active & (np.maximum(a0, a1) >= _ZERO_AMP)
            if (j >> b) & 1:
                ry = np.where(either, 2.0 * np.arctan2(a0, a1), 0.0)
            else:
                ry = np.where(either, -2.0 * np.arctan2(a1, a0), 0.0)
            seg.append((RY, target, ry))
            rotate_pairs(work, RY, b, ry)
        segments.append(seg)
    lams = None
    if cols >= 2:
        lams = np.zeros(2**p)
        lams[:cols] = -_phase(np.diagonal(work))
    return segments, lams, work


def decompose_isometry(v) -> Circuit:
    """Circuit on p qubits reproducing the 2^p x 2^c isometry v (up to a
    global phase when c = 1).

    The first p - log2(c) qubits start in |0>; the inputs feed the
    trailing qubits.  The emitted gates and their CNOT count depend only
    on the shape of v.  The circuit is the reduction run backwards: the
    inverse diagonal, then each step's inverse from the last step to the
    first.  That inverse is the Gray-code multiplexor for the negated
    angles, which ends in a bare CNOT: what lets the classicalization
    rewrite fire on compiled circuits.
    """
    v = np.asarray(v, dtype=np.complex128)
    rows, cols = v.shape
    p = rows.bit_length() - 1
    mc = max(cols - 1, 0).bit_length()
    if 2**p != rows or 2**mc != cols or rows < cols:
        raise ValueError("shape must be 2^n x 2^m with n >= m")
    if not is_isometry(v):
        raise ValueError("not an isometry")
    segments, lams, _ = _reduction_segments(v)
    gates = [] if lams is None else _diag_gates(lams.tolist(), list(range(p)))
    for seg in reversed(segments):
        for kind, target, angles in reversed(seg):
            controls = [q for q in range(p) if q != target]
            gates += multiplexed_rotation(kind, controls, target, 0.0 - angles)
    return Circuit(p, tuple(range(p - mc, p)), tuple(range(p)), tuple(gates), 0)


@lru_cache(maxsize=None)
def n_iso(m: int, n: int) -> int:
    """CNOT count this synthesizer emits for any m-to-n isometry."""
    if m < 0 or n < m:
        raise ValueError("need 0 <= m <= n")
    p = n
    per_multiplex = 2 ** (p - 1) if p >= 2 else 0
    count = 0
    for j in range(2**m):
        for b in range(p):
            if _active_mask(j, b, p).any():
                count += 2 * per_multiplex
    if m >= 1 and p >= 2:
        count += 2**p - 2
    return count
