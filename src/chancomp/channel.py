"""Channel representations: Kraus sets, Choi matrices, Stinespring dilations.

The analysis (minimal Kraus form, rank, extremality, dilation) is one SVD
of the Kraus operators; a Choi matrix is built only to measure a distance
(verification and the template objective).

Conventions (fixed once, used everywhere):
  * A channel maps m qubits to n qubits; Kraus operators are 2^n x 2^m.
  * The Choi matrix is J = sum_{ij} |i><j|_in (x) E(|i><j|), unnormalized,
    so tr J = 2^m and trace preservation reads tr_out J = I_in.
  * The input factor is the most significant block of J's index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    MAX_DENSE_ENTRIES,
    MAX_DENSE_QUBITS,
    canonical_phases,
    partial_trace,
    qr_rectangular,
)

TP_ATOL = 1e-9
RANK_RTOL = 1e-9
GRAM_RTOL = 1e-8


@dataclass(frozen=True)
class KrausSet:
    """A channel from m to n qubits as a list of 2^n x 2^m Kraus operators."""

    m: int
    n: int
    ops: tuple = field(repr=False)

    def __init__(self, m: int, n: int, ops, atol: float = TP_ATOL):
        if m < 0 or n < 0:
            raise ValueError("qubit counts must be nonnegative")
        if m + n > MAX_DENSE_QUBITS:
            raise ValueError(f"a channel from {m} to {n} qubits exceeds the cap of "
                             f"{MAX_DENSE_ENTRIES} dense entries per Kraus operator")
        mats = tuple(np.asarray(a, dtype=np.complex128) for a in ops)
        if len(mats) < 1:
            raise ValueError("need at least one Kraus operator")
        dn, dm = 2**n, 2**m
        for a in mats:
            if a.shape != (dn, dm):
                raise ValueError(f"Kraus operator shape {a.shape} != ({dn}, {dm})")
            if not np.isfinite(a).all():
                raise ValueError("Kraus operators contain non-finite entries")
        s = sum(a.conj().T @ a for a in mats)
        if np.linalg.norm(s - np.eye(dm)) >= atol:
            raise ValueError("Kraus operators are not trace preserving")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ops", mats)

    @property
    def K(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class ChoiMatrix:
    m: int
    n: int
    j: np.ndarray = field(repr=False)

    def __init__(self, m: int, n: int, j):
        j = np.asarray(j, dtype=np.complex128)
        d = 2 ** (m + n)
        if j.shape != (d, d):
            raise ValueError("Choi matrix has wrong dimension")
        if np.linalg.norm(j - j.conj().T) >= 1e-10:
            raise ValueError("Choi matrix is not Hermitian")
        tr_out = partial_trace(j, range(m))
        if np.linalg.norm(tr_out - np.eye(2**m)) >= 1e-8:
            raise ValueError("Choi matrix is not trace preserving")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "j", j)


def choi_from_kraus(ks: KrausSet) -> ChoiMatrix:
    """J = sum over Kraus operators of |vec(A)><vec(A)|, 4^(m+n) entries."""
    if 2 * (ks.m + ks.n) > MAX_DENSE_QUBITS:
        raise ValueError(f"the Choi matrix of a channel from {ks.m} to {ks.n} qubits exceeds "
                         f"the cap of {MAX_DENSE_ENTRIES} dense matrix entries")
    d = 2 ** (ks.m + ks.n)
    j = np.zeros((d, d), dtype=np.complex128)
    for a in ks.ops:
        w = a.T.reshape(-1)  # w[i*2^n + r] = A[r, i]
        j += np.outer(w, w.conj())
    return ChoiMatrix(ks.m, ks.n, j)


def minimal_kraus(ks: KrausSet) -> KrausSet:
    """Minimal Kraus form from one SVD of W = [vec A_1 ... vec A_K], any K.

    J = W W^dag, so W's left singular vectors times its singular values
    are J's eigenvectors times the roots of its eigenvalues.  Keeps those
    with s^2 > RANK_RTOL * tr(J), largest first.  Each gets the phase of
    `canonical_phases` rather than LAPACK's, which round-off can flip; a
    Kraus operator's phase does not change the channel.
    """
    w = np.stack([a.T.reshape(-1) for a in ks.ops], axis=1)  # w[i*2^n + r] = A[r, i]
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    kept = s**2 > RANK_RTOL * np.sum(s**2)
    vecs = canonical_phases(u[:, kept]) * s[kept]
    return KrausSet(ks.m, ks.n, vecs.T.reshape(-1, 2**ks.m, 2**ks.n).transpose(0, 2, 1))


def kraus_rank(ks: KrausSet) -> int:
    return minimal_kraus(ks).K


def is_extreme(ks: KrausSet) -> bool:
    """Choi's criterion: {A_i^dag A_j} linearly independent, on minimal form."""
    return is_extreme_minimal(minimal_kraus(ks))


def is_extreme_minimal(mini: KrausSet) -> bool:
    """`is_extreme` of a channel already in minimal Kraus form, as
    `minimal_kraus` returns it."""
    k = mini.K
    if k * k > 4**mini.m:
        return False
    rows = np.array(
        [(a.conj().T @ b).reshape(-1) for a in mini.ops for b in mini.ops]
    )
    gram = rows @ rows.conj().T
    sv = np.linalg.eigvalsh(gram)
    rank = int(np.sum(sv > GRAM_RTOL * sv.max()))
    return rank == k * k


def choi_distance(a: ChoiMatrix, b: ChoiMatrix) -> float:
    return float(np.linalg.norm(a.j - b.j))


def stinespring_isometry(ks: KrausSet, force_k: int | None = None) -> tuple[np.ndarray, int]:
    """(V, k): the minimal Kraus form stacked into an isometry V from m
    to n+k qubits.

    k = ceil(log2 K) for the Kraus rank K is as small as possible; the
    stack is padded with zero blocks up to 2^k operators.  `force_k`
    allows a larger environment than the minimal one.
    """
    base = minimal_kraus(ks)
    kk = base.K
    k = max(kk - 1, 0).bit_length()  # ceil(log2 kk)
    if force_k is not None:
        if force_k < k:
            raise ValueError(f"forced k={force_k} below minimal {k}")
        k = force_k
    ops = list(base.ops) + [
        np.zeros((2**base.n, 2**base.m), dtype=np.complex128)
        for _ in range(2**k - kk)
    ]
    return np.vstack(ops), k


def random_channel(m: int, n: int, kr: int, seed: int) -> KrausSet:
    """Seeded random channel of Kraus rank `kr` (with probability one).

    Samples a complex Gaussian matrix, orthonormalizes it into an
    isometry and unstacks the blocks.  Feasibility requires
    kr * 2^n >= 2^m (a rank-kr channel from m to n qubits exists iff
    this holds), and the sample must fit the dense-allocation cap.
    """
    if m < 0 or n < 0:
        raise ValueError(f"qubit counts must be non-negative, got m={m} n={n}")
    if m + n > MAX_DENSE_QUBITS or kr * 2 ** (m + n) > MAX_DENSE_ENTRIES:
        raise ValueError(f"a rank-{kr} channel from {m} to {n} qubits exceeds the "
                         f"cap of {MAX_DENSE_ENTRIES} dense matrix entries")
    if kr < 1 or kr > 2 ** (m + n):
        raise ValueError("Kraus rank out of range")
    if kr * 2**n < 2**m:
        raise ValueError(f"no channel from {m} to {n} qubits has Kraus rank {kr}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((kr * 2**n, 2**m)) + 1j * rng.standard_normal(
        (kr * 2**n, 2**m)
    )
    v, _ = qr_rectangular(g)
    ops = [v[i * 2**n : (i + 1) * 2**n, :] for i in range(kr)]
    return KrausSet(m, n, ops)


# --- JSON wire format ---------------------------------------------------


def _matrix_to_json(a: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array(
        [[complex(e[0], e[1]) for e in row] for row in rows], dtype=np.complex128
    )


def channel_to_json(ks: KrausSet) -> str:
    doc = {
        "m": ks.m,
        "n": ks.n,
        "kraus": [_matrix_to_json(a) for a in ks.ops],
    }
    return json.dumps(doc, indent=1)


def channel_from_json(text: str) -> KrausSet:
    doc = json.loads(text)
    try:
        m, n = doc["m"], doc["n"]
        for name, x in (("m", m), ("n", n)):
            if isinstance(x, bool) or not isinstance(x, int):
                raise TypeError(f'"{name}" must be an integer, got {x!r}')
        ops = [_matrix_from_json(a) for a in doc["kraus"]]
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc
    return KrausSet(m, n, ops)
