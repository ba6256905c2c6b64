"""Channel representations: Kraus sets, Choi matrices, Stinespring dilations.

The analysis (minimal Kraus form, rank, extremality, dilation) is one SVD
of the Kraus operators and a Choi distance one QR of them; a Choi matrix
is built only for the template objective.

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

from .linalg import MAX_DENSE_ENTRIES, MAX_DENSE_QUBITS, canonical_phases, qr_rectangular

TP_ATOL = 1e-9
RANK_RTOL = 1e-9
GRAM_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """The Choi matrix j of a channel from m to n qubits, as `choi_from_kraus` returns it."""

    m: int
    n: int
    j: np.ndarray = field(repr=False)


def kraus_vectors(ops) -> np.ndarray:
    """W with w[..., i*2^n + r, k] = A_k[r, i] for a (..., K, 2^n, 2^m) Kraus stack: J = W W^dag."""
    a = np.asarray(ops)
    return a.swapaxes(-1, -2).reshape(*a.shape[:-2], -1).swapaxes(-1, -2)


def choi_from_kraus(ks: KrausSet) -> ChoiMatrix:
    """J = W W^dag for W of `kraus_vectors`, 4^(m+n) entries."""
    if 2 * (ks.m + ks.n) > MAX_DENSE_QUBITS:
        raise ValueError(f"the Choi matrix of a channel from {ks.m} to {ks.n} qubits exceeds "
                         f"the cap of {MAX_DENSE_ENTRIES} dense matrix entries")
    w = kraus_vectors(ks.ops)
    return ChoiMatrix(ks.m, ks.n, w @ w.conj().T)


def minimal_kraus(ks: KrausSet) -> KrausSet:
    """Minimal Kraus form from one SVD of W = [vec A_1 ... vec A_K], any K.

    J = W W^dag, so W's left singular vectors times its singular values
    are J's eigenvectors times the roots of its eigenvalues.  Keeps those
    with s^2 > RANK_RTOL * tr(J), largest first.  Each gets the phase of
    `canonical_phases` rather than LAPACK's, which round-off can flip; a
    Kraus operator's phase does not change the channel.  The kept set's TP
    residual is at most the input's plus the dropped weight sum s^2.
    """
    u, s, _ = np.linalg.svd(kraus_vectors(ks.ops), full_matrices=False)
    kept = s**2 > RANK_RTOL * np.sum(s**2)
    vecs = canonical_phases(u[:, kept]) * s[kept]
    return KrausSet(ks.m, ks.n, vecs.T.reshape(-1, 2**ks.m, 2**ks.n).transpose(0, 2, 1),
                    atol=TP_ATOL + np.sum(s[~kept] ** 2))


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


def kraus_distance(a, b) -> float:
    """||J_a - J_b||_F of two weighted lists [(p, KrausSet)], with no Choi
    matrix: one reduced QR [sqrt(p) W_a | sqrt(p) W_b] = Q [R_a | R_b] makes
    it ||R_a R_a^dag - R_b R_b^dag||_F, at most (K_a + K_b)-square."""
    if not all(np.isfinite(p) and p >= 0 for p, _ in (*a, *b)):
        raise ValueError("weights must be finite and nonnegative")
    w = np.hstack([np.sqrt(p) * kraus_vectors(ks.ops) for p, ks in (*a, *b)])
    ra, rb = np.hsplit(np.linalg.qr(w, mode="r"), [sum(ks.K for _, ks in a)])
    return float(np.linalg.norm(ra @ ra.conj().T - rb @ rb.conj().T))


def stinespring_isometry(ks: KrausSet, force_k: int | None = None) -> tuple[np.ndarray, int]:
    """(V, k): the minimal Kraus form stacked into an isometry V from m
    to n+k qubits.

    k = ceil(log2 K) for the Kraus rank K is as small as possible; the
    stack is padded with zero blocks up to 2^k operators.  `force_k`
    allows a larger environment than the minimal one.  Where the minimal
    form drops a tail, the kept operators miss trace preservation by the
    dropped weight, so V is replaced by its polar factor V (V^dag V)^(-1/2),
    the isometry nearest to it.
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
    v = np.vstack(ops)
    if kk < min(ks.K, 2 ** (ks.m + ks.n)):   # fewer kept than W's singular values
        u, _, wh = np.linalg.svd(v, full_matrices=False)
        v = u @ wh
    return v, k


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


def _entry_from_json(e) -> complex:
    if not (type(e) is list and len(e) == 2 and all(type(x) in (int, float) for x in e)):
        raise TypeError("a matrix entry must be a [re, im] pair of numbers")
    return complex(e[0], e[1])


def _matrix_from_json(rows) -> np.ndarray:
    mat = [[_entry_from_json(e) for e in row] for row in rows]
    if len({len(row) for row in mat}) > 1:
        raise TypeError("the rows of a Kraus operator differ in length")
    return np.array(mat, dtype=np.complex128)


def channel_to_json(ks: KrausSet) -> str:
    doc = {
        "m": ks.m,
        "n": ks.n,
        "kraus": [_matrix_to_json(a) for a in ks.ops],
    }
    return json.dumps(doc, indent=1)


def json_document(text: str):
    """The JSON value in `text`; the decoder's failures are worded as ours."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deep
        raise ValueError(f"malformed channel JSON: {exc}") from exc
    except ValueError as exc:   # an integer literal past Python's digit limit
        raise ValueError("malformed channel JSON: an integer has too many digits") from exc


def channel_from_object(doc) -> KrausSet:
    """The channel of a decoded JSON document, as `json_document` returns it."""
    if not isinstance(doc, dict):
        raise ValueError("malformed channel JSON: the document must be a JSON object")
    try:
        m, n = doc["m"], doc["n"]
        for name, x in (("m", m), ("n", n)):
            if isinstance(x, bool) or not isinstance(x, int):
                raise TypeError(f'"{name}" must be an integer, got {x!r}')
        ops = [_matrix_from_json(a) for a in doc["kraus"]]
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc
    return KrausSet(m, n, ops)


def channel_from_json(text: str) -> KrausSet:
    return channel_from_object(json_document(text))
