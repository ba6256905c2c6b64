"""Dense complex matrix kernel: conjugate transpose, rectangular QR,
canonical column phases, isometry check.

All matrices are numpy arrays of dtype complex128.  Qubit 0 is the most
significant bit of a basis index throughout the package.
"""

from __future__ import annotations

import numpy as np

ISOMETRY_ATOL = 1e-9
# Largest dense complex128 array the package allocates: 2^20 entries, 16 MiB.
# Sizes are checked on the exponent, before any power of two is computed.
MAX_DENSE_QUBITS = 20
MAX_DENSE_ENTRIES = 2**MAX_DENSE_QUBITS


def _as_complex(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix contains non-finite entries")
    return a


def dagger(x: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix in a stack."""
    return x.conj().swapaxes(-1, -2)


def qr_rectangular(b) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a tall matrix b (rows >= cols), or of each matrix in
    a stack of them (..., rows, cols), by LAPACK.

    Returns (q, r) with q @ r = b: q is rows x cols with orthonormal
    columns and r is cols x cols upper triangular with a real
    nonnegative diagonal.  That convention makes the factors unique for
    full-rank b.  For rank-deficient b they are not unique: q still has
    orthonormal columns and r has (near-)zero diagonal entries.
    """
    b = _as_complex(b)
    if b.shape[-2] < b.shape[-1]:
        raise ValueError("non-tall matrix")
    q, r = np.linalg.qr(b)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phase = np.ones_like(d)
    np.divide(d, mag, out=phase, where=mag > 0.0)
    q *= phase[..., None, :]
    r *= phase.conj()[..., :, None]
    idx = np.arange(mag.shape[-1])
    r[..., idx, idx] = mag
    return q, r


def canonical_phases(x: np.ndarray) -> np.ndarray:
    """x with each column scaled by the phase that makes sum_k e^{ik} x[k]
    real and positive, for a matrix or a stack of them.

    LAPACK picks the phase of a singular vector or an eigenvector by sign
    tests and largest entries, which round-off can flip.  This weighted
    sum moves continuously with x, and the irrational weights keep it off
    zero on the structured vectors (basis vectors, +-1/sqrt(2) pairs)
    where an argmax would tie."""
    f = np.exp(1j * np.arange(x.shape[-2])) @ x
    mag = np.abs(f)
    phase = np.ones_like(f)
    np.divide(f.conj(), mag, out=phase, where=mag > 0.0)
    return x * phase[..., None, :]


def is_isometry(v) -> bool:
    v = np.asarray(v, dtype=np.complex128)
    g = v.conj().T @ v
    return bool(np.linalg.norm(g - np.eye(v.shape[1])) < ISOMETRY_ATOL)

