import numpy as np
import pytest

from chancomp.linalg import qr_rectangular
from test_synth import frob_distance_up_to_phase

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_isometry(rows, cols, rng):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return qr_rectangular(g)[0]


def check_qr(b):
    """The reduced contract: q has orthonormal columns, q @ r = b, and r is
    exactly upper triangular with a real nonnegative diagonal."""
    q, r = qr_rectangular(b)
    p, c = b.shape
    assert q.shape == (p, c) and r.shape == (c, c)
    assert np.linalg.norm(q.conj().T @ q - np.eye(c)) < 1e-10
    assert np.linalg.norm(q @ r - b) < 1e-10 * max(1.0, np.linalg.norm(b))
    assert np.array_equal(r, np.triu(r))
    diag = np.diag(r)
    assert np.all(diag.imag == 0)
    assert np.all(diag.real >= 0)
    return q, r


def test_qr_identity():
    q, r = check_qr(np.eye(2, dtype=complex))
    assert np.allclose(q, np.eye(2))
    assert np.allclose(r, np.eye(2))


def test_qr_unit_column_forced_swap():
    b = np.array([[0.0], [1.0]], dtype=complex)
    q, r = check_qr(b)
    assert np.allclose(q, b)
    assert np.allclose(r, [[1.0]])


def test_qr_random_isometry_reconstructs():
    rng = np.random.default_rng(7)
    b = random_isometry(8, 2, rng)
    q, r = check_qr(b)
    assert np.linalg.norm(q @ r - b) < 1e-12
    # r^dag r = b^dag b = I with a positive diagonal forces r = I
    assert np.linalg.norm(r - np.eye(2)) < 1e-12


@pytest.mark.parametrize("shape", [(4, 4), (8, 3), (8, 8), (16, 4), (5, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qr_random_tall(shape, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = check_qr(b)
    assert np.linalg.norm(q @ r - b) < 1e-10 * np.linalg.norm(b)


def test_qr_zero_bottom_half():
    # padded Kraus stacks have all-zero bottom blocks; invariants must hold
    rng = np.random.default_rng(3)
    top = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    b = np.vstack([top, np.zeros((4, 2))])
    q, _ = check_qr(b)
    assert np.linalg.norm(q[4:]) < 1e-12


def test_qr_rank_deficient():
    rng = np.random.default_rng(8)
    col = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    b = np.hstack([col, 2j * col, np.zeros((6, 1))])
    _, r = check_qr(b)
    assert abs(r[1, 1]) < 1e-12 and r[2, 2] == 0


def test_qr_zero_matrix():
    q, r = check_qr(np.zeros((4, 2), dtype=complex))
    assert np.array_equal(r, np.zeros((2, 2)))


def test_qr_rejects_wide():
    with pytest.raises(ValueError, match="non-tall"):
        qr_rectangular(np.zeros((2, 4)))


def test_qr_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        qr_rectangular(np.array([[np.nan], [1.0]]))


def test_qr_deterministic():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    q1, r1 = qr_rectangular(b)
    q2, r2 = qr_rectangular(b)
    assert np.array_equal(q1, q2)
    assert np.array_equal(r1, r2)


def test_frob_phase_distance_zero_cases():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert frob_distance_up_to_phase(a, a) < 1e-12
    assert frob_distance_up_to_phase(a, -a) < 1e-12
    assert frob_distance_up_to_phase(a, 1j * a) < 1e-12


def test_frob_phase_distance_identity_vs_x():
    assert np.isclose(frob_distance_up_to_phase(I2, X), 2.0)


def test_frob_phase_distance_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        frob_distance_up_to_phase(np.eye(2), np.eye(3))


def test_qr_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(13)
    stack = rng.standard_normal((3, 8, 4)) + 1j * rng.standard_normal((3, 8, 4))
    stack[1, :, 2] = 0.0    # a zero column: that diagonal entry stays 0
    q, r = qr_rectangular(stack)
    for b, qb, rb in zip(stack, q, r):
        want_q, want_r = qr_rectangular(b)
        assert np.allclose(qb, want_q, atol=1e-13) and np.allclose(rb, want_r, atol=1e-13)
        assert np.all(np.diagonal(rb).real >= 0) and np.all(np.diagonal(rb).imag == 0)
