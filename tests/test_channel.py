import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancomp.channel import (
    KrausSet,
    channel_from_json,
    channel_to_json,
    choi_distance,
    choi_from_kraus,
    is_extreme,
    kraus_distance,
    kraus_rank,
    minimal_kraus,
    random_channel,
    stinespring_isometry,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def identity_channel():
    return KrausSet(1, 1, [I2])


def depolarizing_channel():
    return KrausSet(1, 1, [I2 / 2, X / 2, Y / 2, Z / 2])


def amplitude_damping(gamma):
    a1 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    a2 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausSet(1, 1, [a1, a2])


def test_kraus_set_validates_tp():
    with pytest.raises(ValueError, match="trace preserving"):
        KrausSet(1, 1, [I2 * 0.5])


def test_choi_of_identity_channel():
    j = choi_from_kraus(identity_channel()).j
    expected = np.zeros((4, 4), dtype=complex)
    for a, b in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[a, b] = 1.0
    assert np.allclose(j, expected)


def test_choi_of_depolarizing_is_maximally_mixed():
    j = choi_from_kraus(depolarizing_channel()).j
    assert np.allclose(j, np.eye(4) / 2)


@pytest.mark.parametrize("seed", range(5))
def test_choi_trace_is_input_dimension(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))
    n = int(rng.integers(1, 3))
    ks = random_channel(m, n, 2, seed)
    j = choi_from_kraus(ks).j
    assert np.isclose(np.trace(j), 2**m)


@pytest.mark.parametrize("m, n, kr", [(1, 1, 1), (1, 2, 3), (2, 1, 4), (2, 2, 5)])
def test_choi_from_kraus_is_the_sum_of_outer_products(m, n, kr):
    # the reference: sum over Kraus operators of |vec A><vec A|, with
    # vec A[i 2^n + r] = A[r, i]
    ks = random_channel(m, n, kr, seed=kr)
    want = sum(np.outer(a.T.reshape(-1), a.T.reshape(-1).conj()) for a in ks.ops)
    assert np.max(np.abs(choi_from_kraus(ks).j - want)) <= 1e-15


def test_choi_invariant_under_kraus_mixing():
    ks = amplitude_damping(0.4)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(g)
    mixed = KrausSet(1, 1, [u[0, 0] * ks.ops[0] + u[0, 1] * ks.ops[1],
                            u[1, 0] * ks.ops[0] + u[1, 1] * ks.ops[1]])
    d = choi_distance(choi_from_kraus(ks), choi_from_kraus(mixed))
    assert d < 1e-10


def test_kraus_equivalent():
    def equivalent(a, b):
        return choi_distance(choi_from_kraus(a), choi_from_kraus(b)) < 1e-10

    ks = amplitude_damping(0.5)
    assert equivalent(ks, ks)
    a1, a2 = ks.ops
    mixed = KrausSet(1, 1, [(a1 + a2) / np.sqrt(2), (a1 - a2) / np.sqrt(2)])
    assert equivalent(ks, mixed)
    assert not equivalent(identity_channel(), depolarizing_channel())


def redundant_channel(seed):
    # each Kraus operator of a rank-4 1->1 channel split into three copies:
    # 12 operators, more than the 2^(m+n) = 4 a minimal form can have
    ks = random_channel(1, 1, 4, seed)
    return KrausSet(1, 1, [a / np.sqrt(3) for a in ks.ops for _ in range(3)])


def zero_padded_channel(seed):
    ks = random_channel(1, 2, 2, seed)
    return KrausSet(1, 2, list(ks.ops) + [np.zeros((4, 2))] * 3)


def assert_minimal_form_of(ks, expected_k):
    mini = minimal_kraus(ks)
    assert mini.K == expected_k
    j = choi_from_kraus(ks).j
    assert np.linalg.norm(choi_from_kraus(mini).j - j) < 1e-12
    # the squared norms are the Choi matrix's nonzero eigenvalues, largest first
    norms = np.array([np.linalg.norm(a) for a in mini.ops])
    assert np.all(np.diff(norms) <= 1e-12)   # ties are equal only to round-off
    assert np.allclose(norms**2, np.linalg.eigvalsh(j)[::-1][:expected_k], atol=1e-12)
    for a in mini.ops:
        vec = a.T.reshape(-1)
        f = np.exp(1j * np.arange(vec.size)) @ vec   # the `canonical_phases` sum
        assert f.real > 0 and abs(f.imag) <= 1e-12 * abs(f)


def test_minimal_kraus_counts():
    assert minimal_kraus(identity_channel()).K == 1
    assert_minimal_form_of(depolarizing_channel(), 4)   # J = I/2: one fourfold eigenvalue


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build,expected_k", [(redundant_channel, 4), (zero_padded_channel, 2)],
                         ids=["three-copies", "zeros-appended"])
def test_minimal_kraus_of_redundant_lists(build, expected_k, seed):
    assert_minimal_form_of(build(seed), expected_k)


@pytest.mark.parametrize("seed,m,n,kr", [(0, 1, 1, 2), (1, 1, 2, 3), (2, 2, 1, 4), (3, 2, 2, 4)])
def test_choi_kraus_round_trip(seed, m, n, kr):
    assert_minimal_form_of(random_channel(m, n, kr, seed), kr)


def test_minimal_kraus_keeps_a_channel_after_dropping_its_tail():
    # the tail weight e sits under RANK_RTOL * tr J = 2e-9, so the minimal
    # form drops it, and the kept operator misses TP_ATOL = 1e-9 by e
    e = 9e-10
    ks = KrausSet(1, 1, [np.sqrt(1 - e) * I2, np.sqrt(e) * X])
    assert minimal_kraus(ks).K == kraus_rank(ks) == 1
    assert is_extreme(ks)


def test_dilation_of_a_dropped_tail_is_the_nearest_isometry():
    # the kept operator alone is not an isometry; the dilation is its polar
    # factor, an isometry to round-off whose channel moves by about e
    e = 9e-10
    ks = KrausSet(1, 1, [np.sqrt(1 - e) * I2, np.sqrt(e) * X])
    v, k = stinespring_isometry(ks)
    assert k == 0 and v.shape == (2, 2)
    assert np.linalg.norm(v.conj().T @ v - I2) < 1e-14
    assert kraus_distance([(1.0, KrausSet(1, 1, [v]))], [(1.0, ks)]) < 1e-8


@pytest.mark.parametrize("ks", [random_channel(2, 2, 3, seed=1), random_channel(1, 2, 8, seed=2),
                                KrausSet(1, 1, [I2 / np.sqrt(2), I2 / np.sqrt(2)])])
def test_dilation_with_nothing_dropped_is_the_stacked_minimal_form(ks):
    # an exactly zero tail is a dropped one too (the last case), and its
    # polar factor is the kept isometry to round-off
    v, k = stinespring_isometry(ks)
    mini = np.vstack(minimal_kraus(ks).ops)
    pad = np.zeros((len(v) - len(mini), v.shape[1]))
    if minimal_kraus(ks).K == min(ks.K, 2 ** (ks.m + ks.n)):
        assert np.array_equal(v, np.vstack([mini, pad]))
    else:
        assert np.linalg.norm(v - np.vstack([mini, pad])) < 1e-14


def test_records_compare_by_identity():
    # the generated field-wise __eq__ would compare numpy arrays and raise
    for build in (identity_channel, lambda: choi_from_kraus(identity_channel())):
        a, b = build(), build()
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_kraus_rank_examples():
    assert kraus_rank(identity_channel()) == 1
    assert kraus_rank(amplitude_damping(0.5)) == 2
    assert kraus_rank(depolarizing_channel()) == 4


def test_is_extreme_examples():
    assert is_extreme(identity_channel())
    assert not is_extreme(depolarizing_channel())
    assert is_extreme(amplitude_damping(0.3))


@pytest.mark.parametrize("seed", range(4))
def test_rank_above_2m_is_never_extreme(seed):
    ks = random_channel(1, 2, 3, seed)
    assert kraus_rank(ks) == 3 > 2
    assert not is_extreme(ks)


def test_stinespring_unitary_channel():
    v, k = stinespring_isometry(identity_channel())
    assert k == 0
    # minimal form may differ from I by a global phase only
    assert v.shape == (2, 2)
    assert np.linalg.norm(np.abs(v) - np.eye(2)) < 1e-10


def test_stinespring_amplitude_damping():
    ks = amplitude_damping(0.3)
    v, k = stinespring_isometry(ks)
    assert k == 1 and v.shape == (4, 2)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) < 1e-9
    # the stacked minimal form is another Kraus set of the same channel
    blocks = KrausSet(1, 1, [v[:2], v[2:]])
    assert choi_distance(choi_from_kraus(blocks), choi_from_kraus(ks)) < 1e-12


def test_stinespring_rank3_pads_zero_block():
    ks = random_channel(1, 1, 3, seed=5)
    v, k = stinespring_isometry(ks)
    assert k == 2
    assert v.shape == (8, 2)
    assert np.allclose(v[6:, :], 0)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) < 1e-9


def test_stinespring_force_k():
    ks = amplitude_damping(0.2)
    v, k = stinespring_isometry(ks, force_k=2)
    assert k == 2 and v.shape == (8, 2)
    with pytest.raises(ValueError, match="below minimal"):
        stinespring_isometry(ks, force_k=0)


def test_random_channel_unitary_case():
    ks = random_channel(1, 1, 1, seed=0)
    u = ks.ops[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12
    assert kraus_rank(ks) == 1


def test_random_channel_rank():
    assert kraus_rank(random_channel(1, 1, 2, seed=1)) == 2


def test_random_channel_deterministic():
    a = random_channel(2, 1, 3, seed=42)
    b = random_channel(2, 1, 3, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a.ops, b.ops))


def test_random_channel_infeasible():
    with pytest.raises(ValueError, match="Kraus rank"):
        random_channel(2, 0, 2, seed=0)
    with pytest.raises(ValueError, match="Kraus rank"):
        random_channel(1, 1, 5, seed=0)
    # rank 3 from 3 to 1 qubits: 3 * 2 < 8, no such channel
    with pytest.raises(ValueError, match="Kraus rank"):
        random_channel(3, 1, 3, seed=0)

    # numpy raised TypeError on the 2**-1 rows of a negative size
    for m, n in [(-1, 1), (1, -1)]:
        with pytest.raises(ValueError, match="non-negative"):
            random_channel(m, n, 1, seed=0)


@pytest.mark.parametrize("seed", range(3))
def test_generated_channels_tp_on_choi(seed):
    j = choi_from_kraus(random_channel(2, 2, 5, seed)).j
    # J's index is (input, output), the input most significant: tr_out J = I
    tr_out = np.einsum("iaja->ij", j.reshape(4, 4, 4, 4))
    assert np.linalg.norm(tr_out - np.eye(4)) < 1e-8
    assert np.linalg.norm(j - j.conj().T) < 1e-10


def test_channel_json_round_trip():
    ks = random_channel(1, 2, 2, seed=9)
    # an extra "choi" key is ignored on input
    doc = json.loads(channel_to_json(ks))
    doc["choi"] = [[[1.0, 0.0]]]
    back = channel_from_json(json.dumps(doc))
    assert back.m == ks.m and back.n == ks.n
    assert all(np.array_equal(a, b) for a, b in zip(ks.ops, back.ops))


def test_channel_json_malformed():
    # an entry is exactly two numbers: no bools, no third item; the rows
    # of an operator have one length
    entries = ["[true, false]", '[1, 0, "junk"]']
    texts = ['{"m": 1}'] + [f'{{"m": 0, "n": 0, "kraus": [[[{e}]]]}}' for e in entries]
    texts.append('{"m": 0, "n": 0, "kraus": [[[[1, 0]], [[1, 0], [0, 0]]]]}')
    # a top-level list, an integer past Python's digit limit, bad syntax
    texts += ["[]", '{"m": ' + "1" * 5000 + "}", '{"m": 1,']
    for text in texts:
        with pytest.raises(ValueError, match="^malformed channel JSON: "):
            channel_from_json(text)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_kraus_set_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        KrausSet(1, 1, [[[bad, 0], [0, 1]]])


def test_channel_json_rejects_nan():
    doc = json.loads(channel_to_json(identity_channel()))
    doc["kraus"][0][0][0] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        channel_from_json(json.dumps(doc))


def test_random_channel_size_cap():
    # the Gaussian sample has kr * 2^(m+n) entries; over 2^20 it is refused
    with pytest.raises(ValueError, match="cap"):
        random_channel(20, 20, 1, seed=0)
    with pytest.raises(ValueError, match="cap"):
        random_channel(10, 9, 4, seed=0)
    with pytest.raises(ValueError, match="cap"):
        random_channel(100_000_000_000, 1, 1, seed=0)
    assert random_channel(3, 7, 1, seed=0).K == 1


def test_choi_matrix_size_cap():
    # J has 4^(m+n) entries: m + n = 10 fits the 2^20 cap, 11 is refused unbuilt
    assert choi_from_kraus(random_channel(5, 5, 1, seed=0)).j.shape == (1024, 1024)
    with pytest.raises(ValueError, match="Choi matrix of a channel from 5 to 6 qubits .* cap"):
        choi_from_kraus(random_channel(5, 6, 1, seed=0))


def test_kraus_set_rejects_oversized_qubit_counts():
    with pytest.raises(ValueError, match="cap"):
        KrausSet(100_000_000_000, 1, [I2])
    with pytest.raises(ValueError, match="cap"):
        KrausSet(11, 10, [I2])


@pytest.mark.parametrize("m,n", [("1", 1), (1, 1.9), (1.0, 1), (True, 1), (1, None), (1, [1])])
def test_channel_json_needs_integer_sizes(m, n):
    doc = json.loads(channel_to_json(identity_channel()))
    doc["m"], doc["n"] = m, n
    with pytest.raises(ValueError, match="must be an integer"):
        channel_from_json(json.dumps(doc))


_LEAVES = (st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from([10**400, 2**64])
           | st.floats() | st.text(max_size=2))
_JSON = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.sampled_from(["m", "n", "kraus"]), kids, max_size=3),
                     max_leaves=12)
_ENTRY = st.lists(st.one_of(st.floats(-1.5, 1.5), _LEAVES), min_size=0, max_size=3)
_MATRIX = st.lists(st.lists(_ENTRY, min_size=1, max_size=4), min_size=1, max_size=4)
_DOCS = st.one_of(_JSON, st.fixed_dictionaries({
    "m": st.integers(0, 2) | _LEAVES,
    "n": st.integers(0, 2) | _LEAVES,
    "kraus": st.lists(_MATRIX, max_size=3) | _JSON,
}))


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_channel_json_fuzz_loads_or_raises_value_error(doc):
    try:
        ks = channel_from_json(json.dumps(doc))
    except ValueError:
        return
    assert isinstance(ks, KrausSet)


def _weighted_choi_distance(a, b):
    """||sum p J_a - sum p J_b||_F from the Choi matrices themselves."""
    def choi(side):
        return sum((p * choi_from_kraus(ks).j for p, ks in side), np.zeros((1, 1)))
    return float(np.linalg.norm(choi(a) - choi(b)))


def _kraus_forms(ks, seed):
    """One channel in several Kraus forms: minimal, split into scaled copies
    past 2^(m+n) operators, with zero operators appended, unitarily mixed."""
    copies = 2 ** (ks.m + ks.n) // ks.K + 1
    split = [a / np.sqrt(copies) for a in ks.ops for _ in range(copies)]
    padded = list(ks.ops) + [np.zeros_like(ks.ops[0])] * 2
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(padded),) * 2) + 1j * rng.standard_normal((len(padded),) * 2)
    u = np.linalg.qr(g)[0]
    mixed = np.einsum("ij,jrc->irc", u, np.array(padded))
    return [minimal_kraus(ks), KrausSet(ks.m, ks.n, split), KrausSet(ks.m, ks.n, padded),
            KrausSet(ks.m, ks.n, mixed)]


@pytest.mark.parametrize("m,n,kr", [(1, 1, 2), (1, 2, 3), (2, 1, 4), (2, 2, 1)])
def test_kraus_distance_is_the_choi_distance(m, n, kr):
    ks = random_channel(m, n, kr, seed=11)
    forms = _kraus_forms(ks, seed=12)
    assert forms[1].K > 2 ** (m + n)   # more columns than rows in [W_a | W_b]
    others = [random_channel(m, n, r, seed=13 + r) for r in (2 ** max(m - n, 0), kr)]
    for form in [ks] + forms:
        # the same channel, then different ones
        assert kraus_distance([(1.0, form)], [(1.0, ks)]) <= 1e-12
        for b in others:
            want = choi_distance(choi_from_kraus(ks), choi_from_kraus(b))
            assert abs(kraus_distance([(1.0, form)], [(1.0, b)]) - want) <= 1e-12
    # weighted mixtures, and an empty side
    a = [(0.3, forms[1]), (0.7, others[0])]
    b = [(0.5, others[1]), (0.25, forms[3]), (0.25, ks)]
    for x, y in [(a, b), (b, a), (a, a[::-1]), ([], b), (a, [])]:
        assert abs(kraus_distance(x, y) - _weighted_choi_distance(x, y)) <= 1e-12


@pytest.mark.parametrize("eps", [1e-9, 1e-12])
def test_kraus_distance_resolves_small_perturbations(eps):
    ks = random_channel(1, 2, 3, seed=21)
    rng = np.random.default_rng(22)
    e = rng.standard_normal(ks.ops[0].shape) + 1j * rng.standard_normal(ks.ops[0].shape)
    bent = KrausSet(1, 2, [ks.ops[0] + eps * e, *ks.ops[1:]], atol=1e-6)
    got = kraus_distance([(1.0, bent)], [(1.0, ks)])
    want = choi_distance(choi_from_kraus(bent), choi_from_kraus(ks))
    assert eps < want < 10 * eps
    assert abs(got - want) <= 1e-4 * want   # 4 significant digits


@pytest.mark.parametrize("p", [-0.5, -1e-300, np.nan, np.inf, -np.inf])
def test_kraus_distance_refuses_a_negative_or_non_finite_weight(p):
    ks = random_channel(1, 1, 2, seed=1)
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        kraus_distance([(1.0, ks)], [(p, ks)])
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        kraus_distance([(p, ks), (1.0, ks)], [(1.0, ks)])
