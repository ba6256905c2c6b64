import re

import numpy as np
import pytest

from chancomp.bounds import table1
from chancomp.channel import KrausSet, random_channel, stinespring_isometry
from chancomp.circuit import CNOT, MEASURE, TRACE, cnot_count
from chancomp.compiler import (
    MAX_COMPILE_QUBITS,
    ConvexMixture,
    compile_measured,
    compile_qcm,
    compile_random_qcm,
    plan_measured,
    predict_upper_bound,
    reconstruct_dilation,
    round_cnots,
    verify_circuit,
    verify_mixture,
)
from chancomp.linalg import qr_rectangular
from chancomp.synth import decompose_isometries, decompose_isometry, n_iso
from chancomp.templates import TEMPLATES

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
    # n + k = m: V is a plain unitary, then k discarding measurements
    ks = random_channel(2, 1, 2, seed=13)
    circ = compile_measured(ks)
    assert circ.num_qubits == 3
    assert count_measures(circ) == 1
    assert cnot_count(circ)[0] == n_iso(2, 2)
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


@pytest.mark.parametrize("m,n,kr,calls", [(3, 3, 8, 4), (2, 1, 4, 2), (2, 3, 4, 3)])
def test_compile_synthesizes_each_stage_in_one_batch(monkeypatch, m, n, kr, calls):
    # one decompose_isometries call per round, on the system qubits, and one
    # for the residuals: on all n qubits when m < n, else on the system
    import chancomp.compiler as compiler

    seen = []

    def counted(v, qubits):
        seen.append((len(v), list(qubits)))
        return decompose_isometries(v, qubits)

    monkeypatch.setattr(compiler, "decompose_isometries", counted)
    monkeypatch.setattr(compiler, "decompose_isometry", lambda v: pytest.fail("one by one"))
    ks = random_channel(m, n, kr, seed=60)
    circ = compile_measured(ks)
    k_tilde = plan_measured(ks).k_tilde
    assert len(seen) == k_tilde + 1 == calls
    p = n if m < n else m + 1
    system = list(range(p - m, p))
    assert seen == [(2**i, system) for i in range(k_tilde)] + \
        [(2**k_tilde, list(range(p)) if m < n else system)]
    assert verify_circuit(circ, ks) < 1e-8


@pytest.mark.parametrize("kr", [3, 8])
def test_batched_residuals_match_one_by_one(kr):
    # the (2, 3) residuals take one Shannon call; each of its gate lists is
    # decompose_isometry's for that residual alone.  Angles may differ in
    # the last bit: numpy's SIMD arctan2 can round an element differently
    # depending on where it falls in the batch.
    finals = plan_measured(random_channel(2, 3, kr, seed=70 + kr)).finals
    batched = decompose_isometries(finals, range(3))
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
    batched = decompose_isometries(finals, range(n))
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


def test_one_to_one_rank2_takes_the_template_count():
    # one round of one CNOT: T11's count, with no template fit
    for seed in range(5):
        ks = random_channel(1, 1, 2, seed)
        circ = compile_measured(ks)
        assert cnot_count(circ) == (TEMPLATES["T11"].cnot_count, True) == (1, True)
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
    # c(m) for v^dag plus 2^m - 1 for the opened Ry multiplexor
    assert [round_cnots(m) for m in range(5)] == [0, 1, 6, 31, 135]


def test_predict_upper_bound_cases():
    assert predict_upper_bound(1, 2, 1) == round_cnots(1) + n_iso(1, 2) == 4   # T12's count
    assert predict_upper_bound(2, 2, 0) == n_iso(2, 2)
    assert predict_upper_bound(2, 1, 2) == round_cnots(2) + n_iso(2, 2) == 9
    assert predict_upper_bound(2, 1, 1) == n_iso(2, 2)  # n+k = m
    assert predict_upper_bound(1, 2, 2) == 2 * round_cnots(1) + n_iso(1, 2)
    assert predict_upper_bound(1, 3, 0) == n_iso(1, 3)
    assert predict_upper_bound(1, 1, 1) == 1
    assert predict_upper_bound(3, 3, 3) == 3 * round_cnots(3) + n_iso(3, 3) == 117


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
