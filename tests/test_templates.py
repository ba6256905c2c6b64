import hashlib
from functools import reduce

import numpy as np
import pytest

from chancomp.channel import (
    KrausSet,
    choi_from_kraus,
    random_channel,
)
from chancomp import templates
from chancomp.bounds import param_count_extreme
from chancomp.circuit import (
    RX,
    RY,
    RZ,
    U,
    X,
    X_MATRIX,
    Circuit,
    Gate,
    cnot_count,
    rz_matrix,
    serialize,
)
from chancomp.compiler import compile_measured
from chancomp.rewrite import standard_passes
from chancomp.simulator import circuit_to_kraus, run_plan, simulate_unitary, static_plan
from reference_walker import reference_branches, rx_matrix, ry_matrix, u_matrix
from chancomp.templates import (
    SHAPES,
    Template,
    expand_reduced,
    fit,
    instantiate,
    reduced_dim,
    template,
    template_choi,
)

EXPECTED_CNOTS = {"T11": 1, "T12": 4, "T21": 7, "T22": 13}

# sha256 of serialize(t.circuit): the compile skeletons T11, T12 and T22
# and the transcribed T21
TOPOLOGY_SHA256 = {
    "T11": "d887740503199b3e3da42af83d9b9bbb5e166c0e4c341aeaa43491127ec78a3d",
    "T12": "5bbaf8ae85837376dfbb3d53a981fe56e6aa1e6c8a5e1a7fe59a94949959765b",
    "T21": "422b0ae60262d250330bafe8eea1c64c6b05dcece9d8d77ea08d7a03c269bf4f",
    "T22": "33bd843196f98db7030e382c34ff219b174efe8809ab126286d548024639175f",
}


@pytest.mark.parametrize("tid", sorted(SHAPES))
def test_template_topology_is_pinned(tid):
    text = serialize(template(tid).circuit)
    assert hashlib.sha256(text.encode()).hexdigest() == TOPOLOGY_SHA256[tid]


@pytest.mark.parametrize("tid", sorted(SHAPES))
def test_template_cnot_counts_match_small_case_figures(tid):
    t = template(tid)
    assert t.cnot_count == EXPECTED_CNOTS[tid]
    circ = instantiate(t, [0.0] * t.param_count)
    worst, uniform = cnot_count(circ)
    assert worst == EXPECTED_CNOTS[tid]
    assert uniform


@pytest.mark.parametrize("tid", sorted(SHAPES))
@pytest.mark.parametrize("seed", [0, 1])
def test_count_independent_of_parameters(tid, seed):
    t = template(tid)
    rng = np.random.default_rng(seed)
    circ = instantiate(t, rng.uniform(-4, 4, t.param_count))
    assert cnot_count(circ)[0] == EXPECTED_CNOTS[tid]


@pytest.mark.parametrize("tid", sorted(SHAPES))
def test_instantiate_fills_angles_in_gate_order(tid):
    t = template(tid)
    assert instantiate(t, [0.0] * t.param_count) == t.circuit
    params = np.arange(1.0, t.param_count + 1)
    got = instantiate(t, params)
    assert [x for g in got.gates for x in g.params] == params.tolist()
    assert [(g.kind, g.qubits, g.creg, g.condition) for g in got.gates] == [
        (g.kind, g.qubits, g.creg, g.condition) for g in t.circuit.gates]


def test_instantiate_rejects_wrong_length():
    t = template("T11")
    with pytest.raises(ValueError, match="takes 14 parameters"):
        instantiate(t, [0.0] * 3)


def test_t11_zero_params_matches_golden_choi():
    # at zero angles the skeleton copies the input bit onto the ancilla and
    # measures it: the completely dephasing channel, Choi matrix diag(1,0,0,1)
    t = template("T11")
    j = choi_from_kraus(circuit_to_kraus(instantiate(t, [0.0] * 14))).j
    assert np.linalg.norm(j - np.diag([1.0, 0.0, 0.0, 1.0])) < 1e-12


def _structure(c):
    header = (c.num_qubits, c.input_qubits, c.output_qubits, c.num_cregs)
    return header, [(g.kind, g.qubits, g.creg, g.condition) for g in c.gates]


@pytest.mark.parametrize("tid", ["T11", "T12", "T22"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_skeleton_templates_match_random_compiles(tid, seed):
    # the measured compile's gate structure depends on the shape alone
    t = template(tid)
    assert (t.m, t.n, t.max_rank) == SHAPES[tid] and t.max_rank == 2**t.m
    assert all(x == 0.0 for g in t.circuit.gates for x in g.params)
    compiled = standard_passes(compile_measured(random_channel(t.m, t.n, t.max_rank, seed)))
    assert _structure(t.circuit) == _structure(compiled)


def channel_dim(m, n, r):
    """Real dimension of the set of m-to-n channels of Kraus rank r."""
    return 2 * r * 2 ** (m + n) - 4**m - r * r


@pytest.mark.parametrize("tid", sorted(SHAPES))
def test_template_has_the_coordinates_of_its_rank(tid):
    # necessary for a generic channel of rank max_rank to be reachable
    t = template(tid)
    assert channel_dim(t.m, t.n, 2**t.m) == param_count_extreme(t.m, t.n)
    assert reduced_dim(t) >= channel_dim(t.m, t.n, t.max_rank)


def test_t22_refuses_rank_five_before_any_start(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit started")

    monkeypatch.setattr(templates, "minimize", refuse)
    with pytest.raises(ValueError, match="T22 handles Kraus rank <= 4"):
        fit(template("T22"), random_channel(2, 2, 5, seed=5))


def test_closed_form_u_matches_gate_semantics():
    # one slot of each single-qubit kind, each on its own qubit: the plan
    # run on a stack of parameter vectors follows the gate-by-gate
    # matrices, and each of its rows the run on the instantiated circuit
    gates = (Gate(U, (0,), (0.0,) * 4), Gate(RY, (1,), (0.0,)), Gate(RZ, (2,), (0.0,)),
             Gate(RX, (3,), (0.0,)), Gate(X, (4,)))
    wires = tuple(range(5))
    t = Template("slots", 5, 5, 1, Circuit(5, wires, wires, gates, 0))
    rng = np.random.default_rng(3)
    params = rng.uniform(-7, 7, (50, 7))
    plan = static_plan(t.circuit)
    assert plan.x_mask.tolist() == [False, False, False, False, True]
    ops = run_plan(plan, params)
    assert ops.shape == (50, 1, 32, 32)
    for p, op in zip(params, ops[:, 0]):
        # qubit 0 is the most significant factor
        want = reduce(np.kron, [u_matrix(*p[:4]), ry_matrix(p[4]), rz_matrix(p[5]),
                                rx_matrix(p[6]), X_MATRIX])
        assert np.linalg.norm(op - want) < 1e-13
        # X's matrix is exact: the entries it leaves zero are exactly zero
        assert not op[np.kron(np.ones((16, 16)), np.eye(2)) != 0].any()
        own = simulate_unitary(instantiate(t, p))
        assert np.max(np.abs(own - op)) <= 1e-15


@pytest.mark.parametrize("tid", sorted(SHAPES))
def test_fast_choi_agrees_with_simulator(tid):
    # against the gate-by-gate reference: circuit_to_kraus runs the same plan
    t = template(tid)
    rng = np.random.default_rng(7)
    batch = rng.uniform(-3, 3, (5, t.param_count))
    js = template_choi(t, batch)
    assert js.shape == (5, 2 ** (t.m + t.n), 2 ** (t.m + t.n))
    for params, j in zip(batch, js):
        ops = [op for _, op in reference_branches(instantiate(t, params))]
        j_ref = choi_from_kraus(KrausSet(t.m, t.n, ops)).j
        assert np.linalg.norm(j - j_ref) < 1e-12
        assert np.array_equal(template_choi(t, params), j)


def test_template_choi_rejects_wrong_length():
    with pytest.raises(ValueError, match="takes 14 parameters"):
        template_choi(template("T11"), [0.0] * 13)


@pytest.mark.parametrize("tid", sorted(SHAPES))
def test_parameter_shift_gradient_matches_central_differences(tid):
    t = template(tid)
    objective = templates._objective(t, choi_from_kraus(random_channel(t.m, t.n, 2, seed=11)).j)
    x = np.random.default_rng(13).uniform(-np.pi, np.pi, reduced_dim(t))
    _, grad = objective(x)
    h = 1e-5
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        diff = (objective(x + e)[0] - objective(x - e)[0]) / (2 * h)
        assert abs(grad[i] - diff) < 1e-7 * max(1.0, abs(diff))


def test_expand_reduced_round_trip_dimensions():
    for t in map(template, SHAPES):
        n_u = sum(g.kind == U for g in t.circuit.gates)
        assert reduced_dim(t) == t.param_count - n_u
        full = expand_reduced(t, [0.1] * reduced_dim(t))
        assert len(full) == t.param_count
        # every angle but each U gate's global phase alpha is a coordinate
        for g in instantiate(t, full).gates:
            assert g.params == ((0.0, 0.1, 0.1, 0.1) if g.kind == U else (0.1,) * len(g.params))


def test_fit_rejects_wrong_dimensions():
    t = template("T11")
    with pytest.raises(ValueError, match="expects a 1->1"):
        fit(t, random_channel(1, 2, 2, seed=0))


def test_fit_rejects_high_rank():
    t = template("T11")
    with pytest.raises(ValueError, match="rank"):
        fit(t, random_channel(1, 1, 3, seed=0))


def test_fit_rejects_no_starts():
    with pytest.raises(ValueError, match="starts"):
        fit(template("T11"), random_channel(1, 1, 2, seed=0), starts=0)


def test_fit_t11_identity_channel():
    t = template("T11")
    params, dist = fit(t, KrausSet(1, 1, [np.eye(2)]), starts=20, tol=1e-9, seed=0)
    assert dist < 1e-9
    j = template_choi(t, params)
    want = choi_from_kraus(KrausSet(1, 1, [np.eye(2)])).j
    assert np.linalg.norm(j - want) < 1e-8


def test_fit_t11_random_channel():
    t = template("T11")
    ks = random_channel(1, 1, 2, seed=4)
    params, dist = fit(t, ks, starts=20, tol=1e-6, seed=40)
    assert dist < 1e-6
    # returned parameters really do instantiate to the fitted channel
    j = choi_from_kraus(circuit_to_kraus(instantiate(t, params))).j
    assert np.linalg.norm(j - choi_from_kraus(ks).j) < 2e-6


def test_fit_t12_random_channel():
    t = template("T12")
    ks = random_channel(1, 2, 2, seed=5)
    params, dist = fit(t, ks, starts=40, tol=1e-4, seed=50)
    assert dist < 1e-4


def _counting_minimize(monkeypatch):
    """Count the search's starts: each one is a `templates.minimize` call."""
    calls = []
    real = templates.minimize

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(templates, "minimize", counted)
    return calls


@pytest.mark.parametrize("tid,n,starts,tol,seed", [("T11", 1, 20, 1e-6, 7000),
                                                   ("T12", 2, 40, 1e-4, 8000),
                                                   ("T22", 2, 20, 1e-4, 9000)])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_compile_skeleton_fit_takes_the_compiled_start(tid, n, starts, tol, seed, s,
                                                       monkeypatch):
    # criterion 8's calls, and T22's alike: the target's own compile
    # realizes it, so no search starts
    calls = _counting_minimize(monkeypatch)
    t = template(tid)
    ks = random_channel(t.m, n, t.max_rank, seed=s)
    params, dist = fit(t, ks, starts=starts, tol=tol, seed=seed + s)
    assert calls == []
    assert dist < 1e-12
    j = choi_from_kraus(circuit_to_kraus(instantiate(t, params))).j
    assert np.linalg.norm(j - choi_from_kraus(ks).j) < 1e-12


@pytest.mark.parametrize("tid,n", [("T11", 1), ("T12", 2), ("T22", 2)])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_rank_one_fit_takes_the_compiled_start(tid, n, s, monkeypatch):
    # a rank-1 target compiled at k = 1 leaves out outcome 1, which cannot
    # happen; the template's gates under it keep zero angles, and the
    # compiled start still realizes the target without a search.  T22
    # (k = 2) is checked at every rank below its 4, ranks 2 and 3 included
    calls = _counting_minimize(monkeypatch)
    t = template(tid)
    for rank in range(1, t.max_rank):
        ks = random_channel(t.m, n, rank, seed=s)
        params, dist = fit(t, ks)
        assert calls == []
        assert dist < 1e-12
        j = choi_from_kraus(circuit_to_kraus(instantiate(t, params))).j
        assert np.linalg.norm(j - choi_from_kraus(ks).j) < 1e-12


# sha256 of the returned params' float64 bytes, the same as when the
# compiled start's distance came from the objective's 2d + 1 evaluations
T22_FIT_SHA256 = {
    4: "2aba5a34bd725a2ee05ba81d38fda9baf55e6d42a140e5258070eb9e6904f136",
    2: "d5de49f664349552ad8bc123abc7d6b745bbdad33f8e9c30cdba20d4f539215d",
}


@pytest.mark.parametrize("rank", sorted(T22_FIT_SHA256))
def test_reachable_t22_fit_evaluates_one_parameter_vector(rank, monkeypatch):
    evaluated = []
    real = templates.template_choi

    def counted(t, params):
        evaluated.append(np.asarray(params).reshape(-1, t.param_count).shape[0])
        return real(t, params)

    monkeypatch.setattr(templates, "template_choi", counted)
    params, dist = fit(template("T22"), random_channel(2, 2, rank, seed=3), tol=1e-4)
    assert evaluated == [1]
    assert dist < 1e-12
    assert hashlib.sha256(np.array(params).tobytes()).hexdigest() == T22_FIT_SHA256[rank]


def test_fit_searches_when_the_compiled_start_misses(monkeypatch):
    # no distance is below tol = 0, so the seeded search runs all its starts
    calls = _counting_minimize(monkeypatch)
    _, dist = fit(template("T11"), random_channel(1, 1, 2, seed=4), starts=2, max_iters=5,
                  tol=0.0, seed=1)
    assert len(calls) == 2
    assert dist >= 0.0


def test_fit_t21_runs(monkeypatch):
    # T21's hand-built structure is not the (2,1) compile's: the search runs
    calls = _counting_minimize(monkeypatch)
    t = template("T21")
    ks = random_channel(2, 1, 4, seed=6)
    params, dist = fit(t, ks, starts=1, max_iters=60, tol=1e-4, seed=60)
    assert len(calls) >= 1
    assert len(params) == t.param_count
    assert dist >= 0.0


def test_instantiate_injective_on_parameters():
    t = template("T11")
    rng = np.random.default_rng(9)
    a = rng.uniform(-3, 3, t.param_count)
    b = a.copy()
    b[5] += 0.25
    assert instantiate(t, a) != instantiate(t, b)
    assert instantiate(t, a) == instantiate(t, a.copy())
