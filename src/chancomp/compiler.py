"""Compile channels into circuits: plain dilation, randomized mixtures,
and the measured single-ancilla construction.

The measured pipeline stacks the Kraus operators into a dilation
isometry V and peels off one environment qubit per round.  Each outcome
prefix s holds an isometry Q_s (V for the empty one).  Its top and
bottom halves factor by QR as Q_s0 R_0 and Q_s1 R_1, and the
cosine-sine split R_0 = u_0 C v^dag, R_1 = u_1 S v^dag (Shende, Bullock
and Markov, arXiv:quant-ph/0406176) leaves two gates to act before the
measurement: v^dag on the system, then the Ry multiplexor that turns the
ancilla from |0> into cos(theta/2) |0> + sin(theta/2) |1> per system
basis state.  The ancilla is measured and reset.  u_b depends only on
the outcome b, so it is folded into the child, Q_sb u_b, at no cost.
For m >= 2, v^dag is emitted up to a diagonal D on its last two qubits
(`decompose_isometries`).  D commutes with the Ry multiplexor, which the
system controls, and with the measurement, so the child's v^dag, or its
residual, undoes D instead.  A round then takes r(m) = c(m) - 1 + 2^m - 1
CNOTs, c(m) = n_iso(m, m).

After the rounds, a residual per outcome prefix is synthesized under
classical conditions.  With m < n there are k rounds, and each residual
is a 2^n x 2^m isometry on all n qubits.  With m >= n there are
n + k - m rounds, and each residual is an m-qubit unitary on the
system; the first m - n system qubits then hold leftover environment,
which is measured off into registers that are never read.

When the Kraus rank K is below 2^k, the zero blocks that pad V make some
prefixes impossible for every input (`outcome_conditions`).  The plan
keeps every factor as a stack in prefix order, but the circuit emits
nothing for those prefixes: where a node's 1-subtree is all padding, its
0-subtree's blocks do not read that node's register, so each register
assignment still runs one block per stage and every branch the same
CNOT count.  The m-qubit unitaries of the prefixes that can happen,
the v^dag of every round and the residuals when m >= n, go into one
`decompose_isometries` call on the system, each prefix chained to its
parent; the m < n residuals take the last round's diagonals into their
columns and a second call on all n qubits.  The shape (m, n, K) alone
picks each call's construction.

Qubit layout: one reused ancilla at index 0, the m system qubits last.
A channel with m >= n compiles to exactly m+1 qubits (the ancilla may
be idle in the degenerate cases), one with m < n to exactly n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, kraus_distance, stinespring_isometry
from .circuit import MEASURE, RESET, TRACE, Circuit, Gate, conditioned
from .linalg import is_isometry, qr_rectangular
from .simulator import circuit_to_kraus
from .synth import (cs_split, decompose_isometries, decompose_isometry, n_iso,
                    ry_multiplexors_from_zero)

MAX_COMPILE_QUBITS = 9   # largest m + n + k: the verifier enumerates every branch


@dataclass(frozen=True, eq=False)
class CompilePlan:
    """Case split and per-outcome-prefix factors for one channel, each a
    stack in prefix order: the factors of the prefix of value j (the
    first outcome most significant) sit at index j, so the children of
    prefix j sit at 2j and 2j + 1."""

    m: int
    n: int
    k: int
    k_tilde: int                             # rounds; k - k_tilde leftover measurements
    rank: int                                # V's Kraus blocks; the 2^k - rank after them pad it
    stages: tuple = field(repr=False)        # round i -> (v^dag, theta) over its 2^i prefixes
    finals: np.ndarray = field(repr=False)   # the residual isometry of each full prefix


@dataclass(frozen=True, eq=False)
class ConvexMixture:
    """Probabilistic mixture of channels sharing input/output sizes."""

    components: tuple

    def __init__(self, components):
        comps = tuple((float(p), ks) for p, ks in components)
        if not comps:
            raise ValueError("empty mixture")
        if not all(np.isfinite(p) and p > 0 for p, _ in comps):
            raise ValueError("probabilities must be finite and positive")
        if abs(sum(p for p, _ in comps) - 1.0) >= 1e-12:
            raise ValueError("probabilities must sum to one")
        m, n = comps[0][1].m, comps[0][1].n
        if any((ks.m, ks.n) != (m, n) for _, ks in comps):
            raise ValueError("mixture components differ in qubit counts")
        object.__setattr__(self, "components", comps)

    @property
    def m(self) -> int:
        return self.components[0][1].m

    @property
    def n(self) -> int:
        return self.components[0][1].n


def outcome_conditions(k: int, rank: int) -> list[dict]:
    """{j: condition} for every outcome prefix j that can happen, per depth
    0..k, in prefix order.  Register r reads bit r of the prefix, the
    first register the most significant; the one prefix of no round has
    no condition, None.

    A prefix of value j at depth d covers Kraus indices [j 2^(k-d),
    (j+1) 2^(k-d)), so it cannot happen when j 2^(k-d) >= rank: those
    blocks of V are padding.  It is left out, and where a node's 1-subtree
    is all padding its 0-subtree reads no register of that node, so every
    register assignment still meets exactly one prefix per depth."""
    levels = [{0: ()}]
    for d in range(k):
        span = 2 ** (k - d - 1)   # Kraus indices under one prefix of depth d + 1
        level = {}
        for j, cond in levels[-1].items():
            if (2 * j + 1) * span < rank:
                level[2 * j], level[2 * j + 1] = cond + ((d, 0),), cond + ((d, 1),)
            else:
                level[2 * j] = cond
        levels.append(level)
    return [{j: cond or None for j, cond in level.items()} for level in levels]


def _capped(size: int, what: str) -> None:
    if size > MAX_COMPILE_QUBITS:
        raise ValueError(f"{what} = {size} exceeds the m+n+k cap of {MAX_COMPILE_QUBITS}")


def _dilation(ks: KrausSet, force_k: int | None = None) -> tuple[np.ndarray, int]:
    """`stinespring_isometry` under the size cap: m + n (plus a forced k)
    is refused before the Kraus analysis, m + n + k right after it."""
    _capped(ks.m + ks.n + (force_k or 0), "m+n+k" if force_k else "m+n")
    v, k = stinespring_isometry(ks, force_k=force_k)
    _capped(ks.m + ks.n + k, "m+n+k")
    return v, k


def plan_measured(ks: KrausSet, force_k: int | None = None) -> CompilePlan:
    """QR recursion of the stacked dilation into rounds and residuals.

    Each round is one batch over its prefixes: QR of every half, then the
    cosine-sine split of every [R_0; R_1], whose left factors go into the
    children.  QR keeps the Gram matrix, so V is the one factor to check."""
    v, k = _dilation(ks, force_k)
    m, n = ks.m, ks.n
    if not is_isometry(v):
        raise ValueError("the dilation is not an isometry")
    k_tilde = k if m < n else n + k - m
    rank = int(np.count_nonzero(v.reshape(2**k, -1).any(axis=1)))   # the padding blocks are zero
    q = v[None]   # Q_s for every prefix s, in prefix order
    stages = []
    for i in range(k_tilde):
        # the halves of prefix j sit at 2 j and 2 j + 1
        q, r = qr_rectangular(q.reshape(2 * len(q), q.shape[1] // 2, q.shape[2]))
        u0, u1, theta, vh = cs_split(r[0::2], r[1::2])
        q[0::2] = q[0::2] @ u0
        q[1::2] = q[1::2] @ u1
        stages.append((vh, theta))
    return CompilePlan(m, n, k, k_tilde, rank, tuple(stages), q)


def reconstruct_dilation(plan: CompilePlan) -> np.ndarray:
    """Rebuild the stacked dilation from the plan's factors.

    Inverts the recursion: V = vstack over outcome prefixes j, in prefix
    order, of finals[j] times the product of the round factors C v^dag
    (outcome 0) or S v^dag (outcome 1) along j.
    """
    w = np.eye(2**plan.m, dtype=np.complex128)[None]   # the product of each prefix
    for vh, theta in plan.stages:
        half = 0.5 * theta[..., None]
        w = np.stack([np.cos(half) * vh @ w, np.sin(half) * vh @ w], axis=1)
        w = w.reshape(-1, *w.shape[2:])   # prefix j's children at 2j and 2j + 1
    return (plan.finals @ w).reshape(-1, 2**plan.m)


def compile_measured(ks: KrausSet, force_k: int | None = None) -> Circuit:
    """Measured-model circuit for the channel: one reused ancilla,
    k measurements, and per-branch CNOT count that only depends on
    (m, n, k).  Outcome prefixes that cannot happen get no gates."""
    plan = plan_measured(ks, force_k=force_k)
    m, n, k, k_tilde = plan.m, plan.n, plan.k, plan.k_tilde
    p = n if m < n else m + 1
    ancilla, system = 0, list(range(p - m, p))
    levels = outcome_conditions(k, plan.rank)
    # every m-qubit unitary of a prefix that can happen in one batch: the
    # rounds' v^dag, in round and prefix order, then the residuals when
    # m >= n.  That is a binary heap: prefix j of round i + 1 continues
    # prefix j // 2 of round i, and takes over the diagonal its v^dag is
    # left with.  heap[h] is the batch row of heap node h = 2^i - 1 + j.
    square = [vh for vh, _ in plan.stages] + ([plan.finals] if m >= n else [])
    nodes = [2**i - 1 + j for i, level in enumerate(levels[: len(square)]) for j in level]
    heap = {h: row for row, h in enumerate(nodes)}
    finals = plan.finals[list(levels[k_tilde])]
    blocks = iter([])
    if square:
        lists, diagonals = decompose_isometries(
            np.concatenate(square)[nodes], system,
            parents=[heap.get((h - 1) // 2, -1) for h in nodes], open_ends=m < n)
        blocks = iter(lists)
        if m < n:   # residual j undoes the diagonal of round prefix j // 2
            last = [heap[2 ** (k - 1) - 1 + j // 2] for j in levels[k]]
            finals = finals * diagonals[last][:, None].conj()
    gates: list[Gate] = []
    for i, (_, theta) in enumerate(plan.stages):
        level = levels[i]
        for cond, mux in zip(level.values(),
                             ry_multiplexors_from_zero(system, ancilla, theta[list(level)])):
            gates += conditioned(next(blocks) + mux, cond)
        gates.append(Gate(MEASURE, (ancilla,), creg=i))
        gates.append(Gate(RESET, (ancilla,)))

    # an m-to-n isometry on all n qubits when m < n, else the batch's rest
    residuals = blocks if m >= n else decompose_isometries(finals, range(p))[0]
    for cond, block in zip(levels[k_tilde].values(), residuals):
        gates += conditioned(block, cond)
    outputs = tuple(range(p)) if m < n else tuple(system[k - k_tilde:])
    # leftover environment qubits (m >= n only), into registers nobody reads
    for t, q in enumerate(system[: k - k_tilde]):
        gates.append(Gate(MEASURE, (q,), creg=k_tilde + t))

    return Circuit(p, tuple(system), outputs, tuple(gates), num_cregs=k)


def _dilation_circuit(m: int, n: int, v: np.ndarray, k: int) -> Circuit:
    """Synthesize the dilation V on n+k qubits and trace out the first k."""
    gates = list(decompose_isometry(v).gates)
    gates.extend(Gate(TRACE, (q,)) for q in range(k))
    return Circuit(n + k, tuple(range(n + k - m, n + k)), tuple(range(k, n + k)),
                   tuple(gates), 0)


def compile_qcm(ks: KrausSet, force_k: int | None = None) -> Circuit:
    """Plain dilation circuit: synthesize V on n+k qubits, trace out k."""
    v, k = _dilation(ks, force_k)
    return _dilation_circuit(ks.m, ks.n, v, k)


def compile_random_qcm(mix: ConvexMixture) -> list[tuple[float, Circuit]]:
    """One dilation circuit per mixture component.

    Components must have Kraus rank at most 2^m (k <= m) so that m+n
    qubits suffice for each of them; every component is checked before
    any is synthesized.
    """
    dilations = [_dilation(ks) for _, ks in mix.components]
    if any(k > mix.m for _, k in dilations):
        raise ValueError("component not implementable in m+n qubits")
    return [(prob, _dilation_circuit(mix.m, mix.n, v, k))
            for (prob, _), (v, k) in zip(mix.components, dilations)]


def round_cnots(m: int) -> int:
    """r(m): CNOTs of one measured round on m system qubits: c(m) - 1 for
    v^dag, whose last two-qubit leaf (m >= 2) leaves its diagonal to the
    next round or the residual, and 2^m - 1 for the Ry multiplexor
    without its closing CNOT."""
    return n_iso(m, m) - (m >= 2) + 2**m - 1


def predict_upper_bound(m: int, n: int, k: int) -> int:
    """Worst-case CNOT count of the measured pipeline: k rounds and an
    m-to-n residual when m < n, n + k - m rounds and an m-qubit unitary
    residual when m >= n.

    A channel from m to n qubits has Kraus rank at least 2^(m-n), so its
    environment takes k >= max(0, m - n) qubits; smaller k is refused.
    """
    if k < max(0, m - n):
        raise ValueError(f"a channel from {m} to {n} qubits needs k >= {max(0, m - n)}, got {k}")
    if m < n:
        return k * round_cnots(m) + n_iso(m, n)
    return (n + k - m) * round_cnots(m) + n_iso(m, m)


def _check_sizes(circ: Circuit, m: int, n: int) -> None:
    """Refuse a circuit whose input and output counts are not the channel's."""
    got = (len(circ.input_qubits), len(circ.output_qubits))
    if got != (m, n):
        raise ValueError(f"circuit maps {got[0]} to {got[1]} qubits, "
                         f"but the channel maps {m} to {n}")


def verify_circuit(circ: Circuit, ks: KrausSet) -> float:
    """Choi distance of the simulated circuit to the channel: `verify_mixture` of one."""
    return verify_mixture([(1.0, circ)], ConvexMixture([(1.0, ks)]))


def verify_mixture(compiled: list[tuple[float, Circuit]], mix: ConvexMixture) -> float:
    """Choi distance of the weighted simulated circuits to the mixture, by `kraus_distance`."""
    for _, c in compiled:
        _check_sizes(c, mix.m, mix.n)
    return kraus_distance([(p, circuit_to_kraus(c)) for p, c in compiled], mix.components)
