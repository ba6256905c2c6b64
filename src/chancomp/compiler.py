"""Compile channels into circuits: plain dilation, randomized mixtures,
and the measured single-ancilla construction.

The measured pipeline stacks the Kraus operators into a dilation
isometry V, then repeatedly QR-splits it: the top and bottom halves
B_0, B_1 factor as Q_b R_b with R_b = [T_b; 0; ...], so one round
applies the 2^{m+1} x 2^m isometry [T_0; T_1] to (ancilla, system),
measures the ancilla, resets it, and recurses on Q_0 or Q_1 depending
on the outcome.  After the rounds a residual isometry per outcome
prefix is synthesized under classical conditions, and any leftover
environment qubits are measured off and their registers never read.

Qubit layout: one reused ancilla at index 0, the m system qubits last.
A channel with m >= n compiles to exactly m+1 qubits (the ancilla may
be idle in the degenerate cases), one with m < n to exactly n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, choi_distance, choi_from_kraus, stinespring_isometry
from .circuit import MEASURE, RESET, TRACE, Circuit, Gate
from .linalg import is_isometry, qr_rectangular
from .synth import decompose_isometry, n_iso


@dataclass(frozen=True)
class CompilePlan:
    """Case split and per-outcome-prefix isometry tree for one channel."""

    m: int
    n: int
    k: int
    l: int
    k_tilde: int
    stages: tuple = field(repr=False)   # round i -> {prefix: 2^{m+1} x 2^m isometry}
    finals: dict = field(repr=False)    # full prefix -> residual isometry
    final_measure_count: int = 0


@dataclass(frozen=True)
class ConvexMixture:
    """Probabilistic mixture of channels sharing input/output sizes."""

    components: tuple

    def __init__(self, components):
        comps = tuple((float(p), ks) for p, ks in components)
        if not comps:
            raise ValueError("empty mixture")
        if any(p <= 0 for p, _ in comps):
            raise ValueError("probabilities must be positive")
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


def plan_measured(ks: KrausSet, force_k: int | None = None) -> CompilePlan:
    """QR recursion of the stacked dilation into rounds and residuals."""
    v, k = stinespring_isometry(ks, force_k=force_k)
    m, n = ks.m, ks.n
    if n + k == m:
        return CompilePlan(m, n, k, n + k - m, 0, (), {"": v}, k)
    k_tilde = k if m < n else n + k - m - 1
    l = n - m if m < n else 1
    prefixes = {"": v}
    stages = []
    for _ in range(k_tilde):
        stage = {}
        children = {}
        for s in sorted(prefixes):
            q = prefixes[s]
            half = q.shape[0] // 2
            blocks = []
            for b, part in enumerate((q[:half], q[half:])):
                children[s + str(b)], r = qr_rectangular(part)
                blocks.append(r)
            g = np.vstack(blocks)
            if not is_isometry(g):
                raise ValueError("rank/shape mismatch in QR recursion")
            stage[s] = g
        stages.append(stage)
        prefixes = children
    for q in prefixes.values():
        if not is_isometry(q):
            raise ValueError("rank/shape mismatch in QR recursion")
    return CompilePlan(m, n, k, l, k_tilde, tuple(stages), prefixes, k - k_tilde)


def reconstruct_dilation(plan: CompilePlan) -> np.ndarray:
    """Rebuild the stacked dilation from the plan's factors.

    Inverts the recursion: V = vstack over outcome prefixes s of
    finals[s] times the product of the round factors T along s.
    """
    dm = 2**plan.m
    blocks = []
    for idx in range(2**plan.k_tilde):
        s = format(idx, f"0{plan.k_tilde}b") if plan.k_tilde else ""
        w = np.eye(dm, dtype=np.complex128)
        for i, stage in enumerate(plan.stages):
            g = stage[s[:i]]
            b = int(s[i])
            w = g[b * dm : (b + 1) * dm, :] @ w
        blocks.append(plan.finals[s] @ w)
    return np.vstack(blocks)


def _place(block: Circuit, mapping: dict, cond: tuple) -> list[Gate]:
    """The block's gates on the mapped qubits, each also conditioned on `cond`."""
    return [Gate(g.kind, tuple(mapping[q] for q in g.qubits), g.params, g.creg,
                 ((g.condition or ()) + cond) or None)
            for g in block.gates]


def compile_measured(ks: KrausSet, force_k: int | None = None) -> Circuit:
    """Measured-model circuit for the channel: one reused ancilla,
    k measurements, and per-branch CNOT count that only depends on
    (m, n, k)."""
    plan = plan_measured(ks, force_k=force_k)
    m, n, k = plan.m, plan.n, plan.k
    square_v = n + k == m  # V fits the system register alone
    gates: list[Gate] = []
    ancilla = 0
    if m < n:
        p = n
        system = list(range(n - m, n))
        outputs = tuple(range(n))
        discard: list[int] = []
    else:
        p = m + 1
        system = list(range(1, m + 1))
        # the ancilla stays idle when V is already an m-qubit isometry
        discard = system[:k] if square_v else list(range(k - plan.k_tilde))
        outputs = tuple(q for q in range(1, p) if q not in discard)
    inputs = tuple(system)

    for i, stage in enumerate(plan.stages, start=1):
        mapping = {0: ancilla, **{1 + t: system[t] for t in range(m)}}
        for s in sorted(stage):
            block = decompose_isometry(stage[s])
            cond = tuple((r, int(s[r])) for r in range(i - 1))
            gates.extend(_place(block, mapping, cond))
        gates.append(Gate(MEASURE, (ancilla,), creg=i - 1))
        gates.append(Gate(RESET, (ancilla,)))

    for idx in range(2**plan.k_tilde):
        s = format(idx, f"0{plan.k_tilde}b") if plan.k_tilde else ""
        block = decompose_isometry(plan.finals[s])
        if m >= n and square_v:
            mapping = {t: 1 + t for t in range(block.num_qubits)}
        else:
            mapping = dict(enumerate(range(p)))
        cond = tuple((r, int(s[r])) for r in range(plan.k_tilde))
        gates.extend(_place(block, mapping, cond))

    for t, q in enumerate(discard):
        gates.append(Gate(MEASURE, (q,), creg=plan.k_tilde + t))

    return Circuit(p, inputs, outputs, tuple(gates), num_cregs=k)


def _dilation_circuit(m: int, n: int, v: np.ndarray, k: int) -> Circuit:
    """Synthesize the dilation V on n+k qubits and trace out the first k."""
    gates = list(decompose_isometry(v).gates)
    gates.extend(Gate(TRACE, (q,)) for q in range(k))
    return Circuit(n + k, tuple(range(n + k - m, n + k)), tuple(range(k, n + k)),
                   tuple(gates), 0)


def compile_qcm(ks: KrausSet, force_k: int | None = None) -> Circuit:
    """Plain dilation circuit: synthesize V on n+k qubits, trace out k."""
    v, k = stinespring_isometry(ks, force_k=force_k)
    return _dilation_circuit(ks.m, ks.n, v, k)


def compile_random_qcm(mix: ConvexMixture) -> list[tuple[float, Circuit]]:
    """One dilation circuit per mixture component.

    Components must have Kraus rank at most 2^m (k <= m) so that m+n
    qubits suffice for each of them; every component is checked before
    any is synthesized.
    """
    dilations = [stinespring_isometry(ks) for _, ks in mix.components]
    if any(k > mix.m for _, k in dilations):
        raise ValueError("component not implementable in m+n qubits")
    return [(prob, _dilation_circuit(mix.m, mix.n, v, k))
            for (prob, _), (v, k) in zip(mix.components, dilations)]


def predict_upper_bound(m: int, n: int, k: int) -> int:
    """Worst-case CNOT count of the measured pipeline.

    A channel from m to n qubits has Kraus rank at least 2^(m-n), so its
    environment takes k >= max(0, m - n) qubits; smaller k is refused.
    """
    if k < max(0, m - n):
        raise ValueError(f"a channel from {m} to {n} qubits needs k >= {max(0, m - n)}, got {k}")
    if n + k == m:
        return n_iso(m, m)
    if m < n:
        return k * n_iso(m, m + 1) + n_iso(m, n)
    return (k + n - m) * n_iso(m, m + 1)


def _check_sizes(circ: Circuit, m: int, n: int) -> None:
    """Refuse a circuit whose input and output counts are not the channel's."""
    got = (len(circ.input_qubits), len(circ.output_qubits))
    if got != (m, n):
        raise ValueError(f"circuit maps {got[0]} to {got[1]} qubits, "
                         f"but the channel maps {m} to {n}")


def verify_circuit(circ: Circuit, ks: KrausSet) -> float:
    """Choi distance between the simulated circuit and the channel."""
    from .simulator import circuit_to_kraus

    _check_sizes(circ, ks.m, ks.n)
    return choi_distance(choi_from_kraus(circuit_to_kraus(circ)), choi_from_kraus(ks))


def verify_mixture(compiled: list[tuple[float, Circuit]], mix: ConvexMixture) -> float:
    """Choi distance between the weighted compiled circuits and the mixture."""
    from .simulator import circuit_to_kraus

    for _, c in compiled:
        _check_sizes(c, mix.m, mix.n)
    got = sum(p * choi_from_kraus(circuit_to_kraus(c)).j for p, c in compiled)
    want = sum(p * choi_from_kraus(ks).j for p, ks in mix.components)
    return float(np.linalg.norm(got - want))
