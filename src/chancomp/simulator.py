"""Exact circuit simulation: unitaries, branch operators, channels.

Measured circuits are evaluated once per measurement-outcome string
(2^#measures branches).  Qubits that end the circuit traced out, or
simply undeclared as outputs, are summed out by treating their final
basis value as an extra branch index.  This recovers the implemented
Kraus operators directly, which is what the compiler's verification
needs.  Intended for small systems (at most ~8 qubits).

Gates are applied run by run.  A run is a maximal stretch of
consecutive gates under one condition that act on one target t: RY or
RZ rotations on t (one axis per run) and CNOTs onto t.  It leaves every
other bit alone, so for each pattern x of those bits it is a 2x2 matrix
on t.  The CNOTs seen before rotation i flip t where popcount(x & m_i)
is odd (m_i is the XOR of their control masks), and X R_a(theta) X =
R_a(-theta) for a in {Y, Z}; rotations of one axis commute.  So the run
is exactly the rotation by phi(x) = sum_i (-1)^popcount(x & m_i) theta_i,
a Walsh-Hadamard transform of the angles summed per mask, followed by a
swap of the pair wherever popcount(x & m_end) is odd.  That is one block
update per run (`circuit.rotate_pairs`, the synthesizer's kernel) and at
most one row permutation.  The Gray-code multiplexors the synthesizer
emits are each one run.  Other unitary gates are applied one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuit import (
    CNOT,
    MEASURE,
    RESET,
    RY,
    RZ,
    TRACE,
    UNITARY_KINDS,
    X,
    Circuit,
    Gate,
    apply_unitary_gate,
    rotate_pairs,
    walsh_hadamard,
)
from .channel import KrausSet
from .linalg import MAX_DENSE_ENTRIES, MAX_DENSE_QUBITS

_PRUNE_NORM = 1e-12


@dataclass(frozen=True)
class BranchOperator:
    """Linear map applied when the measurements gave `outcome` (a bit string).

    Disposal of non-output qubits can split one outcome into several
    operators, so outcomes may repeat; together all operators satisfy
    sum op^dag op = I.
    """

    outcome: str
    op: np.ndarray = field(repr=False)


def input_embedding(c: Circuit) -> np.ndarray:
    """2^p x 2^m matrix sending input basis states into the full register.

    input_qubits[0] carries the most significant input bit; every other
    qubit starts in |0>.  Rejects a circuit whose branch matrices, one
    2^p x 2^m per outcome string, would together pass the dense cap.
    """
    p, m = c.num_qubits, len(c.input_qubits)
    measures = sum(1 for g in c.gates if g.kind == MEASURE)
    if p + m + measures > MAX_DENSE_QUBITS:
        raise ValueError(f"simulating {p} qubits, {m} inputs and {measures} measurements "
                         f"exceeds the cap of {MAX_DENSE_ENTRIES} dense matrix entries")
    e = np.zeros((2**p, 2**m), dtype=np.complex128)
    for j in range(2**m):
        pos = 0
        for t, q in enumerate(c.input_qubits):
            bit = (j >> (m - 1 - t)) & 1
            pos |= bit << (p - 1 - q)
        e[pos, j] = 1.0
    return e


def simulate_unitary(c: Circuit) -> np.ndarray:
    """Total matrix of a measurement-free circuit, restricted to input columns."""
    for g in c.gates:
        if g.kind not in UNITARY_KINDS or g.condition:
            raise ValueError("simulate_unitary needs a purely unitary circuit")
    return _walk_branches(c)[0].mat


def _project(mat: np.ndarray, p: int, qubit: int, outcome: int) -> np.ndarray:
    t = mat.reshape((2,) * p + (mat.shape[1],)).copy()
    idx = [slice(None)] * (p + 1)
    idx[qubit] = 1 - outcome
    t[tuple(idx)] = 0.0
    return t.reshape(mat.shape)


@dataclass
class _Branch:
    mat: np.ndarray
    outcome: tuple[int, ...] = ()
    regs: dict = field(default_factory=dict)
    fresh_meas: dict = field(default_factory=dict)  # qubit -> outcome, cleared on touch


def _fires(g: Gate, regs: dict) -> bool:
    if not g.condition:
        return True
    for r, b in g.condition:
        if r not in regs:
            raise ValueError(f"condition references register c{r} before it is written")
        if regs[r] != b:
            return False
    return True


@lru_cache(maxsize=None)
def _parity(p: int) -> np.ndarray:
    """popcount(v) & 1 for every p-bit value v, as a read-only bool table."""
    par = np.zeros(1, dtype=bool)
    for _ in range(p):
        par = np.concatenate([par, ~par])
    par.flags.writeable = False
    return par


@dataclass(frozen=True)
class _Run:
    """A fused run (see the module docstring), ready to apply: `angles`
    (None without rotations) in `rotate_pairs` pattern order, and the
    row permutation of the final swap (None when m_end is 0)."""

    condition: tuple | None
    kind: str | None
    b: int                      # significance of the target bit
    angles: np.ndarray | None
    perm: np.ndarray | None
    qubits: tuple[int, ...]     # every qubit a gate of the run acts on


def _make_run(p, target, condition, kind, masks, thetas, m_end, touched) -> _Run:
    b = p - 1 - target
    angles = perm = None
    if thetas:
        m = np.array(masks)
        pattern = ((m >> (b + 1)) << b) | (m & ((1 << b) - 1))   # drop bit b
        angles = walsh_hadamard(np.bincount(pattern, weights=thetas, minlength=1 << (p - 1)))
    if m_end:
        rows = np.arange(1 << p)
        perm = np.where(_parity(p)[rows & m_end], rows ^ (1 << b), rows)
    qubits = tuple(q for q in range(p) if (touched >> (p - 1 - q)) & 1)
    return _Run(condition, kind, b, angles, perm, qubits)


def _fused_gates(c: Circuit):
    """The gates of c in order, with every run fused into one _Run.

    Row masks: qubit q is bit p - 1 - q of a row index.  `mask` is the
    XOR of the control masks of the CNOTs seen so far in the run;
    `touched` ORs in every qubit the run acts on."""
    p = c.num_qubits
    target = None
    for g in c.gates:
        kind, qs = g.kind, g.qubits
        if kind == CNOT:
            t = qs[1]
        elif kind == RY or kind == RZ:
            t = qs[0]
        else:
            if target is not None:
                yield _make_run(p, target, cond, axis, masks, thetas, mask, touched)
                target = None
            yield g
            continue
        gc = g.condition or None
        if t != target or gc != cond or (kind != CNOT and axis is not None and kind != axis):
            if target is not None:
                yield _make_run(p, target, cond, axis, masks, thetas, mask, touched)
            target, cond, axis, masks, thetas = t, gc, None, [], []
            mask, touched = 0, 1 << (p - 1 - t)
        if kind == CNOT:
            bit = 1 << (p - 1 - qs[0])
            mask ^= bit
            touched |= bit
        else:
            axis = kind
            masks.append(mask)
            thetas.append(g.params[0])
    if target is not None:
        yield _make_run(p, target, cond, axis, masks, thetas, mask, touched)


def _walk_branches(c: Circuit) -> list[_Branch]:
    p = c.num_qubits
    branches = [_Branch(mat=input_embedding(c))]
    written = set()
    for g in _fused_gates(c):
        if type(g) is _Run:
            for br in branches:
                if _fires(g, br.regs):
                    # branch matrices are never shared, so updating in place is safe
                    if g.angles is not None:
                        rotate_pairs(br.mat, g.kind, g.b, g.angles)
                    if g.perm is not None:
                        br.mat = br.mat[g.perm]
                    if br.fresh_meas:
                        for q in g.qubits:
                            br.fresh_meas.pop(q, None)
        elif g.kind == MEASURE:
            if g.creg in written:
                raise ValueError(f"register c{g.creg} written twice")
            written.add(g.creg)
            q = g.qubits[0]
            split = []
            for br in branches:
                for outcome in (0, 1):
                    mat = _project(br.mat, p, q, outcome)
                    regs = dict(br.regs)
                    regs[g.creg] = outcome
                    fresh = dict(br.fresh_meas)
                    fresh[q] = outcome
                    split.append(_Branch(mat, br.outcome + (outcome,), regs, fresh))
            branches = split
        elif g.kind == RESET:
            q = g.qubits[0]
            for br in branches:
                if q not in br.fresh_meas:
                    raise ValueError("RESET without an immediately preceding MEASURE")
                if br.fresh_meas[q] == 1:
                    br.mat = apply_unitary_gate(br.mat, Gate(X, (q,)), p)
                del br.fresh_meas[q]
        elif g.kind == TRACE:
            for br in branches:
                br.fresh_meas.pop(g.qubits[0], None)
        else:
            for br in branches:
                if _fires(g, br.regs):
                    br.mat = apply_unitary_gate(br.mat, g, p)
                    for q in g.qubits:
                        br.fresh_meas.pop(q, None)
    branches.sort(key=lambda br: br.outcome)
    return branches


def _dispose(mat: np.ndarray, c: Circuit) -> list[np.ndarray]:
    """Split a full-register matrix into per-disposal-value output operators."""
    p = c.num_qubits
    cols = mat.shape[1]
    disposal = [q for q in range(p) if q not in c.output_qubits]
    t = mat.reshape((2,) * p + (cols,))
    order = disposal + list(c.output_qubits) + [p]
    t = np.transpose(t, order)
    t = t.reshape(2 ** len(disposal), 2 ** len(c.output_qubits), cols)
    return [t[y] for y in range(t.shape[0])]


def circuit_to_branches(c: Circuit) -> list[BranchOperator]:
    out = []
    for br in _walk_branches(c):
        label = "".join(str(b) for b in br.outcome)
        for op in _dispose(br.mat, c):
            out.append(BranchOperator(label, op))
    return out


def circuit_to_kraus(c: Circuit) -> KrausSet:
    """The channel implemented by the circuit, from inputs to outputs.

    Branch operators of norm at most 1e-12 are dropped (one is kept if
    all are), so unreachable branches add no Kraus operators."""
    ops = [b.op for b in circuit_to_branches(c)]
    ops = [a for a in ops if np.linalg.norm(a) > _PRUNE_NORM] or ops[:1]
    return KrausSet(len(c.input_qubits), len(c.output_qubits), ops, atol=1e-8)


def outcome_distribution(c: Circuit, state) -> dict[str, float]:
    """Probability of each measurement-outcome string for a pure input state."""
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    if psi.shape != (2 ** len(c.input_qubits),):
        raise ValueError("input state has wrong dimension")
    dist: dict[str, float] = {}
    for b in circuit_to_branches(c):
        dist[b.outcome] = dist.get(b.outcome, 0.0) + float(np.linalg.norm(b.op @ psi) ** 2)
    return dict(sorted(dist.items()))
