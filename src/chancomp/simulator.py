"""Exact circuit simulation: unitaries, branch operators, channels.

Measured circuits are evaluated once per measurement-outcome string
(2^#measures branches).  Qubits that end the circuit traced out, or
simply undeclared as outputs, are summed out by treating their final
basis value as an extra branch index.  This recovers the implemented
Kraus operators directly, which is what the compiler's verification
needs.  Intended for small systems (at most ~8 qubits).

Gates are applied run by run.  A run is a maximal stretch of
consecutive unitary gates under one condition that act on one target t:
single-qubit gates on t and CNOTs onto t.  It leaves every other bit
alone, so for each pattern x of those bits it is a 2x2 matrix on t, which
the run turns into one pair update per branch (`circuit.update_pairs`,
the synthesizer's kernel).  The CNOTs between two gates flip t where
popcount(x & f) is odd, f the XOR of their control masks, so the
product depends on x only through those parities: a pairwise reduction
over the run's gates (`_run_product`) keeps one matrix per block and
assignment of the bits its flips read, a few batched products in all.
The matrices of all single-qubit gates come from one vectorized call.
A run of CNOTs alone, and a RESET's X, is a row permutation.  Each
uniformly controlled gate or Gray-code multiplexor emitted is one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuit import (
    CNOT,
    MEASURE,
    OPERANDS,
    RESET,
    UNITARY_KINDS,
    Circuit,
    Gate,
    one_qubit_matrices,
    update_pairs,
)
from .channel import KrausSet
from .linalg import MAX_DENSE_ENTRIES, MAX_DENSE_QUBITS

_PRUNE_NORM = 1e-12
_ONE_QUBIT = frozenset(kind for kind in UNITARY_KINDS if OPERANDS[kind][0] == 1)


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
    """A fused run (see the module docstring), ready to apply: `mats`
    holds one 2x2 matrix per pattern in `update_pairs` order; a run of
    CNOTs alone is the row permutation `perm` instead."""

    condition: tuple | None
    target: int
    mats: np.ndarray | None
    perm: np.ndarray | None
    qubits: tuple[int, ...]     # every qubit a gate of the run acts on


@lru_cache(maxsize=4096)
def _run_plan(flips: tuple[int, ...], lead: int, end: int, npat: int):
    """What `_run_product` needs of a run's flip masks, which depend on
    its gate sequence alone: per level of the pairwise reduction (pad,
    odd), then the pattern index of the result and the patterns whose
    first gate sees the `lead` flip and whose product the `end` flip (None
    for no flip), on npat pattern bits.

    A block's product depends only on the bits of the flips inside it, so
    a level keeps one matrix per block and assignment of the union of
    those bits, the bits before the level being the low part of the
    assignment: a uniformly controlled gate's run, with its Gray-code
    flips, takes 2^c products a level.  odd[i, new, old] says whether the
    flip between the blocks of pair i is X under that assignment."""
    par = _parity(npat)
    bits: list[int] = []
    levels = []
    flips = list(flips)
    while flips:
        pad = len(flips) % 2 == 0   # an even number of flips: an odd number of blocks
        if pad:
            flips.append(0)
        inner = flips[0::2]
        union = 0
        for f in inner:
            union |= f
        width = 1 << len(bits)
        bits += [i for i in range(npat) if (union >> i) & 1 and i not in bits]
        tau = np.arange(1 << len(bits))
        mask = np.zeros_like(tau)
        for k, i in enumerate(bits):
            mask |= ((tau >> k) & 1) << i
        odd = par[mask & np.array(inner)[:, None]]
        levels.append((pad, odd.reshape(len(inner), -1, width, 1, 1)))
        flips = flips[1::2]
    x = np.arange(1 << npat)
    index = np.zeros_like(x)
    for k, i in enumerate(bits):
        index |= ((x >> i) & 1) << k
    lead = par[x & lead][:, None, None] if lead else None
    end = par[x & end][:, None, None] if end else None
    for a in [index, lead, end] + [odd for _, odd in levels]:
        if a is not None:
            a.flags.writeable = False
    return levels, index, lead, end


def _matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices, as column-times-row outer
    products: three ufunc calls, where numpy's matmul takes about as long
    per 2x2 core as a whole ufunc call."""
    return a[..., :, 0:1] * b[..., 0:1, :] + a[..., :, 1:2] * b[..., 1:2, :]


def _run_product(mats: np.ndarray, plan) -> np.ndarray:
    """Per pattern x, X^(end) mats[r-1] X^(f_{r-2}) ... X^(f_0) mats[0] X^(lead),
    where X^(f) is X if popcount(x & f) is odd and I if not (`_run_plan`):
    a pairwise reduction, one batched product per level."""
    levels, index, lead, end = plan
    blocks = mats[:, None]               # (block, assignment, 2, 2)
    for pad, odd in levels:
        if pad:
            blocks = np.concatenate([blocks, np.broadcast_to(np.eye(2), (1,) + blocks.shape[1:])])
        first = blocks[0::2, None]
        both = _matmul2(blocks[1::2, None], np.where(odd, first[..., ::-1, :], first))
        blocks = both.reshape(len(both), -1, 2, 2)
    out = blocks[0][index]
    if lead is not None:
        out = np.where(lead, out[..., ::-1], out)
    return out if end is None else np.where(end, out[:, ::-1], out)


def _make_run(p: int, spec: list, mats: np.ndarray) -> _Run:
    """The _Run of spec = [target, condition, single-qubit gates, masks,
    m_end, touched], where masks[i] is the XOR of the control masks of the
    run's CNOTs before gate i, m_end that of all of them, and mats the
    gates' matrices."""
    target, condition, gates, masks, m_end, touched = spec
    b = p - 1 - target
    qubits = tuple(q for q in range(p) if (touched >> (p - 1 - q)) & 1)
    if not gates:
        rows = np.arange(1 << p)
        perm = np.where(_parity(p)[rows & m_end], rows ^ (1 << b), rows)
        return _Run(condition, target, None, perm, qubits)
    low = (1 << b) - 1
    m = [((x >> (b + 1)) << b) | (x & low) for x in masks + [m_end]]   # drop bit b
    flips = tuple(f ^ g for f, g in zip(m[1:-1], m[:-2]))
    out = _run_product(mats, _run_plan(flips, m[0], m[-1] ^ m[-2], p - 1))
    return _Run(condition, target, out, None, qubits)


def _fused_gates(c: Circuit) -> list:
    """The gates of c in order, with every run fused into one _Run.

    Row masks: qubit q is bit p - 1 - q of a row index.  A run's spec
    collects its single-qubit gates, the XOR of the control masks of the
    CNOTs seen before each, and every qubit it acts on.  The matrices of
    all the runs' single-qubit gates come from one call."""
    p = c.num_qubits
    out, specs = [], []
    spec = None
    for g in c.gates:
        kind, qs = g.kind, g.qubits
        if kind == CNOT:
            t = qs[1]
        elif kind in _ONE_QUBIT:
            t = qs[0]
        else:
            spec = None
            out.append(g)
            continue
        cond = g.condition or None
        if spec is None or t != spec[0] or cond != spec[1]:
            spec = [t, cond, [], [], 0, 1 << (p - 1 - t)]
            specs.append(spec)
            out.append(spec)
        if kind == CNOT:
            bit = 1 << (p - 1 - qs[0])
            spec[4] ^= bit
            spec[5] |= bit
        else:
            spec[2].append(g)
            spec[3].append(spec[4])
    mats = one_qubit_matrices([g for s in specs for g in s[2]])
    runs, k = [], 0
    for s in specs:
        runs.append(_make_run(p, s, mats[k:k + len(s[2])]))
        k += len(s[2])
    runs = iter(runs)
    return [next(runs) if type(x) is list else x for x in out]


def _walk_branches(c: Circuit) -> list[_Branch]:
    p = c.num_qubits
    branches = [_Branch(mat=input_embedding(c))]
    written = set()
    for g in _fused_gates(c):
        if type(g) is _Run:
            for br in branches:
                if _fires(g, br.regs):
                    # branch matrices are never shared, so updating in place is safe
                    if g.perm is not None:
                        br.mat = br.mat[g.perm]
                    else:
                        update_pairs(br.mat, p - 1 - g.target, g.mats)
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
            flip = np.arange(1 << p) ^ (1 << (p - 1 - q))   # X on q, as a row permutation
            for br in branches:
                if q not in br.fresh_meas:
                    raise ValueError("RESET without an immediately preceding MEASURE")
                if br.fresh_meas[q] == 1:
                    br.mat = br.mat[flip]
                del br.fresh_meas[q]
        else:   # TRACE
            for br in branches:
                br.fresh_meas.pop(g.qubits[0], None)
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
