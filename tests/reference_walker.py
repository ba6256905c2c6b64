"""A gate-by-gate reference for the simulator, with its own branch bookkeeping.

It interprets MEASURE, conditions, RESET and TRACE one branch object at a
time and applies each unitary gate on its own through the gate kernel
`apply_unitary_gate` and the per-gate matrices of `gate1_matrix` below, sharing no code with the simulator's static
plan, fused runs or branch axis.  Tests compare the simulator, the
template evaluator and the synthesizer's working copy against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import cmath
import math

import numpy as np

from chancomp.circuit import (CNOT, MEASURE, RESET, RX, RY, RZ, TRACE, U, X, X_MATRIX, Gate,
                              rz_matrix)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def u_matrix(alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    return cmath.exp(1j * alpha) * (rz_matrix(beta) @ ry_matrix(gamma) @ rz_matrix(delta))


def gate1_matrix(g: Gate) -> np.ndarray:
    """The 2x2 matrix of a single-qubit unitary gate, one gate at a time."""
    if g.kind == RX:
        return rx_matrix(*g.params)
    if g.kind == RY:
        return ry_matrix(*g.params)
    if g.kind == RZ:
        return rz_matrix(*g.params)
    if g.kind == U:
        return u_matrix(*g.params)
    if g.kind == X:
        return X_MATRIX
    raise ValueError(f"{g.kind} has no single-qubit matrix")


@lru_cache(maxsize=1024)
def _cnot_perm(p: int, ctrl: int, tgt: int) -> np.ndarray:
    """Row permutation of a CNOT on p qubits: row r of the result is row
    perm[r] of the input (the target bit flipped where the control is 1)."""
    rows = np.arange(2**p)
    perm = np.where(rows & (1 << (p - 1 - ctrl)), rows ^ (1 << (p - 1 - tgt)), rows)
    perm.flags.writeable = False
    return perm


def apply_unitary_gate(mat: np.ndarray, g: Gate, p: int) -> np.ndarray:
    """Left-multiply the 2^p x C matrix `mat` by the gate's embedding.

    A CNOT is a cached row permutation.  A single-qubit gate on qubit q
    views `mat` as 2^q stacked 2 x (2^(p-q-1) C) blocks, one row pair per
    value of the q bit, and multiplies each block by the 2x2 matrix in
    one broadcast product.  Returns a new array; `mat` is not modified.

    Only unitary kinds are valid here; conditions are ignored (callers
    decide whether the gate fires).
    """
    if g.kind == CNOT:
        return mat[_cnot_perm(p, *g.qubits)]
    return (gate1_matrix(g) @ mat.reshape(2 ** g.qubits[0], 2, -1)).reshape(mat.shape)


@dataclass
class Branch:
    mat: np.ndarray                                  # full register x inputs
    outcome: tuple[int, ...] = ()
    regs: dict = field(default_factory=dict)         # register -> bit
    fresh_meas: dict = field(default_factory=dict)   # qubit -> outcome, cleared on touch


def fires(g: Gate, regs: dict) -> bool:
    for r, b in g.condition or ():
        if r not in regs:
            raise ValueError(f"condition references register c{r} before it is written")
        if regs[r] != b:
            return False
    return True


def project(mat: np.ndarray, p: int, qubit: int, outcome: int) -> np.ndarray:
    t = mat.reshape((2,) * p + (mat.shape[1],)).copy()
    idx = [slice(None)] * (p + 1)
    idx[qubit] = 1 - outcome
    t[tuple(idx)] = 0.0
    return t.reshape(mat.shape)


def embedding(c) -> np.ndarray:
    p, m = c.num_qubits, len(c.input_qubits)
    e = np.zeros((2**p, 2**m), dtype=np.complex128)
    for j in range(2**m):
        bits = [(j >> (m - 1 - t)) & 1 for t in range(m)]
        e[sum(b << (p - 1 - q) for b, q in zip(bits, c.input_qubits)), j] = 1.0
    return e


def reference_walk(c) -> list[Branch]:
    """Every branch of c, in sorted outcome order, with its full-register matrix."""
    p = c.num_qubits
    branches = [Branch(mat=embedding(c))]
    written = set()
    for g in c.gates:
        if g.kind == MEASURE:
            if g.creg in written:
                raise ValueError(f"register c{g.creg} written twice")
            written.add(g.creg)
            q = g.qubits[0]
            branches = [Branch(project(br.mat, p, q, v), br.outcome + (v,),
                               {**br.regs, g.creg: v}, {**br.fresh_meas, q: v})
                        for br in branches for v in (0, 1)]
        elif g.kind == RESET:
            q = g.qubits[0]
            for br in branches:
                if q not in br.fresh_meas:
                    raise ValueError("RESET without an immediately preceding MEASURE")
                if br.fresh_meas.pop(q) == 1:
                    br.mat = apply_unitary_gate(br.mat, Gate(X, (q,)), p)
        elif g.kind == TRACE:
            for br in branches:
                br.fresh_meas.pop(g.qubits[0], None)
        else:
            for br in branches:
                if fires(g, br.regs):
                    br.mat = apply_unitary_gate(br.mat, g, p)
                    for q in g.qubits:
                        br.fresh_meas.pop(q, None)
    branches.sort(key=lambda br: br.outcome)
    return branches


def reference_branches(c) -> list[tuple[str, np.ndarray]]:
    """(outcome string, operator) pairs: each branch split by the value of
    the qubits that are not outputs, in the order of the simulator's branch
    operators: sorted by outcome, then by the value of those qubits."""
    p = c.num_qubits
    disposal = [q for q in range(p) if q not in c.output_qubits]
    out = []
    for br in reference_walk(c):
        t = br.mat.reshape((2,) * p + (-1,)).transpose(disposal + list(c.output_qubits) + [p])
        ops = t.reshape(2 ** len(disposal), 2 ** len(c.output_qubits), -1)
        out += [("".join(map(str, br.outcome)), op) for op in ops]
    return out
