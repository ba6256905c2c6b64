"""Reference evaluator for chancomp circuits, written apart from chancomp.

It reads a circuit either from its text form (its own parser) or from a
``chancomp.circuit.Circuit`` object (only the public gate fields), builds
every gate as a full 2^p x 2^p matrix (Kronecker products with the
identity, made with ``np.kron``), walks all
measurement branches and returns the Choi matrix of the implemented
channel together with the CNOT count of every branch.

Conventions (from the package README): qubit 0 is the most significant
bit; ``INPUTS``/``OUTPUTS`` list the most significant wire first; the
Choi matrix is J = sum_ij |i><j|_in (x) E(|i><j|) with the input factor
most significant; ``RESET q`` applies X when the measurement that
immediately precedes it on q gave 1; qubits not declared as outputs are
summed out at the end.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

UNITARY = ("RX", "RY", "RZ", "U", "X", "CNOT")
N_ANGLES = {"RX": 1, "RY": 1, "RZ": 1, "U": 4}

_I2 = np.eye(2, dtype=complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True)
class RefGate:
    kind: str
    qubits: tuple
    params: tuple = ()
    creg: int | None = None
    condition: tuple = ()


@dataclass(frozen=True)
class RefCircuit:
    num_qubits: int
    num_cregs: int
    inputs: tuple
    outputs: tuple
    gates: tuple


class RefError(ValueError):
    pass


def from_program(circ) -> RefCircuit:
    """Copy the public fields of a chancomp Circuit."""
    gates = tuple(
        RefGate(g.kind, tuple(g.qubits), tuple(float(x) for x in g.params), g.creg,
                tuple(g.condition or ()))
        for g in circ.gates
    )
    return RefCircuit(circ.num_qubits, circ.num_cregs, tuple(circ.input_qubits),
                      tuple(circ.output_qubits), gates)


def _wire(tok: str, prefix: str) -> int:
    if not tok.startswith(prefix) or not tok[1:].isdigit():
        raise RefError(f"expected {prefix}<int>, got {tok!r}")
    return int(tok[1:])


def from_text(text: str) -> RefCircuit:
    """Parse the circuit text format; '#' starts a comment."""
    head = {}
    gates = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] in ("QUBITS", "CREGS"):
            head[toks[0]] = int(toks[1])
            continue
        if toks[0] in ("INPUTS", "OUTPUTS"):
            head[toks[0]] = tuple(_wire(t, "q") for t in toks[1:])
            continue
        cond = ()
        if toks[0] == "IF":
            cond = tuple(
                (_wire(reg, "c"), int(bit))
                for reg, bit in (part.split("=") for part in toks[1].split(","))
            )
            toks = toks[2:]
        kind = toks[0]
        if kind == "CNOT":
            gates.append(RefGate(kind, (_wire(toks[1], "q"), _wire(toks[2], "q")), (), None, cond))
        elif kind == "MEASURE":
            gates.append(RefGate(kind, (_wire(toks[1], "q"),), (), _wire(toks[2], "c"), cond))
        elif kind in ("RESET", "TRACE", "X"):
            gates.append(RefGate(kind, (_wire(toks[1], "q"),), (), None, cond))
        elif kind in N_ANGLES:
            angles = tuple(float(t) for t in toks[2:])
            if len(angles) != N_ANGLES[kind]:
                raise RefError(f"{kind} takes {N_ANGLES[kind]} angle(s)")
            gates.append(RefGate(kind, (_wire(toks[1], "q"),), angles, None, cond))
        else:
            raise RefError(f"unknown instruction {kind!r}")
    missing = {"QUBITS", "CREGS", "INPUTS", "OUTPUTS"} - set(head)
    if missing:
        raise RefError(f"missing header(s) {sorted(missing)}")
    return RefCircuit(head["QUBITS"], head["CREGS"], head["INPUTS"], head["OUTPUTS"],
                      tuple(gates))


def _rot(kind: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([cmath.exp(-0.5j * theta), cmath.exp(0.5j * theta)])


def single_qubit_matrix(g: RefGate) -> np.ndarray:
    if g.kind == "X":
        return _X
    if g.kind == "U":
        a, b, c, d = g.params
        return cmath.exp(1j * a) * (_rot("RZ", b) @ _rot("RY", c) @ _rot("RZ", d))
    return _rot(g.kind, g.params[0])


def _kron_chain(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


@lru_cache(maxsize=512)
def _cnot_matrix(ctrl: int, tgt: int, p: int) -> np.ndarray:
    off = [_P0 if q == ctrl else _I2 for q in range(p)]
    on = [_P1 if q == ctrl else _X if q == tgt else _I2 for q in range(p)]
    return _kron_chain(off) + _kron_chain(on)


@lru_cache(maxsize=512)
def _unit_embeddings(q: int, p: int) -> np.ndarray:
    """I (x) E_xy (x) I on p qubits for the four 2x2 matrix units E_xy on qubit q."""
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return np.array([_kron_chain((np.eye(2**q), e, np.eye(2 ** (p - q - 1)))) for e in units])


def full_matrix(g: RefGate, p: int) -> np.ndarray:
    """The gate on p qubits as a dense 2^p x 2^p matrix (never written to)."""
    if g.kind == "CNOT":
        return _cnot_matrix(g.qubits[0], g.qubits[1], p)
    # sum_xy G[x, y] (I (x) E_xy (x) I) == I (x) G (x) I
    return np.tensordot(single_qubit_matrix(g).reshape(4), _unit_embeddings(g.qubits[0], p), 1)


def _input_embedding(c: RefCircuit) -> np.ndarray:
    p, m = c.num_qubits, len(c.inputs)
    e = np.zeros((2**p, 2**m), dtype=complex)
    for j in range(2**m):
        row = 0
        for t, q in enumerate(c.inputs):
            row |= ((j >> (m - 1 - t)) & 1) << (p - 1 - q)
        e[row, j] = 1.0
    return e


@lru_cache(maxsize=512)
def _projector(p: int, q: int, bit: int) -> np.ndarray:
    return _kron_chain(_P1 if (r == q and bit) else _P0 if r == q else _I2 for r in range(p))


def _fires(g: RefGate, regs: dict) -> bool:
    for r, b in g.condition:
        if r not in regs:
            raise RefError(f"condition reads c{r} before it is written")
        if regs[r] != b:
            return False
    return True


class _Branch:
    __slots__ = ("mat", "regs", "last_meas", "cnots")

    def __init__(self, mat, regs, last_meas, cnots):
        self.mat, self.regs, self.last_meas, self.cnots = mat, regs, last_meas, cnots


def walk(c: RefCircuit, with_matrices: bool = True) -> list[_Branch]:
    """All measurement branches, each with its register values and CNOT count.

    With ``with_matrices`` false only registers and counts are tracked,
    which is all a CNOT-count check needs.
    """
    p = c.num_qubits
    start = _input_embedding(c) if with_matrices else None
    branches = [_Branch(start, {}, {}, 0)]
    disposed = set()
    for g in c.gates:
        if disposed & set(g.qubits):
            raise RefError("gate on a traced-out qubit")
        if g.kind == "MEASURE":
            if g.condition:
                raise RefError("conditioned MEASURE is not supported")
            q = g.qubits[0]
            projs = [_projector(p, q, b) for b in (0, 1)] if with_matrices else (None, None)
            split = []
            for br in branches:
                if g.creg in br.regs:
                    raise RefError(f"c{g.creg} written twice")
                for bit in (0, 1):
                    mat = projs[bit] @ br.mat if with_matrices else None
                    split.append(_Branch(mat, {**br.regs, g.creg: bit},
                                         {**br.last_meas, q: bit}, br.cnots))
            branches = split
        elif g.kind == "RESET":
            q = g.qubits[0]
            flip = full_matrix(RefGate("X", (q,)), p) if with_matrices else None
            for br in branches:
                if q not in br.last_meas:
                    raise RefError("RESET not directly after a MEASURE of its qubit")
                if br.last_meas.pop(q) and with_matrices:
                    br.mat = flip @ br.mat
        elif g.kind == "TRACE":
            disposed.add(g.qubits[0])
            for br in branches:
                br.last_meas.pop(g.qubits[0], None)
        elif g.kind in UNITARY:
            full = full_matrix(g, p) if with_matrices else None
            for br in branches:
                if not _fires(g, br.regs):
                    continue
                if with_matrices:
                    br.mat = full @ br.mat
                br.cnots += g.kind == "CNOT"
                for q in g.qubits:
                    br.last_meas.pop(q, None)
        else:
            raise RefError(f"unknown gate kind {g.kind!r}")
    return branches


def branch_cnots(c: RefCircuit) -> list[int]:
    """CNOTs that fire on each measurement branch, in branch order."""
    return [br.cnots for br in walk(c, with_matrices=False)]


def circuit_choi(c: RefCircuit) -> np.ndarray:
    """Choi matrix of the channel from the circuit's inputs to its outputs."""
    p = c.num_qubits
    m, n = len(c.inputs), len(c.outputs)
    disposal = [q for q in range(p) if q not in c.outputs]
    d = 2 ** (m + n)
    j = np.zeros((d, d), dtype=complex)
    for br in walk(c):
        t = br.mat.reshape((2,) * p + (2**m,))
        t = np.transpose(t, disposal + list(c.outputs) + [p])
        for a in t.reshape(2 ** len(disposal), 2**n, 2**m):
            w = a.T.reshape(-1)
            j += np.outer(w, w.conj())
    return j


def kraus_choi(ops) -> np.ndarray:
    """Choi matrix of a channel given by its Kraus operators."""
    j = 0
    for a in ops:
        w = np.asarray(a, dtype=complex).T.reshape(-1)
        j = j + np.outer(w, w.conj())
    return j


def self_test() -> None:
    """Circuits whose channel is known by hand; raises on any mismatch."""
    def close(c: RefCircuit, ops, label: str) -> None:
        dist = np.linalg.norm(circuit_choi(c) - kraus_choi(ops))
        if dist > 1e-12:
            raise RefError(f"self-test {label}: Choi distance {dist:.3e}")

    close(from_text("QUBITS 1\nCREGS 0\nINPUTS q0\nOUTPUTS q0\n"), [np.eye(2)], "identity")
    # The Bell-pair CNOT: on |x>|0> it copies x, an isometry from 2 to 4 dimensions
    copy = from_text("QUBITS 2\nCREGS 0\nINPUTS q0\nOUTPUTS q0 q1\nCNOT q0 q1\n")
    close(copy, [np.array([[1, 0], [0, 0], [0, 0], [0, 1]])], "cnot-copy")
    # Measure-then-reset on the input maps every state to |0>
    reset = from_text("QUBITS 1\nCREGS 1\nINPUTS q0\nOUTPUTS q0\nMEASURE q0 c0\nRESET q0\n")
    close(reset, [np.array([[1, 0], [0, 0]]), np.array([[0, 1], [0, 0]])], "measure-reset")
    # Amplitude damping: Ry(theta) on an ancilla controlled by the input,
    # then CNOT back; with sin^2(theta/2) = gamma this is the README example.
    gamma = 0.3
    theta = 2 * math.asin(math.sqrt(gamma))
    damping = from_text(
        "QUBITS 2\nCREGS 0\nINPUTS q0\nOUTPUTS q0\n"
        f"RY q1 {theta / 2!r}\nCNOT q0 q1\nRY q1 {-theta / 2!r}\nCNOT q0 q1\n"
        "CNOT q1 q0\nTRACE q1\n"
    )
    close(damping, [np.diag([1, math.sqrt(1 - gamma)]),
                    np.array([[0, math.sqrt(gamma)], [0, 0]])], "amplitude-damping")
    counts = branch_cnots(from_text(
        "QUBITS 2\nCREGS 1\nINPUTS q1\nOUTPUTS q1\nMEASURE q0 c0\n"
        "IF c0=1 CNOT q0 q1\nCNOT q1 q0\n"))
    if counts != [1, 2]:
        raise RefError(f"self-test branch counts: {counts}")
