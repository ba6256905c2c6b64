"""Gate-level circuit IR with classical registers, plus rotation algebra.

`OPERANDS` is the one description of a gate kind: how many qubits and
angles it takes, whether it writes a classical register and whether it
may carry a condition.  The text format writes a gate's operands in one
order for every kind: qubits, then the register, then the angles.

Gate kinds: RX, RY, RZ (one angle), U (ZYZ with global phase: four
angles alpha, beta, gamma, delta), X, CNOT (control, target), MEASURE
(into one register), RESET, TRACE.  A unitary gate may carry a
condition: a tuple of (register, bit) pairs that must all match for the
gate to fire.  MEASURE, RESET and TRACE always act.  RESET means: apply
X if the immediately preceding MEASURE on the same qubit gave outcome 1.

Trust boundary: every gate is built by `Gate`, which checks its fields
against `OPERANDS`.  `parse` checks a line's token shapes before it
builds the gate.  `Circuit` checks the whole gate tuple against the
circuit (qubit and register ranges, traced-out qubits).

Rotation algebra: every single-qubit kind is a U gate with some angles
fixed (`_AS_U`).  `angle_layout` turns a sequence of kinds into the
layout the simulator's plan keeps, and `u_matrices` turns filled U
angles into matrices.

Qubit 0 is the most significant bit of a basis index.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

RX, RY, RZ, U, X, CNOT, MEASURE, RESET, TRACE = (
    "RX", "RY", "RZ", "U", "X", "CNOT", "MEASURE", "RESET", "TRACE",
)
# kind -> (qubits, angles, takes a register, takes a condition)
OPERANDS = {
    RX: (1, 1, False, True),
    RY: (1, 1, False, True),
    RZ: (1, 1, False, True),
    U: (1, 4, False, True),
    X: (1, 0, False, True),
    CNOT: (2, 0, False, True),
    MEASURE: (1, 0, True, False),
    RESET: (1, 0, False, False),
    TRACE: (1, 0, False, False),
}
UNITARY_KINDS = frozenset(kind for kind, row in OPERANDS.items() if row[3])

# The frozen dataclass's own field store, looked up once rather than per field.
_set_field = object.__setattr__


@dataclass(frozen=True, init=False)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    creg: int | None = None
    condition: tuple[tuple[int, int], ...] | None = None

    def __init__(self, kind, qubits, params=(), creg=None, condition=None):
        # Runs once per gate built, so the checks allocate nothing.
        row = OPERANDS.get(kind)
        if row is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        nq, na, register, conditional = row
        if len(qubits) != nq:
            raise ValueError(f"{kind} expects {nq} qubit(s)")
        if nq == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"{kind} control equals target")
        if len(params) != na:
            raise ValueError(f"{kind} expects {na} angle(s)")
        for x in params:
            if not math.isfinite(x):
                raise ValueError("gate angles must be finite")
        if creg is None:
            if register:
                raise ValueError(f"{kind} needs a classical register")
        elif not register:
            raise ValueError(f"{kind} takes no classical register")
        if condition and not conditional:
            raise ValueError(f"{kind} takes no condition")
        _set_field(self, "kind", kind)
        _set_field(self, "qubits", qubits)
        _set_field(self, "params", params)
        _set_field(self, "creg", creg)
        _set_field(self, "condition", condition)


def conditioned(gates, condition) -> list[Gate]:
    """Copies of `gates`, each carrying `condition`; a gate whose condition
    already is that object (None included) is its own copy."""
    return [g if g.condition is condition else Gate(g.kind, g.qubits, g.params, g.creg, condition)
            for g in gates]


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    input_qubits: tuple[int, ...]
    output_qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    num_cregs: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_qubits", tuple(self.input_qubits))
        object.__setattr__(self, "output_qubits", tuple(self.output_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        p = self.num_qubits
        for name in ("input_qubits", "output_qubits"):
            qs = getattr(self, name)
            if len(set(qs)) != len(qs):
                raise ValueError(f"duplicate entries in {name}")
            if any(q < 0 or q >= p for q in qs):
                raise ValueError(f"{name} index out of range")
        ncregs = self.num_cregs
        traced = set()
        for g in self.gates:
            for q in g.qubits:
                if q < 0 or q >= p:
                    raise ValueError("gate qubit index out of range")
            if traced and not traced.isdisjoint(g.qubits):
                raise ValueError("gate acts on a traced-out qubit")
            if g.kind == TRACE:
                traced.add(g.qubits[0])
            elif g.creg is not None and not (0 <= g.creg < ncregs):
                raise ValueError("measure register out of range")
            if g.condition:
                for r, _ in g.condition:
                    if r < 0 or r >= ncregs:
                        raise ValueError("condition register out of range")
        if traced and not traced.isdisjoint(self.output_qubits):
            raise ValueError("traced-out qubit declared as output")


# --- rotation algebra -----------------------------------------------------


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]])


X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
ZERO_AMP = 1e-12


def phase(z) -> np.ndarray:
    """np.angle mapped into (-pi + 1/2, pi + 1/2], a cut on which no
    multiple of pi/4 lies.  np.angle cuts the negative real axis, where the
    entries of real isometries sit and round-off moves the angle by 2 pi."""
    a = np.angle(z)
    return np.where(a <= 0.5 - np.pi, a + 2.0 * np.pi, a)


def u_angles(u: np.ndarray) -> list[tuple[float, float, float, float]]:
    """The U gate angles (alpha, beta, gamma, delta) of each 2x2 unitary in
    the stack u, with u = e^{ia} Rz(b) Ry(g) Rz(d), global phase included.

    gamma is in [0, pi]; at the gamma = 0 or pi degeneracy delta is 0 and
    all z-rotation folds into beta.  Every phase is read through `phase`
    and none is wrapped, so the entries of real inputs, and their
    round-off, stay off the cut."""
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    alpha = 0.5 * phase(det)
    a, b = (u[:, :, 0] * np.exp(-1j * alpha)[:, None]).T
    gamma = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    pa, pb = phase(a), phase(b)
    diagonal, antidiagonal = np.abs(b) < ZERO_AMP, np.abs(a) < ZERO_AMP
    # at the degenerate points all z-rotation goes into beta; 0.0 - x keeps zeros +0.0
    beta = np.where(diagonal, 0.0 - 2.0 * pa, np.where(antidiagonal, 2.0 * pb, pb - pa))
    delta = np.where(diagonal | antidiagonal, 0.0, 0.0 - pb - pa)
    return list(zip(alpha.tolist(), beta.tolist(), gamma.tolist(), delta.tolist()))


def update_pairs(work: np.ndarray, b: int, mats: np.ndarray) -> None:
    """Multiply, in place, every row pair of `work` that differs only in
    bit b by its own 2x2 matrix, as one block update.

    The pair's control pattern s is the other bits, high to low, and it
    gets mats[s]; mats is (..., 2^(p-1), 2, 2) for a 2^p x C `work`, or
    for a stack of them (...), the leading axes broadcasting.  Both the
    synthesizer's working copy and the simulator's branch matrices go
    through here.  The reshape only splits the row axis, so it is a view
    for any memory layout of the rows.
    """
    t = work.reshape(work.shape[:-2] + (-1, 2, 1 << b, work.shape[-1]))   # (high, bit b, low, col)
    m = mats.reshape(mats.shape[:-3] + (-1, 1 << b, 4, 1))
    top, bottom = t[..., 0, :, :], t[..., 1, :, :]
    new_top = m[..., 0, :] * top + m[..., 1, :] * bottom
    bottom[...] = m[..., 2, :] * top + m[..., 3, :] * bottom
    top[...] = new_top


# Each single-qubit kind as U angles (alpha, beta, gamma, delta): the fixed
# angles, and 1 on each entry its own angles fill.  X's matrix is then set exactly.
_AS_U = {
    U: ((0.0, 0.0, 0.0, 0.0), (1, 1, 1, 1)),
    RX: ((0.0, -0.5 * math.pi, 0.0, 0.5 * math.pi), (0, 0, 1, 0)),
    RY: ((0.0, 0.0, 0.0, 0.0), (0, 0, 1, 0)),
    RZ: ((0.0, 0.0, 0.0, 0.0), (0, 1, 0, 0)),
    X: ((0.0, 0.0, 0.0, 0.0), (0, 0, 0, 0)),
}
_KIND_CODE = {k: i for i, k in enumerate(_AS_U)}
_FIXED = np.array([f for f, _ in _AS_U.values()])
_FILLS = np.array([s for _, s in _AS_U.values()], dtype=bool)


def u_matrices(angles: np.ndarray) -> np.ndarray:
    """e^{ia} Rz(b) Ry(g) Rz(d) of each row (a, b, g, d) of an (..., 4) angle array, as (..., 2, 2):
    e^{ia} [[e^{-i(b+d)/2} c, -e^{-i(b-d)/2} s], [e^{i(b-d)/2} s, e^{i(b+d)/2} c]]
    with c = cos(g/2) and s = sin(g/2)."""
    alpha, beta, gamma, delta = np.moveaxis(angles, -1, 0)
    cos, sin = np.cos(0.5 * gamma), np.sin(0.5 * gamma)
    s, d = 0.5 * (beta + delta), 0.5 * (beta - delta)
    out = np.exp(1j * alpha)[..., None] * np.stack(
        [np.exp(-1j * s) * cos, -np.exp(-1j * d) * sin, np.exp(1j * d) * sin, np.exp(1j * s) * cos],
        axis=-1)
    return out.reshape(angles.shape[:-1] + (2, 2))


def angle_layout(kinds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The U-angle layout of a sequence of single-qubit kinds, each gate one
    (alpha, beta, gamma, delta) row of a flat (gates x 4) array: the fixed
    angles, the entries the gates' own angles fill in order, and the X mask."""
    codes = np.array([_KIND_CODE[k] for k in kinds], dtype=np.intp)
    return _FIXED[codes].reshape(-1), np.flatnonzero(_FILLS[codes]), codes == _KIND_CODE[X]


def walsh_hadamard(w: np.ndarray) -> np.ndarray:
    """out[..., x] = sum_s (-1)^popcount(x & s) w[..., s] over the 2^c
    entries of the last axis of w, for a vector or a stack of them.

    A constant-geometry numpy butterfly: each of the c stages writes the
    sums of adjacent pairs to the first half and their differences to the
    second.  Every entry takes the same additions whatever the stack, so a
    row's result is the same alone or in any stack.  No BLAS call is made,
    so the result cannot depend on the BLAS thread count either.
    """
    n = w.shape[-1]
    half = n // 2
    w = np.array(w, dtype=np.float64)   # a fresh copy
    out = np.empty_like(w)
    for _ in range(n.bit_length() - 1):
        pairs = w.reshape(w.shape[:-1] + (half, 2))
        np.add(pairs[..., 0], pairs[..., 1], out=out[..., :half])
        np.subtract(pairs[..., 0], pairs[..., 1], out=out[..., half:])
        w, out = out, w
    return w


# --- CNOT accounting ------------------------------------------------------


def cnot_count(c: Circuit) -> tuple[int, bool]:
    """(worst-case CNOT count over classical assignments, uniform flag).

    Enumerates all assignments of the registers referenced by CNOT
    conditions; unconditioned CNOTs always count.
    """
    per_condition = Counter(g.condition or () for g in c.gates if g.kind == CNOT)
    regs = sorted({r for cond in per_condition for r, _ in cond})
    totals = set()
    for bits in range(1 << len(regs)):
        value = {r: (bits >> i) & 1 for i, r in enumerate(regs)}
        totals.add(sum(n for cond, n in per_condition.items()
                       if all(value[r] == b for r, b in cond)))
    return max(totals), len(totals) == 1


# --- text serialization ---------------------------------------------------


class CircuitParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def serialize(c: Circuit) -> str:
    """Four header lines, then one line per gate: an `IF` prefix when the
    gate is conditioned, the kind, the qubits, the register and the angles
    (17 significant digits, so they read back exactly)."""
    lines = [
        f"QUBITS {c.num_qubits}",
        f"CREGS {c.num_cregs}",
        "INPUTS " + " ".join(f"q{q}" for q in c.input_qubits),
        "OUTPUTS " + " ".join(f"q{q}" for q in c.output_qubits),
    ]
    # condition -> its "IF ... " text, qubits -> theirs: each built once
    prefixes, operands = {}, {}
    for g in c.gates:
        qubits = g.qubits
        text = operands.get(qubits)
        if text is None:
            text = operands[qubits] = "".join([f" q{q}" for q in qubits])
        line = g.kind + text
        if g.creg is not None:
            line += " c" + str(g.creg)
        params = g.params
        if params:
            # "%.17g" % x is the text of format(float(x), ".17g")
            line += " %.17g" * len(params) % params
        cond = g.condition
        if cond:
            prefix = prefixes.get(cond)
            if prefix is None:
                prefix = prefixes[cond] = "IF " + ",".join(f"c{r}={b}" for r, b in cond) + " "
            line = prefix + line
        lines.append(line)
    return "\n".join(lines) + "\n"


def _index(tok: str, prefix: str) -> int:
    """The number in a `q<int>` (prefix "q") or `c<int>` (prefix "c") token."""
    digits = tok[1:]
    if tok[:1] != prefix or not digits.isdecimal():
        raise ValueError(f"expected {'qubit' if prefix == 'q' else 'register'} token, "
                         f"got {tok!r}")
    return int(digits)


def _condition(text: str) -> tuple[tuple[int, int], ...]:
    """The (register, bit) pairs of an `IF` condition such as `c0=1,c2=0`."""
    pairs = []
    for part in text.split(","):
        reg, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"bad condition {part!r}")
        if val not in ("0", "1"):
            raise ValueError(f"condition bit must be 0 or 1, got {val!r}")
        pairs.append((_index(reg, "c"), int(val)))
    return tuple(pairs)


def parse(text: str) -> Circuit:
    """Inverse of `serialize`; `#` starts a comment.  Every fault is a
    `CircuitParseError` naming the line (0 for the circuit as a whole).

    Each gate line's token shapes are checked here; `Gate` then checks its
    values, and its fault names the line as well."""
    header = dict.fromkeys(("QUBITS", "CREGS", "INPUTS", "OUTPUTS"))
    gates = []
    # condition text -> its tuple, qubit tokens -> theirs: each read once
    conditions, operands = {}, {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        key = toks[0]
        try:
            if key in header:
                if header[key] is not None:
                    raise ValueError(f"duplicate {key} header")
                if key in ("INPUTS", "OUTPUTS"):
                    header[key] = tuple(_index(t, "q") for t in toks[1:])
                elif len(toks) != 2 or not toks[1].isdecimal():
                    raise ValueError(f"bad {key} header")
                else:
                    header[key] = int(toks[1])
                continue
            condition = None
            if key == "IF":
                if len(toks) < 3:
                    raise ValueError("IF needs a condition and an instruction")
                condition = conditions.get(toks[1])
                if condition is None:
                    condition = conditions[toks[1]] = _condition(toks[1])
                toks = toks[2:]
                key = toks[0]
            row = OPERANDS.get(key)
            if row is None:
                raise ValueError(f"unknown instruction {key!r}")
            nq, na, register, _ = row
            fixed = nq + register   # operand tokens before the angles
            if len(toks) <= fixed:
                names = ["qubit" if nq == 1 else f"{nq} qubits"]
                names += ["register"] * register + [f"{na} angle(s)"] * (na > 0)
                raise ValueError(f"{key} needs {' and '.join(names)}")
            if len(toks) - 1 - fixed != na:
                raise ValueError(f"expected {na} angle(s), got {len(toks) - 1 - fixed}")
            operand = toks[1] if nq == 1 else (toks[1], toks[2])   # nq is 1 or 2
            qubits = operands.get(operand)
            if qubits is None:
                qubits = operands[operand] = tuple([_index(t, "q") for t in toks[1:nq + 1]])
            params = tuple(map(float, toks[fixed + 1:])) if na else ()
            creg = _index(toks[fixed], "c") if register else None
            # sys.intern: every gate of a kind shares one kind string
            gates.append(Gate(sys.intern(key), qubits, params, creg, condition))
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
    for key, value in header.items():
        if value is None:
            raise CircuitParseError(0, f"missing {key} header")
    try:
        return Circuit(header["QUBITS"], header["INPUTS"], header["OUTPUTS"],
                       tuple(gates), header["CREGS"])
    except ValueError as exc:
        raise CircuitParseError(0, str(exc)) from None
