"""Fixed circuit topologies with free parameters, and a numerical fitter.

Four templates cover channels between one and two qubits with the
exact small-case CNOT counts 1, 4, 7 and 13 (the conditioned blocks
appear once per measurement outcome, so the worst case over classical
assignments is the per-branch count).  One batched evaluator,
`template_choi`, reads only a template's element list and returns the
Choi matrices of a whole stack of parameter vectors.  `fit` minimizes
the squared Frobenius distance between Choi matrices with a multi-start
L-BFGS-B search on exact parameter-shift gradients.

Transcription conventions: qubit 0 is the most significant wire, the
measured ancilla sits on top, and two-qubit unitary slots are expanded
into standard 2- or 3-CNOT blocks with single-qubit gates around them.
Where a figure leaves a single-qubit gate placement open we keep the
more general placement; extra parameters cost nothing in CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import KrausSet, choi_from_kraus, kraus_rank
from .circuit import CNOT, MEASURE, RESET, U, X, Circuit, Gate, _cnot_perm, cnot_count
from .simulator import _dispose, input_embedding

# element vocabulary: ("U"|"RY"|"RZ", qubit, cond) consume parameters,
# ("CNOT", ctrl, tgt, cond), ("X", qubit, cond), ("MEASURE", qubit, reg),
# ("RESET", qubit) are fixed structure.


@dataclass(frozen=True)
class Template:
    id: str
    m: int
    n: int
    max_rank: int
    num_qubits: int
    input_qubits: tuple
    output_qubits: tuple
    num_cregs: int
    elements: tuple = field(repr=False)
    reduced_spec: tuple = field(repr=False)  # per param slot: "U3", "U2" or "R"

    @property
    def param_count(self) -> int:
        return sum(4 if e[0] == "U" else 1 for e in self.elements if e[0] in ("U", "RY", "RZ"))

    @property
    def cnot_count(self) -> int:
        """Worst-case CNOT count over classical assignments."""
        return cnot_count(instantiate(self, [0.0] * self.param_count))[0]


def _two_cnot_block(a: int, b: int, cond) -> tuple:
    """Two-qubit unitary family up to a diagonal: 2 CNOTs."""
    return (
        ("U", a, cond), ("U", b, cond),
        ("CNOT", a, b, cond),
        ("RZ", a, cond), ("RY", b, cond),
        ("CNOT", a, b, cond),
        ("U", a, cond), ("U", b, cond),
    )


def _three_cnot_block(a: int, b: int, cond) -> tuple:
    """Full two-qubit unitary: 3 CNOTs."""
    return (
        ("U", a, cond), ("U", b, cond),
        ("CNOT", b, a, cond),
        ("RZ", a, cond), ("RY", b, cond),
        ("CNOT", a, b, cond),
        ("RY", b, cond),
        ("CNOT", b, a, cond),
        ("U", a, cond), ("U", b, cond),
    )


def _ry_ladder(target: int, c1: int, c2: int, cond) -> tuple:
    """Expanded two-control multiplexed Ry after one CNOT cancellation."""
    return (
        ("RY", target, cond),
        ("CNOT", c1, target, cond),
        ("RY", target, cond),
        ("CNOT", c2, target, cond),
        ("RY", target, cond),
        ("CNOT", c1, target, cond),
        ("RY", target, cond),
    )


def _iso12_block(cond) -> tuple:
    """One-to-two isometry topology on (ancilla 0, system 1): 2 CNOTs."""
    return (
        ("U", 0, cond), ("U", 1, cond),
        ("CNOT", 0, 1, cond),
        ("RY", 0, cond), ("RY", 1, cond),
        ("CNOT", 0, 1, cond),
        ("U", 0, cond), ("U", 1, cond),
    )


def _t11() -> Template:
    elements = (
        ("U", 0, None), ("U", 1, None),
        ("CNOT", 0, 1, None),
        ("RY", 0, None), ("RY", 1, None),
        ("MEASURE", 0, 0),
        ("X", 1, ((0, 1),)),
        ("U", 1, None),
    )
    reduced = ("U2", "U3", "R", "R", "U3")
    return Template("T11", 1, 1, 2, 2, (1,), (1,), 1, elements, reduced)


def _t12() -> Template:
    elements = _iso12_block(None) + (("MEASURE", 0, 0), ("RESET", 0))
    reduced = ["U2", "U3", "R", "R", "U3", "U3"]
    for b in (0, 1):
        elements += _iso12_block(((0, b),))
        reduced += ["U2", "U3", "R", "R", "U3", "U3"]
    return Template("T12", 1, 2, 2, 2, (1,), (0, 1), 1, elements, tuple(reduced))


def _t21() -> Template:
    elements = _two_cnot_block(1, 2, None) + _ry_ladder(0, 1, 2, None)
    elements += (("MEASURE", 0, 0),)
    reduced = ["U3", "U3", "R", "R", "U3", "U3", "R", "R", "R", "R"]
    for b in (0, 1):
        cond = ((0, b),)
        elements += (
            ("U", 1, cond), ("U", 2, cond),
            ("CNOT", 1, 2, cond),
            ("RY", 1, cond), ("RZ", 2, cond),
            ("CNOT", 2, 1, cond),
            ("RY", 1, cond),
        )
        reduced += ["U3", "U3", "R", "R", "R"]
    elements += (("MEASURE", 1, 1),)
    for b in (0, 1):
        elements += (("X", 2, ((0, b), (1, 1))),)
    for b in (0, 1):
        elements += (("U", 2, ((0, b),)),)
        reduced += ["U3"]
    return Template("T21", 2, 1, 4, 3, (1, 2), (2,), 2, elements, tuple(reduced))


def _t22() -> Template:
    elements = _two_cnot_block(2, 3, None) + _ry_ladder(0, 2, 3, None)
    elements += (("MEASURE", 0, 0),)
    reduced = ["U3", "U3", "R", "R", "U3", "U3", "R", "R", "R", "R"]
    for b in (0, 1):
        cond = ((0, b),)
        elements += _two_cnot_block(2, 3, cond)
        elements += _ry_ladder(1, 2, 3, cond)
        elements += _three_cnot_block(2, 3, cond)
        reduced += ["U3", "U3", "R", "R", "U3", "U3", "R", "R", "R", "R",
                    "U3", "U3", "R", "R", "R", "U3", "U3"]
    elements += (("MEASURE", 1, 1),)
    return Template("T22", 2, 2, 4, 4, (2, 3), (2, 3), 2, elements, tuple(reduced))


TEMPLATES = {t.id: t for t in (_t11(), _t12(), _t21(), _t22())}


def instantiate(t: Template, params) -> Circuit:
    """Fill the template's parameter slots and return the circuit."""
    params = [float(x) for x in params]
    if len(params) != t.param_count:
        raise ValueError(f"{t.id} takes {t.param_count} parameters, got {len(params)}")
    it = iter(params)
    gates = []
    for e in t.elements:
        kind = e[0]
        if kind in ("U", "RY", "RZ"):
            angles = tuple(next(it) for _ in range(4 if kind == "U" else 1))
            gates.append(Gate(kind, (e[1],), angles, condition=e[2]))
        elif kind == "CNOT":
            gates.append(Gate(CNOT, (e[1], e[2]), condition=e[3]))
        elif kind == "X":
            gates.append(Gate(X, (e[1],), condition=e[2]))
        elif kind == "MEASURE":
            gates.append(Gate(MEASURE, (e[1],), creg=e[2]))
        elif kind == "RESET":
            gates.append(Gate(RESET, (e[1],)))
        else:
            raise AssertionError(kind)
    return Circuit(t.num_qubits, t.input_qubits, t.output_qubits, tuple(gates),
                   t.num_cregs)


# Angles the optimizer keeps per slot: a U acting on a freshly prepared |0>
# keeps (beta, gamma), other U slots keep (beta, gamma, delta) (the global
# phase is per-branch and cancels in the Choi matrix), rotations keep theirs.
_KEPT = {"U2": (1, 2), "U3": (1, 2, 3), "R": (0,)}


def reduced_dim(t: Template) -> int:
    return sum(len(_KEPT[role]) for role in t.reduced_spec)


def expand_reduced(t: Template, reduced) -> np.ndarray:
    """Map optimizer coordinates, one vector or a stack of them, to full
    template parameters; the angles left out are zero."""
    pos, at = [], 0
    for role in t.reduced_spec:
        pos.extend(at + i for i in _KEPT[role])
        at += 1 if role == "R" else 4
    reduced = np.asarray(reduced, dtype=np.float64)
    full = np.zeros(reduced.shape[:-1] + (at,))
    full[..., pos] = reduced
    return full


# --- batched channel evaluation -------------------------------------------


@lru_cache(maxsize=16)
def _compile(t: Template) -> tuple:
    """(ops, slot_index, input embedding, output row order) of a template.

    The ops act on a (batch, branch, row, input) array: ("slot", k, qubit,
    branches) applies slot matrix k, ("perm", rows, branches) permutes
    rows, ("measure", masks) splits each branch into outcomes 0 and 1;
    `branches` is slice(None) or the indices of the branches acted on.
    Every slot is a u_matrix (RY(t) = u(0, 0, t, 0), RZ(t) = u(0, t, 0, 0)):
    parameter i is entry slot_index[i] of the flattened (slots, 4) angles.
    """
    circ = instantiate(t, [0.0] * t.param_count)
    p = t.num_qubits
    rows = np.arange(2**p)
    ops, slot_index, k = [], [], 0
    outcomes = [()]           # per branch, the outcome of each measurement so far
    reg_at, last_on = {}, {}  # register / qubit -> its latest measurement

    def flip(q):
        return rows ^ (1 << (p - 1 - q))

    def branches(test):
        sel = [b for b, out in enumerate(outcomes) if test(out)]
        return slice(None) if len(sel) == len(outcomes) else np.array(sel)

    def fires(cond):
        return branches(lambda out: all(out[reg_at[r]] == v for r, v in cond or ()))

    for e in t.elements:
        kind = e[0]
        if kind in ("U", "RY", "RZ"):
            if kind == "U":
                slot_index.extend(range(4 * k, 4 * k + 4))
            else:
                slot_index.append(4 * k + (2 if kind == "RY" else 1))
            ops.append(("slot", k, e[1], fires(e[2])))
            k += 1
        elif kind == "CNOT":
            ops.append(("perm", _cnot_perm(p, e[1], e[2]), fires(e[3])))
        elif kind == "X":
            ops.append(("perm", flip(e[1]), fires(e[2])))
        elif kind == "MEASURE":
            reg_at[e[2]] = last_on[e[1]] = len(outcomes[0])
            outcomes = [out + (v,) for out in outcomes for v in (0, 1)]
            one = flip(e[1]) < rows
            ops.append(("measure", np.stack([~one, one])))
        else:  # RESET: X where the qubit's last measurement gave 1
            at = last_on[e[1]]
            ops.append(("perm", flip(e[1]), branches(lambda out: out[at] == 1)))
    out_rows = np.concatenate(_dispose(rows.reshape(-1, 1), circ)).reshape(-1)
    return tuple(ops), np.array(slot_index), input_embedding(circ), out_rows


def _slot_matrices(params: np.ndarray, slot_index: np.ndarray) -> np.ndarray:
    """(B, slots, 2, 2) slot matrices for B parameter vectors, from the
    closed form e^{ia} Rz(b) Ry(g) Rz(d) =
    [[e^{i(a-(b+d)/2)} c, -e^{i(a-(b-d)/2)} s], [e^{i(a+(b-d)/2)} s, e^{i(a+(b+d)/2)} c]]
    with c = cos(g/2) and s = sin(g/2)."""
    angles = np.zeros((len(params), slot_index[-1] // 4 + 1, 4))
    angles.reshape(len(params), -1)[:, slot_index] = params
    a, b, g, d = np.moveaxis(angles, -1, 0)
    c, s = np.cos(0.5 * g), np.sin(0.5 * g)
    phase = np.exp(0.5j * np.stack([2 * a - b - d, 2 * a - b + d, 2 * a + b - d, 2 * a + b + d],
                                   axis=-1))
    return (phase * np.stack([c, -s, s, c], axis=-1)).reshape(angles.shape[:2] + (2, 2))


def template_choi(t: Template, params) -> np.ndarray:
    """Choi matrix of the instantiated template, or a stack of them for a
    (B, param_count) stack of parameter vectors.

    Runs every parameter vector and every measurement branch at once; the
    Kraus operators are the branch blocks split by the disposed qubits.
    """
    ops, slot_index, embed, out_rows = _compile(t)
    params = np.asarray(params, dtype=np.float64)
    if params.shape[-1:] != (t.param_count,) or params.ndim > 2:
        raise ValueError(f"{t.id} takes {t.param_count} parameters, got shape {params.shape}")
    batch = params.reshape(-1, t.param_count)
    mats, size = _slot_matrices(batch, slot_index), len(batch)
    state = np.broadcast_to(embed, (size, 1) + embed.shape).copy()
    for op in ops:
        if op[0] == "slot":
            _, k, q, sel = op
            part = state[:, sel]
            blocks = part.reshape(size, part.shape[1], 2**q, 2, -1)
            state[:, sel] = (mats[:, k, None, None] @ blocks).reshape(part.shape)
        elif op[0] == "perm":
            state[:, op[2]] = state[:, op[2]][:, :, op[1]]
        else:
            state = (state[:, :, None] * op[1][:, :, None]).reshape(size, -1, *embed.shape)
    kraus = state[:, :, out_rows].reshape(size, -1, 2**t.n, embed.shape[1])
    vecs = kraus.transpose(0, 1, 3, 2).reshape(size, -1, embed.shape[1] * 2**t.n)
    j = vecs.transpose(0, 2, 1) @ vecs.conj()  # sum over Kraus ops of |vec A><vec A|
    return j if params.ndim == 2 else j[0]


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first fit rather than with
    the package: scipy.optimize takes longer to import than everything
    else a CLI call does."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def fit(
    t: Template,
    target: KrausSet,
    starts: int = 20,
    max_iters: int = 6000,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[list[float], float]:
    """Multi-start L-BFGS-B search for parameters realizing the channel.

    Minimizes f = ||J - J_target||_F^2 from seeded uniform random starts
    and stops at the first start reaching `tol`, else returns the best.
    Each optimizer coordinate is the angle of one rotation, so the
    parameter-shift rule dJ/dx = [J(x + pi/2) - J(x - pi/2)] / 2 is exact:
    one batched evaluation at 2d + 1 points gives f and its gradient.
    """
    if (target.m, target.n) != (t.m, t.n):
        raise ValueError(f"{t.id} expects a {t.m}->{t.n} channel")
    if kraus_rank(target) > t.max_rank:
        raise ValueError(f"{t.id} handles Kraus rank <= {t.max_rank}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    jt = choi_from_kraus(target).j
    dim = reduced_dim(t)
    shift = 0.5 * math.pi * np.eye(dim)
    points = np.vstack([np.zeros(dim), shift, -shift])

    def objective(xs):
        js = template_choi(t, expand_reduced(t, xs + points))
        d = js[0] - jt
        slopes = (js[1 : dim + 1] - js[dim + 1 :]).reshape(dim, -1)
        return float(np.vdot(d, d).real), (slopes @ d.conj().reshape(-1)).real

    rng = np.random.default_rng(seed)
    best_val, best_x = math.inf, None
    for _ in range(starts):
        res = minimize(objective, rng.uniform(-math.pi, math.pi, dim), jac=True,
                       method="L-BFGS-B",
                       options=dict(maxiter=max_iters, ftol=0.0, gtol=1e-14))
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
        if math.sqrt(best_val) < tol:
            break
    return expand_reduced(t, best_x).tolist(), math.sqrt(best_val)
