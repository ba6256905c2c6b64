"""Fixed circuit topologies with free parameters, and a numerical fitter.

Four templates cover channels between one and two qubits with the
exact small-case CNOT counts 1, 4, 7 and 13 (the conditioned blocks
appear once per measurement outcome, so the worst case over classical
assignments is the per-branch count).  A template is a plain `Circuit`
with every angle zero; `instantiate` fills the angles in gate order.
`template_choi` returns the Choi matrices of a whole stack of parameter
vectors: it builds the simulator's static plan of a template once and
evaluates it on one set of gate matrices per parameter vector, so the
template's gates are interpreted by the simulator alone.
`fit` minimizes the squared Frobenius distance between Choi matrices
with a multi-start L-BFGS-B search on exact parameter-shift gradients.

Transcription conventions: qubit 0 is the most significant wire, the
measured ancilla sits on top, and two-qubit unitary slots are expanded
into standard 2- or 3-CNOT blocks with single-qubit gates around them.
Where a figure leaves a single-qubit gate placement open we keep the
more general placement; extra parameters cost nothing in CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .channel import KrausSet, choi_from_kraus, minimal_kraus
from .circuit import (
    CNOT, MEASURE, OPERANDS, RESET, RY, RZ, U, X, X_MATRIX, Circuit, Gate, cnot_count, u_matrices,
)
from .simulator import run_plan, static_plan


@dataclass(frozen=True)
class Template:
    id: str
    m: int
    n: int
    max_rank: int
    circuit: Circuit = field(repr=False)      # the topology, every angle zero
    reduced_spec: tuple = field(repr=False)  # per param slot: "U3", "U2" or "R"

    @property
    def param_count(self) -> int:
        return sum(len(g.params) for g in self.circuit.gates)

    @property
    def cnot_count(self) -> int:
        """Worst-case CNOT count over classical assignments."""
        return cnot_count(self.circuit)[0]


def _gates(cond, *specs) -> tuple:
    """One gate with zero angles per (kind, qubit, ...) spec, all under `cond`."""
    return tuple(Gate(kind, tuple(qubits), (0.0,) * OPERANDS[kind][1], condition=cond)
                 for kind, *qubits in specs)


def _two_cnot_block(a: int, b: int, cond) -> tuple:
    """Two-qubit unitary family up to a diagonal: 2 CNOTs."""
    return _gates(cond, (U, a), (U, b), (CNOT, a, b), (RZ, a), (RY, b), (CNOT, a, b),
                  (U, a), (U, b))


def _three_cnot_block(a: int, b: int, cond) -> tuple:
    """Full two-qubit unitary: 3 CNOTs."""
    return _gates(cond, (U, a), (U, b), (CNOT, b, a), (RZ, a), (RY, b), (CNOT, a, b),
                  (RY, b), (CNOT, b, a), (U, a), (U, b))


def _ry_ladder(target: int, c1: int, c2: int, cond) -> tuple:
    """Expanded two-control multiplexed Ry after one CNOT cancellation."""
    return _gates(cond, (RY, target), (CNOT, c1, target), (RY, target), (CNOT, c2, target),
                  (RY, target), (CNOT, c1, target), (RY, target))


def _iso12_block(cond) -> tuple:
    """One-to-two isometry topology on (ancilla 0, system 1): 2 CNOTs."""
    return _gates(cond, (U, 0), (U, 1), (CNOT, 0, 1), (RY, 0), (RY, 1), (CNOT, 0, 1),
                  (U, 0), (U, 1))


def _t11() -> Template:
    gates = _gates(None, (U, 0), (U, 1), (CNOT, 0, 1), (RY, 0), (RY, 1))
    gates += (Gate(MEASURE, (0,), creg=0),) + _gates(((0, 1),), (X, 1)) + _gates(None, (U, 1))
    reduced = ("U2", "U3", "R", "R", "U3")
    return Template("T11", 1, 1, 2, Circuit(2, (1,), (1,), gates, 1), reduced)


def _t12() -> Template:
    gates = _iso12_block(None) + (Gate(MEASURE, (0,), creg=0), Gate(RESET, (0,)))
    reduced = ["U2", "U3", "R", "R", "U3", "U3"]
    for b in (0, 1):
        gates += _iso12_block(((0, b),))
        reduced += ["U2", "U3", "R", "R", "U3", "U3"]
    return Template("T12", 1, 2, 2, Circuit(2, (1,), (0, 1), gates, 1), tuple(reduced))


def _t21() -> Template:
    gates = _two_cnot_block(1, 2, None) + _ry_ladder(0, 1, 2, None)
    gates += (Gate(MEASURE, (0,), creg=0),)
    reduced = ["U3", "U3", "R", "R", "U3", "U3", "R", "R", "R", "R"]
    for b in (0, 1):
        gates += _gates(((0, b),), (U, 1), (U, 2), (CNOT, 1, 2), (RY, 1), (RZ, 2), (CNOT, 2, 1),
                        (RY, 1))
        reduced += ["U3", "U3", "R", "R", "R"]
    gates += (Gate(MEASURE, (1,), creg=1),)
    for b in (0, 1):
        gates += _gates(((0, b), (1, 1)), (X, 2))
    for b in (0, 1):
        gates += _gates(((0, b),), (U, 2))
        reduced += ["U3"]
    return Template("T21", 2, 1, 4, Circuit(3, (1, 2), (2,), gates, 2), tuple(reduced))


def _t22() -> Template:
    gates = _two_cnot_block(2, 3, None) + _ry_ladder(0, 2, 3, None)
    gates += (Gate(MEASURE, (0,), creg=0),)
    reduced = ["U3", "U3", "R", "R", "U3", "U3", "R", "R", "R", "R"]
    for b in (0, 1):
        cond = ((0, b),)
        gates += _two_cnot_block(2, 3, cond)
        gates += _ry_ladder(1, 2, 3, cond)
        gates += _three_cnot_block(2, 3, cond)
        reduced += ["U3", "U3", "R", "R", "U3", "U3", "R", "R", "R", "R",
                    "U3", "U3", "R", "R", "R", "U3", "U3"]
    gates += (Gate(MEASURE, (1,), creg=1),)
    return Template("T22", 2, 2, 4, Circuit(4, (2, 3), (2, 3), gates, 2), tuple(reduced))


TEMPLATES = {t.id: t for t in (_t11(), _t12(), _t21(), _t22())}


def instantiate(t: Template, params) -> Circuit:
    """The template's circuit with `params` filled into its angles, in gate order."""
    params = [float(x) for x in params]
    if len(params) != t.param_count:
        raise ValueError(f"{t.id} takes {t.param_count} parameters, got {len(params)}")
    it = iter(params)
    gates = tuple(Gate(g.kind, g.qubits, tuple(next(it) for _ in g.params), g.creg, g.condition)
                  if g.params else g for g in t.circuit.gates)
    return replace(t.circuit, gates=gates)


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


# The entries of a gate's (alpha, beta, gamma, delta) that its angles fill:
# RY(t) = u(0, 0, t, 0) and RZ(t) = u(0, t, 0, 0).
_U_ENTRIES = {U: (0, 1, 2, 3), RY: (2,), RZ: (1,), X: ()}


@lru_cache(maxsize=16)
def _plan(t: Template) -> tuple:
    """(simulator plan, angle index, X mask) of a template: parameter i is
    entry index[i] of the flattened (gates, 4) U angles of the plan's
    single-qubit gates, and the X gates' matrices are set exactly."""
    plan = static_plan(t.circuit)
    index = [4 * k + i for k, g in enumerate(plan.gates) for i in _U_ENTRIES[g.kind]]
    return plan, np.array(index, dtype=np.intp), np.array([g.kind == X for g in plan.gates])


def _gate_matrices(params: np.ndarray, index: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(B, gates, 2, 2) single-qubit gate matrices for B parameter vectors."""
    angles = np.zeros((len(params), len(xs), 4))
    angles.reshape(len(params), -1)[:, index] = params
    mats = u_matrices(angles)
    mats[:, xs] = X_MATRIX
    return mats


def template_choi(t: Template, params) -> np.ndarray:
    """Choi matrix of the instantiated template, or a stack of them for a
    (B, param_count) stack of parameter vectors.

    One simulator plan per template runs every parameter vector and every
    measurement branch at once; its branch operators are the Kraus
    operators.
    """
    plan, index, xs = _plan(t)
    params = np.asarray(params, dtype=np.float64)
    if params.shape[-1:] != (t.param_count,) or params.ndim > 2:
        raise ValueError(f"{t.id} takes {t.param_count} parameters, got shape {params.shape}")
    batch = params.reshape(-1, t.param_count)
    kraus = run_plan(plan, _gate_matrices(batch, index, xs))
    size, cols = len(batch), kraus.shape[-1]
    vecs = kraus.transpose(0, 1, 3, 2).reshape(size, -1, cols * 2**t.n)
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
    if minimal_kraus(target).K > t.max_rank:
        raise ValueError(f"{t.id} handles Kraus rank <= {t.max_rank}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    choi = choi_from_kraus(target)
    dim = reduced_dim(t)
    shift = 0.5 * math.pi * np.eye(dim)
    points = np.vstack([np.zeros(dim), shift, -shift])

    def objective(xs):
        js = template_choi(t, expand_reduced(t, xs + points))
        d = js[0] - choi.j
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
