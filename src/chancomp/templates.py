"""Fixed circuit topologies with free parameters, and a numerical fitter.

Four templates cover channels between one and two qubits with the
exact small-case CNOT counts 1, 4, 7 and 13 (the conditioned blocks
appear once per measurement outcome, so the worst case over classical
assignments is the per-branch count).  A template is a plain `Circuit`
with every angle zero; `instantiate` fills the angles in gate order.
T11, T12 and T22 are the measured compiles (the rewrite's fixed point)
of rank-2^m channels of their shapes, whose gate structure the shape
alone fixes; `template` builds each on its first use, not at import.
`template_choi` returns the Choi matrices of a whole stack of parameter
vectors: the simulator's static plan of a template, built once per
structure, takes the stack as it is, so the template's gates and the
layout of its angles are interpreted by the simulator alone.
`fit` first tries the target's own measured compile: when its gate
structure is the template's, up to the outcome prefixes a lower-rank
target cannot reach, its angles are the answer if they reach the
tolerance.  Only when they miss (and always for T21) does it
minimize the squared Frobenius distance between Choi matrices with a
multi-start L-BFGS-B search on exact parameter-shift gradients.  Its
coordinates come from the plan's angle layout alone: every angle but
those that fill a U gate's global phase, which cancels in the Choi
matrix.

T21 is transcribed by hand (the compiler spends 8 CNOTs on its shape,
with a reset ancilla): qubit 0 is the most significant wire, the
measured ancilla sits on top, and two-qubit unitary slots are expanded
into standard 2-CNOT blocks with single-qubit gates around them.
Where a figure leaves a single-qubit gate placement open we keep the
more general placement; extra parameters cost nothing in CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .channel import KrausSet, choi_from_kraus, kraus_vectors, minimal_kraus
from .circuit import CNOT, MEASURE, OPERANDS, RY, RZ, U, X, Circuit, Gate, cnot_count
from .compiler import compile_measured, outcome_conditions
from .simulator import run_plan, static_plan
from .synth import multiplexed_rotation


@dataclass(frozen=True)
class Template:
    id: str
    m: int
    n: int
    max_rank: int
    circuit: Circuit = field(repr=False)  # the topology, every angle zero

    @property
    def param_count(self) -> int:
        return sum(len(g.params) for g in self.circuit.gates)

    @property
    def cnot_count(self) -> int:
        """Worst-case CNOT count over classical assignments."""
        return cnot_count(self.circuit)[0]


# (m, n, max_rank) of each template
SHAPES = {"T11": (1, 1, 2), "T12": (1, 2, 2), "T21": (2, 1, 4), "T22": (2, 2, 4)}


def _gates(cond, *specs) -> tuple:
    """One gate with zero angles per (kind, qubit, ...) spec, all under `cond`."""
    return tuple(Gate(kind, tuple(qubits), (0.0,) * OPERANDS[kind][1], condition=cond)
                 for kind, *qubits in specs)


def _two_cnot_block(a: int, b: int) -> tuple:
    """Two-qubit unitary family up to a diagonal: 2 CNOTs, RY on the control
    and RZ on the target between them, as the Shannon leaves place them (RZ
    on the control would commute with both CNOTs)."""
    return _gates(None, (U, a), (U, b), (CNOT, a, b), (RY, a), (RZ, b), (CNOT, a, b),
                  (U, a), (U, b))


def _skeleton(tid: str, m: int, n: int, rank: int) -> Template:
    """The m-to-n skeleton, compiled from a fixed channel of rank 2^m:
    measure the input's basis state b, prepare basis state
    b (2^n - 1) / (2^m - 1)."""
    ops = [np.outer(np.eye(2**n)[b * (2**n - 1) // (rank - 1)], np.eye(2**m)[b])
           for b in range(rank)]
    c = compile_measured(KrausSet(m, n, ops))
    gates = tuple(replace(g, params=(0.0,) * len(g.params)) for g in c.gates)
    return Template(tid, m, n, rank, replace(c, gates=gates))


def _t21() -> Template:
    # a 2-CNOT block, then the synthesizer's two-control Ry multiplexor without its closing CNOT
    gates = _two_cnot_block(1, 2) + tuple(multiplexed_rotation(RY, (2, 1), 0, [0.0] * 4)[:-1])
    gates += (Gate(MEASURE, (0,), creg=0),)
    for b in (0, 1):
        gates += _gates(((0, b),), (U, 1), (U, 2), (CNOT, 1, 2), (RY, 1), (RZ, 2), (CNOT, 2, 1),
                        (RY, 1))
    gates += (Gate(MEASURE, (1,), creg=1),)
    for b in (0, 1):
        gates += _gates(((0, b), (1, 1)), (X, 2))
    for b in (0, 1):
        gates += _gates(((0, b),), (U, 2))
    return Template("T21", *SHAPES["T21"], Circuit(3, (1, 2), (2,), gates, 2))


@cache
def template(tid: str) -> Template:
    """The template `tid`, built on its first use."""
    return _t21() if tid == "T21" else _skeleton(tid, *SHAPES[tid])


def instantiate(t: Template, params) -> Circuit:
    """The template's circuit with `params` filled into its angles, in gate order."""
    params = [float(x) for x in params]
    if len(params) != t.param_count:
        raise ValueError(f"{t.id} takes {t.param_count} parameters, got {len(params)}")
    it = iter(params)
    gates = tuple(Gate(g.kind, g.qubits, tuple(next(it) for _ in g.params), g.creg, g.condition)
                  if g.params else g for g in t.circuit.gates)
    return replace(t.circuit, gates=gates)


def _kept(t: Template) -> np.ndarray:
    """Indices of the angles the optimizer moves: every angle but those
    that fill a U row's alpha in the plan's angle layout, each U gate's
    global phase, which is per-branch and cancels in the Choi matrix."""
    return np.flatnonzero(static_plan(t.circuit).fills % 4)


def reduced_dim(t: Template) -> int:
    return len(_kept(t))


def expand_reduced(t: Template, reduced) -> np.ndarray:
    """Map optimizer coordinates, one vector or a stack of them, to full
    template parameters; the angles left out are zero."""
    reduced = np.asarray(reduced, dtype=np.float64)
    full = np.zeros(reduced.shape[:-1] + (t.param_count,))
    full[..., _kept(t)] = reduced
    return full


# --- batched channel evaluation -------------------------------------------


def template_choi(t: Template, params) -> np.ndarray:
    """Choi matrix of the instantiated template, or a stack of them for a
    (B, param_count) stack of parameter vectors.

    The simulator's plan of the template's structure runs every parameter
    vector and every measurement branch at once; its branch operators are
    the Kraus operators.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.shape[-1:] != (t.param_count,) or params.ndim > 2:
        raise ValueError(f"{t.id} takes {t.param_count} parameters, got shape {params.shape}")
    w = kraus_vectors(run_plan(static_plan(t.circuit), params.reshape(-1, t.param_count)))
    j = w @ w.swapaxes(-1, -2).conj()  # sum over Kraus ops of |vec A><vec A|
    return j if params.ndim == 2 else j[0]


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first search rather than
    with the package: scipy.optimize takes longer to import than
    everything else a CLI call does."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _objective(t: Template, j_target: np.ndarray):
    """f(x) = ||J(x) - J_target||_F^2 and its gradient at reduced
    coordinates x.  Each coordinate is the angle of one rotation, so the
    parameter-shift rule dJ/dx = [J(x + pi/2) - J(x - pi/2)] / 2 is exact:
    one batched evaluation at 2d + 1 points gives f and its gradient."""
    dim = reduced_dim(t)
    shift = 0.5 * math.pi * np.eye(dim)
    points = np.vstack([np.zeros(dim), shift, -shift])

    def objective(xs):
        js = template_choi(t, expand_reduced(t, xs + points))
        d = js[0] - j_target
        slopes = (js[1 : dim + 1] - js[dim + 1 :]).reshape(dim, -1)
        return float(np.vdot(d, d).real), (slopes @ d.conj().reshape(-1)).real

    return objective


_GONE = object()   # the condition of a template gate that a lower-rank compile leaves out


def fit(
    t: Template,
    target: KrausSet,
    starts: int = 20,
    max_iters: int = 6000,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[list[float], float]:
    """Parameters realizing the channel, and their Choi distance.

    When the target's measured compile at k = ceil(log2 max_rank) has
    the template's gate structure (T11, T12 and T22, the compile
    skeletons), its angles are returned if they reach `tol`, which one
    evaluation of the template checks.  A target of
    rank below 2^k compiles without the outcome prefixes that cannot
    happen, and reads fewer registers elsewhere (`outcome_conditions`):
    the template's conditions are mapped alike, and its gates under those
    prefixes keep zero angles.  Otherwise, and always for T21, which no
    compile matches, a multi-start L-BFGS-B search minimizes
    f = ||J - J_target||_F^2 from seeded uniform random starts, stops at
    the first start reaching `tol`, else returns the best; the compiled
    angles do not enter it.
    """
    if (target.m, target.n) != (t.m, t.n):
        raise ValueError(f"{t.id} expects a {t.m}->{t.n} channel")
    rank = minimal_kraus(target).K
    if rank > t.max_rank:
        raise ValueError(f"{t.id} handles Kraus rank <= {t.max_rank}")
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts}")
    j_target = choi_from_kraus(target).j
    k = math.ceil(math.log2(t.max_rank))
    c = compile_measured(target, force_k=k)
    full, own = outcome_conditions(k, 2**k), outcome_conditions(k, rank)
    renamed = {full[d][j]: level.get(j, _GONE) for d, level in enumerate(own) for j in full[d]}
    mapped = [(g, renamed.get(g.condition, g.condition)) for g in t.circuit.gates]
    structure = [(g.kind, g.qubits, g.creg, cond) for g, cond in mapped if cond is not _GONE]
    if structure == [(g.kind, g.qubits, g.creg, g.condition) for g in c.gates]:
        params = iter(c.gates)
        x0 = np.array([x for g, cond in mapped
                       for x in (g.params if cond is _GONE else next(params).params)])[_kept(t)]
        start = expand_reduced(t, x0)
        d = template_choi(t, start) - j_target
        dist = math.sqrt(np.vdot(d, d).real)
        if dist < tol:
            return start.tolist(), dist

    objective = _objective(t, j_target)
    rng = np.random.default_rng(seed)
    best_val, best_x = math.inf, None
    for _ in range(starts):
        res = minimize(objective, rng.uniform(-math.pi, math.pi, reduced_dim(t)), jac=True,
                       method="L-BFGS-B",
                       options=dict(maxiter=max_iters, ftol=0.0, gtol=1e-14))
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
        if math.sqrt(best_val) < tol:
            break
    return expand_reduced(t, best_x).tolist(), math.sqrt(best_val)
