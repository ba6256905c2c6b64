"""Fixed circuit topologies with free parameters, and a numerical fitter.

Four templates cover channels between one and two qubits with the
exact small-case CNOT counts 1, 4, 7 and 13 (the conditioned blocks
appear once per measurement outcome, so the worst case over classical
assignments is the per-branch count).  `fit` searches the parameter
space with multi-start Nelder-Mead, minimizing the squared Frobenius
distance between Choi matrices.

Transcription conventions: qubit 0 is the most significant wire, the
measured ancilla sits on top, and two-qubit unitary slots are expanded
into standard 2- or 3-CNOT blocks with single-qubit gates around them.
Where a figure leaves a single-qubit gate placement open we keep the
more general placement; extra parameters cost nothing in CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, choi_from_kraus, kraus_rank
from .circuit import CNOT, MEASURE, RESET, U, X, Circuit, Gate

_CNOT4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

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
        per_branch: dict = {}
        base = 0
        for e in self.elements:
            if e[0] != "CNOT":
                continue
            cond = e[3]
            if cond is None:
                base += 1
            else:
                per_branch[cond] = per_branch.get(cond, 0) + 1
        return base + (max(per_branch.values()) if per_branch else 0)


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
        if kind == "U":
            gates.append(Gate(U, (e[1],), (next(it), next(it), next(it), next(it)),
                              condition=e[2]))
        elif kind in ("RY", "RZ"):
            gates.append(Gate(kind, (e[1],), (next(it),), condition=e[2]))
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


def reduced_dim(t: Template) -> int:
    return sum(3 if r == "U3" else 2 if r == "U2" else 1 for r in t.reduced_spec)


def expand_reduced(t: Template, reduced) -> list[float]:
    """Map optimizer coordinates to full template parameters.

    U slots acting on a freshly prepared |0> keep two angles (beta,
    gamma); other U slots keep three (global phase is per-branch and
    cancels in the Choi matrix); rotations keep their angle.
    """
    it = iter(float(x) for x in reduced)
    full = []
    for role in t.reduced_spec:
        if role == "U3":
            full.extend((0.0, next(it), next(it), next(it)))
        elif role == "U2":
            full.extend((0.0, next(it), next(it), 0.0))
        else:
            full.append(next(it))
    return full


# --- fast channel evaluation for the fitted templates ---------------------


def _vec(b: np.ndarray) -> np.ndarray:
    return b.T.reshape(-1)


def _u2(a: float, b: float, g: float, d: float) -> np.ndarray:
    """u_matrix by its closed form; avoids three 2x2 matmuls."""
    c, s = math.cos(g / 2), math.sin(g / 2)
    ea = complex(math.cos(a), math.sin(a))
    half_sum = (b + d) / 2
    half_diff = (b - d) / 2
    esum = complex(math.cos(half_sum), -math.sin(half_sum))
    ediff = complex(math.cos(half_diff), -math.sin(half_diff))
    return np.array(
        [[ea * c * esum, -ea * s * ediff],
         [ea * s * ediff.conjugate(), ea * c * esum.conjugate()]]
    )


def _ry2(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty((4, 4), dtype=complex)
    out[:2, :2] = a[0, 0] * b
    out[:2, 2:] = a[0, 1] * b
    out[2:, :2] = a[1, 0] * b
    out[2:, 2:] = a[1, 1] * b
    return out


def _t11_choi(params) -> np.ndarray:
    u0 = _u2(*params[0:4])
    u1 = _u2(*params[4:8])
    rot = _kron2(_ry2(params[8]), _ry2(params[9]))
    u4 = _u2(*params[10:14])
    m = rot @ (_CNOT4 @ _kron2(u0, u1)[:, 0:2])
    j = np.zeros((4, 4), dtype=complex)
    for b in (0, 1):
        w = m[2 * b : 2 * b + 2, :]
        if b:
            w = w[::-1, :]  # classically controlled X
        v = _vec(u4 @ w)
        j += np.outer(v, v.conj())
    return j


def _iso12_matrix(params) -> np.ndarray:
    front = _kron2(_u2(*params[0:4]), _u2(*params[4:8]))
    rot = _kron2(_ry2(params[8]), _ry2(params[9]))
    back = _kron2(_u2(*params[10:14]), _u2(*params[14:18]))
    return back @ (_CNOT4 @ (rot @ (_CNOT4 @ front)))


def _t12_choi(params) -> np.ndarray:
    stage = _iso12_matrix(params[0:18])[:, 0:2]
    j = np.zeros((8, 8), dtype=complex)
    for b in (0, 1):
        w = stage[2 * b : 2 * b + 2, :]
        block = _iso12_matrix(params[18 + 18 * b : 36 + 18 * b])
        bb = block[:, 0:2] @ w
        v = _vec(bb)
        j += np.outer(v, v.conj())
    return j


_FAST_CHOI = {"T11": _t11_choi, "T12": _t12_choi}


def template_choi(t: Template, params) -> np.ndarray:
    """Choi matrix of the instantiated template (fast path if available)."""
    fn = _FAST_CHOI.get(t.id)
    if fn is not None:
        return fn(list(float(x) for x in params))
    from .simulator import circuit_to_kraus

    return choi_from_kraus(circuit_to_kraus(instantiate(t, params))).j


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first fit rather than with
    the package: scipy.optimize takes longer to import than everything
    else a CLI call does."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _nelder_mead(objective, x0, max_iters: int):
    return minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options=dict(maxiter=max_iters, xatol=1e-11, fatol=1e-16, adaptive=True),
    )


def _subfit_iso12(target: np.ndarray, rng, starts: int = 10, max_iters: int = 2000):
    """Match the 2-CNOT stage topology to a 4x2 isometry, up to phase."""

    def expand(xs):
        return [0.0, xs[0], xs[1], 0.0,
                0.0, xs[2], xs[3], xs[4],
                xs[5], xs[6],
                0.0, xs[7], xs[8], xs[9],
                0.0, xs[10], xs[11], xs[12]]

    def obj(xs) -> float:
        s = _iso12_matrix(expand(xs))[:, :2]
        ov = np.vdot(s, target)  # tr(s^dag target)
        ph = ov.conjugate() / abs(ov) if abs(ov) > 0.0 else 1.0
        d = s - ph * target
        return float(np.vdot(d, d).real)

    best = (math.inf, None)
    for _ in range(starts):
        res = _nelder_mead(obj, rng.uniform(-math.pi, math.pi, 13), max_iters)
        if res.fun < best[0]:
            best = (res.fun, res.x)
        if best[0] < 1e-14:
            break
    return expand(best[1])


def _structured_starts(t: Template, target: KrausSet, rng) -> list[np.ndarray]:
    """Template-specific initial guesses assembled from the compile plan.

    For the one-to-two template the QR recursion hands us the stage
    isometry and the two residuals directly; matching each block
    separately is three small searches instead of one large one, and
    the per-block phase freedom cancels in the channel.
    """
    if t.id != "T12":
        return []
    from .compiler import plan_measured

    plan = plan_measured(target)
    if plan.k_tilde != 1 or set(plan.finals) != {"0", "1"}:
        return []
    full = (
        _subfit_iso12(plan.stages[0][""], rng)
        + _subfit_iso12(plan.finals["0"], rng)
        + _subfit_iso12(plan.finals["1"], rng)
    )
    reduced = []
    it = iter(full)
    for role in t.reduced_spec:
        if role == "R":
            reduced.append(next(it))
        else:
            vals = [next(it) for _ in range(4)]
            reduced.extend(vals[1:4] if role == "U3" else vals[1:3])
    return [np.array(reduced)]


def fit(
    t: Template,
    target: KrausSet,
    starts: int = 20,
    max_iters: int = 6000,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[list[float], float]:
    """Multi-start simplex search for parameters realizing the channel.

    Structured guesses derived from the compiler's QR factors are tried
    first where the template supports them, then seeded random starts.
    The search stops at the first start reaching `tol`, otherwise
    returns the best over all starts.  Restarting the simplex at the
    incumbent a couple of times helps it out of collapsed configurations.
    """
    if (target.m, target.n) != (t.m, t.n):
        raise ValueError(f"{t.id} expects a {t.m}->{t.n} channel")
    if kraus_rank(target) > t.max_rank:
        raise ValueError(f"{t.id} handles Kraus rank <= {t.max_rank}")
    jt = choi_from_kraus(target).j
    dim = reduced_dim(t)

    def objective(xs) -> float:
        d = template_choi(t, expand_reduced(t, xs)) - jt
        return float(np.vdot(d, d).real)

    rng = np.random.default_rng(seed)
    guesses = _structured_starts(t, target, rng)
    best_val, best_x = math.inf, None
    for s in range(starts):
        x = guesses[s] if s < len(guesses) else rng.uniform(-math.pi, math.pi, dim)
        val = objective(x)
        for _ in range(3):  # simplex restarts at the incumbent
            if math.sqrt(max(val, 0.0)) < tol:
                break
            res = _nelder_mead(objective, x, max_iters)
            if res.fun >= val * 0.999999:
                if res.fun < val:
                    val, x = res.fun, res.x
                break
            val, x = res.fun, res.x
        if val < best_val:
            best_val, best_x = val, x
        if math.sqrt(max(best_val, 0.0)) < tol:
            break
    return expand_reduced(t, best_x), math.sqrt(max(best_val, 0.0))
