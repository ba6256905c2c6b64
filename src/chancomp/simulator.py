"""Exact circuit simulation: unitaries, branch operators, channels.

Measured circuits are evaluated once per measurement-outcome string
(2^#measures branches).  Qubits that end the circuit traced out, or
simply undeclared as outputs, are summed out by treating their final
basis value as an extra branch index.  This recovers the implemented
Kraus operators directly, which is what the compiler's verification
needs.  The branch matrices are dense: a circuit whose qubits, inputs
and measurements add up to more than `MAX_DENSE_QUBITS` is refused.

Simulation takes two steps, and this module is the one place that
interprets the circuit's classical semantics.  `static_plan` reads the
gate structure: each gate's kind, qubits, register and condition, never
its angles.  It checks that no register is written twice, that no
condition reads a register before it is written and that every RESET
follows a MEASURE of its qubit that no gate has touched since in any
branch; it fuses runs and merges segments; it resolves each condition
and each RESET to the branches it acts on; it lays out, from the gate
kinds, where a vector of the circuit's angles goes in the single-qubit
matrices.  One plan is built per structure and cached, so circuits that
differ only in their angles share it (a measured compile's structure
depends on the channel's shape alone); the plan holds no gates and its
arrays are read-only.  `run_plan` evaluates the plan on a stack of B
angle vectors at once, the branches being one more array axis:
measurement i is the i-th most significant bit of a branch index, so
branches come in sorted outcome order.  The circuit functions below
evaluate B = 1 on the circuit's own angles; the template fitter
evaluates B parameter vectors of one template.

A run is a maximal stretch of consecutive unitary gates under one
condition that act on one target t: single-qubit gates on t and CNOTs
onto t.  It leaves every other bit alone, so for each pattern x of those
bits it is a 2x2 matrix on t, which the run turns into one pair update
(`circuit.update_pairs`, the synthesizer's kernel).  The CNOTs between
two gates flip t where popcount(x & f) is odd, f the XOR of their
control masks, so the product depends on x only through those parities:
a pairwise reduction over the run's gates (`_run_product`) keeps one
matrix per block and assignment of the bits its flips read, a few
batched products in all.  A run of CNOTs alone, and a RESET's X, is a
row permutation.  Each uniformly controlled gate or Gray-code
multiplexor emitted is one run.

A segment is a maximal stretch of runs under one condition with no
MEASURE or RESET inside.  A measured circuit conditions each block on
the outcomes so far, so consecutive segments often have the same runs,
target for target and CNOT mask for CNOT mask, differing only in their
single-qubit kinds and angles, and in their conditions, which need not
read the same registers (a compile leaves registers out where an outcome
cannot happen).  Such segments merge into one group when the branch sets
they fire in are pairwise disjoint: each run position of the group (or
pair window, below) is one op on the union of those branches, one
`_run_product` over every member's gathered matrices and one pair
update in which each branch takes the product of the member that fires
there.  No branch sees two members, so each branch still sees its gates
in circuit order.
Disjointness is checked on the branch sets themselves, not on the
condition values: a value that comes back (s = 0, 1, 0) starts a new
group.  A segment that fires nowhere makes no op.

A pair window is a maximal stretch of consecutive run positions of one
group whose gates all act within one qubit pair (a, b): gates on a and on
b between CNOTs either way, the shape of the two-qubit Shannon leaves.
Its gates touch only the pair, so its 4x4 is the same for every pattern
of the other qubits, and one update of every branch the group selects
applies it, each branch taking the 4x4 of the member that fires there.
It stays inside one group, same branches and same members, so each branch
still sees its gates in circuit order.  The plan keeps each member's
gates as layers between CNOTs; an evaluation builds every window's 4x4
at once for the whole stack (`_window_products`), layer by layer, all of
it elementwise, so no result depends on the stack or the thread count.
A stretch that fits no pair (a multiplexor with two or more controls)
stays one op per run position, and so does a stretch of two runs in a
lone segment, where building and applying the 4x4 costs about as much
as the two run ops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from operator import attrgetter

import numpy as np

from .circuit import (
    CNOT,
    MEASURE,
    RESET,
    UNITARY_KINDS,
    X_MATRIX,
    Circuit,
    angle_layout,
    u_matrices,
    update_pairs,
)
from .channel import KrausSet
from .linalg import MAX_DENSE_ENTRIES, MAX_DENSE_QUBITS

_PRUNE_NORM = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, read-only: a cached plan's arrays are shared by every circuit of
    its structure."""
    a.flags.writeable = False
    return a


def input_embedding(p: int, inputs: tuple[int, ...], measures: int) -> np.ndarray:
    """2^p x 2^m matrix sending the basis states of the m input qubits
    into the p-qubit register.

    inputs[0] carries the most significant input bit; every other qubit
    starts in |0>.  Rejects a circuit whose branch matrices, one 2^p x 2^m
    per outcome string of its `measures` measurements, would together
    pass the dense cap.
    """
    m = len(inputs)
    if p + m + measures > MAX_DENSE_QUBITS:
        raise ValueError(f"simulating {p} qubits, {m} inputs and {measures} measurements "
                         f"exceeds the cap of {MAX_DENSE_ENTRIES} dense matrix entries")
    e = np.zeros((2**p, 2**m), dtype=np.complex128)
    for j in range(2**m):
        pos = 0
        for t, q in enumerate(inputs):
            bit = (j >> (m - 1 - t)) & 1
            pos |= bit << (p - 1 - q)
        e[pos, j] = 1.0
    return e


@lru_cache(maxsize=None)
def _parity(p: int) -> np.ndarray:
    """popcount(v) & 1 for every p-bit value v, as a read-only bool table."""
    par = np.zeros(1, dtype=bool)
    for _ in range(p):
        par = np.concatenate([par, ~par])
    par.flags.writeable = False
    return par


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
    """Per set b and pattern x, X^(end) mats[b, r-1] X^(f_{r-2}) ... X^(f_0)
    mats[b, 0] X^(lead), where X^(f) is X if popcount(x & f) is odd and I if
    not (`_run_plan`): a pairwise reduction, one batched product per level."""
    levels, index, lead, end = plan
    blocks = mats[:, :, None]            # (set, block, assignment, 2, 2)
    for pad, odd in levels:
        if pad:
            eye = np.broadcast_to(np.eye(2), blocks[:, :1].shape)
            blocks = np.concatenate([blocks, eye], axis=1)
        first = blocks[:, 0::2, None]
        both = _matmul2(blocks[:, 1::2, None], np.where(odd, first[..., ::-1, :], first))
        blocks = both.reshape(both.shape[:2] + (-1, 2, 2))
    out = blocks[:, 0, index]
    if lead is not None:
        out = np.where(lead, out[..., ::-1], out)
    return out if end is None else np.where(end, out[..., ::-1, :], out)


def _window_products(mats: np.ndarray, slots: tuple, steps: tuple) -> np.ndarray:
    """Every window's 4x4, (B, windows, 4, 4), for a (B, gates, 2, 2)
    stack of single-qubit matrices (`_pair_tables`): each factor's 2x2
    product, slot by slot; at step 0 the Kronecker product of each
    window's two factors; at each later step the window so far with its
    CNOT's rows permuted, then its layer's factor on b and on a applied
    as 2x2 products, all of it elementwise (no BLAS call).  The work
    arrays hold the stack innermost, so that each ufunc runs over it."""
    m = mats.transpose(2, 1, 3, 0)   # (row, gate, column, B)
    nf = len(slots[0]) if slots else 0
    f = np.empty((2, nf + 1, 2, len(mats)), dtype=np.complex128)
    f[:, nf] = np.eye(2)[:, :, None]
    for s, idx in enumerate(slots):   # `_matmul2`, the matrix axes first
        g, done = m[:, idx], f[:, :len(idx)]
        f[:, :len(idx)] = g if s == 0 else g[:, :, 0:1] * done[0:1] + g[:, :, 1:2] * done[1:2]
    for n, hi, lo, rows in steps:
        a, b = f[:, hi], f[:, lo]
        if rows is None:
            out = (a[:, None, :, :, None] * b[None, :, :, None, :]).reshape(4, n, 4, -1)
            continue
        y = out[rows, np.arange(n)].reshape(2, 2, n, 4, -1)   # (r_a, r_b, window, column, B)
        z = b[None, :, :, 0, None] * y[:, None, 0] + b[None, :, :, 1, None] * y[:, None, 1]
        x = a[:, None, :, 0, None] * z[0] + a[:, None, :, 1, None] * z[1]
        out[:, :n] = x.reshape(4, n, 4, -1)
    return np.ascontiguousarray(out.transpose(3, 1, 0, 2))


def _run_op(p: int, specs: list, sel, owner) -> tuple:
    """The plan op of one run position of a group's members, specs holding
    each member's [branches, target, key, first gate, masks, m_end] (see
    `static_plan`): ("run", sel, bit, gather, owner, run plan) or, for a run
    of CNOTs alone, ("perm", sel, rows).  The members' flips are equal, so
    they share the run plan; gather holds each member's gate indices."""
    _, target, _, first, masks, m_end = specs[0]
    b = p - 1 - target
    if not masks:
        rows = np.arange(1 << p)
        return "perm", sel, _frozen(np.where(_parity(p)[rows & m_end], rows ^ (1 << b), rows))
    n = len(masks)
    gather = (slice(first, first + n) if len(specs) == 1
              else _frozen(np.array([s[3] for s in specs])[:, None] + np.arange(n)))
    low = (1 << b) - 1
    m = [((x >> (b + 1)) << b) | (x & low) for x in masks + [m_end]]   # drop bit b
    flips = tuple(f ^ g for f, g in zip(m[1:-1], m[:-2]))
    return "run", sel, b, gather, owner, _run_plan(flips, m[0], m[-1] ^ m[-2], p - 1)


def _same_shape(a: list, b: list) -> bool:
    """Whether two segments' runs have the same targets and CNOT masks,
    gate for gate."""
    return len(a) == len(b) and all(x[1] == y[1] and x[5] == y[5] and x[4] == y[4]
                                    for x, y in zip(a, b))


def _stretches(p: int, positions: list) -> list:
    """Greedy maximal stretches of consecutive run positions whose gates
    act within two qubits: a run reads its target and the controls of its
    flips (the bits of its masks); the members share both."""
    out = []
    for specs in positions:
        _, t, _, _, masks, m_end = specs[0]
        own = 1 << (p - 1 - t) | m_end
        for m in masks:
            own |= m
        if out and (out[-1][0] | own).bit_count() <= 2:
            out[-1][0] |= own
            out[-1][1].append(specs)
        else:
            out.append([own, [specs]])
    return out


def _pair_op(p: int, bits: int, stretch: list, sel, owner, windows: list) -> tuple:
    """The pair op of a stretch of run positions on the qubits a < b of
    the row bits `bits`: each member's gates become one window, appended
    to `windows` as (CNOT directions, layers), a layer being the gate
    indices on a and on b between two CNOTs.  A run's CNOTs are where its
    masks change."""
    a, b = (q for q in range(p) if (bits >> (p - 1 - q)) & 1)
    kinds, layers = [], [([], [])]   # gates as (run position, offset in its run)
    for r, specs in enumerate(stretch):
        _, t, _, _, masks, m_end = specs[0]
        prev = 0
        for i, m in enumerate(masks + [m_end]):
            if m != prev:
                kinds.append(int(t == a))
                layers.append(([], []))
                prev = m
            if i < len(masks):
                layers[-1][t == b].append((r, i))
    start = len(windows)
    for k in range(len(stretch[0])):
        first = [specs[k][3] for specs in stretch]
        windows.append((kinds, [tuple([first[r] + i for r, i in side] for side in layer)
                                for layer in layers]))
    dims = (1 << a, 1 << (b - a - 1), 1 << (p - 1 - b))
    return "pair", sel, dims, (start, len(stretch[0])), owner


def _group_ops(p: int, group: list, owner, windows: list) -> list:
    """The plan ops of a group of segments: a pair op per stretch of run
    positions on two qubits, a run op per other position.  A stretch of
    two takes a window only in a group of two or more segments, where
    the window also saves every member's gather; in a lone segment it
    costs about as much as its two run ops."""
    if len(group) == 1:
        sel, owner, least = group[0][0][0], slice(None), 3
    else:
        sel, least = _branches(owner >= 0), 2
        owner = _frozen(owner[sel])
    ops = []
    for bits, stretch in _stretches(p, list(zip(*group))):
        if len(stretch) >= least and bits.bit_count() == 2:
            ops.append(_pair_op(p, bits, stretch, sel, owner, windows))
        else:
            ops += [_run_op(p, list(specs), sel, owner) for specs in stretch]
    return ops


# A CNOT within a pair, as the row permutation of the pair's 4x4, row
# 2 bit_a + bit_b for qubits a < b: row r of P W is row rows[r] of W.
_CNOT_ROWS = ((0, 1, 3, 2), (0, 3, 2, 1))   # a onto b, b onto a


def _pair_tables(windows: list) -> tuple:
    """Read-only tables that build every window's 4x4 at once, and each
    window's place in them.

    Windows are placed by CNOT count, most first, so the windows that
    reach step j of the chain are a prefix.  A factor is the gates of one
    layer on one qubit; factors are placed by length, longest first, so
    slot s (the factors' s-th gates) is a prefix too.  Step j holds, per
    window, the factors of its layer j on a and on b (the index past the
    last factor for none: the identity) and, from step 1 on, the flat
    rows of its CNOT j."""
    order = sorted(range(len(windows)), key=lambda w: -len(windows[w][0]))
    factors = sorted((((x, j, side), g) for x, w in enumerate(order)
                      for j, layer in enumerate(windows[w][1])
                      for side, g in enumerate(layer) if g), key=lambda f: -len(f[1]))
    ids = {key: i for i, (key, _) in enumerate(factors)}
    slots = tuple(_frozen(np.array([g[s] for _, g in factors if len(g) > s]))
                  for s in range(len(factors[0][1]) if factors else 0))
    steps = []
    for j in range(len(windows[order[0]][0]) + 1 if windows else 0):
        reach = [windows[w][0] for w in order if len(windows[w][0]) >= j]
        hi, lo = (_frozen(np.array([ids.get((x, j, side), len(factors))
                                    for x in range(len(reach))])) for side in (0, 1))
        rows = (None if j == 0 else
                _frozen(np.array([_CNOT_ROWS[kinds[j - 1]] for kinds in reach]).T))
        steps.append((len(reach), hi, lo, rows))
    rank = np.empty(len(windows), dtype=int)
    rank[order] = np.arange(len(windows))
    return (slots, tuple(steps)), rank


def _branches(hold: np.ndarray):
    """The branches where `hold` is nonzero: a slice when they are evenly
    spaced (all of them, an outcome prefix, a RESET's half), so that ops
    act on a view, else their indices; None for none."""
    idx = np.flatnonzero(hold).tolist()
    if not idx:
        return None
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if idx == list(range(idx[0], idx[-1] + 1, step)):
        return slice(idx[0], idx[-1] + 1, step)
    return _frozen(np.array(idx))


def _fired(cond, written: dict, nm: int):
    """The `_branches`, after nm measurements, where every (register,
    bit) of `cond` holds.  Reading a register that is not written yet is
    an error in any branch where the pairs before it hold."""
    if not cond:
        return slice(None)
    branch = np.arange(1 << nm)
    hold = np.ones(1 << nm, dtype=bool)
    for r, v in cond:
        if r not in written:
            if hold.any():
                raise ValueError(f"condition references register c{r} before it is written")
            break
        hold &= ((branch >> (nm - 1 - written[r])) & 1) == v
    return _branches(hold)


@dataclass(frozen=True, eq=False)
class Plan:
    """The static pass over a circuit's gate structure (see the module
    docstring).  It holds no gates: it is shared by every circuit of one
    structure, and its arrays are read-only.

    The evaluation takes the circuit's angles in gate order and turns
    them into one matrix per single-qubit unitary gate, those that fire
    in no branch included, through the angle layout of the gate kinds
    (`circuit.angle_layout`): the flat U angles `fixed`, the entries
    `fills` that the angles fill, and `x_mask`, the gates whose matrix is
    set to X exactly.  Each op is one of:
    ("run", branches, bit, gather, owner, run plan), one run position of a
    group of segments fused into one pair update on bit `bit` of the row
    index: member k's gates are gather[k] (for a lone segment, gather is
    the slice of its gates and owner slice(None)), and the i-th branch of
    `branches` takes the product of member owner[i]; ("pair", branches,
    (2^a, 2^(b - a - 1), 2^(p - 1 - b)), windows, owner), a pair window on
    qubits a < b: member k's 4x4 is window windows.start + k of the
    plan's `windows`, the (slots, steps) tables `_window_products` builds
    them from (`_pair_tables`); ("perm", branches, rows), a row permutation; or
    ("measure", masks), which splits every branch into outcomes 0 and 1.
    `branches` indexes the branch axis (`_branches`).  out_rows[y] are the
    rows where the disposed qubits read y, in the order of the outputs'
    value."""

    ops: tuple
    embedding: np.ndarray
    out_rows: np.ndarray
    measures: int
    fixed: np.ndarray
    fills: np.ndarray
    x_mask: np.ndarray
    windows: tuple


# The fields of a gate that its plan depends on: everything but the angles.
_STRUCTURE = attrgetter("kind", "qubits", "creg", "condition")


def static_plan(c: Circuit) -> Plan:
    """The plan of c's gate structure: built on the first call for that
    structure and looked up on every later one, from a cache of the 128
    structures used last.  A structure that fails a check raises on
    every call.  The cache keeps each structure as one flat tuple, four
    entries a gate, which takes a third of the memory of a tuple per gate."""
    return _structure_plan(c.num_qubits, c.input_qubits, c.output_qubits,
                           tuple(chain.from_iterable(map(_STRUCTURE, c.gates))))


@lru_cache(maxsize=128)
def _structure_plan(p: int, inputs: tuple, outputs: tuple, gates: tuple) -> Plan:
    """Check the classical semantics of a gate structure (the kind,
    qubits, creg and condition of each gate in turn, in one flat tuple),
    fuse its runs, resolve the branches each op acts on and lay out the
    angles of its single-qubit kinds.  It never sees an angle, so a
    cached plan cannot depend on one.

    Row masks: qubit q is bit p - 1 - q of a row index.  A run's spec
    collects, per single-qubit gate, the XOR of the control masks of the
    CNOTs before it (masks), and that of all of them (m_end).  `ops`
    holds the measure and RESET ops and the segments, lists of specs;
    the groups' pair ops collect their windows, which `_pair_tables` then
    places."""
    embedding = _frozen(input_embedding(p, inputs, gates[::4].count(MEASURE)))
    rows = np.arange(1 << p)
    singles, ops = [], []   # the single-qubit kinds, in order
    written = {}      # register -> index of the measurement that wrote it
    fresh = {}        # qubit -> index of its last measurement, while no gate touched it since
    selections = {}   # (condition, measurements so far) -> branches
    spec = None
    fields = iter(gates)
    for kind, qs, creg, condition in zip(fields, fields, fields, fields):
        if kind in UNITARY_KINDS:
            t = qs[-1]
            key = (condition or None, len(written))
            if spec is None or t != spec[1] or key != spec[2]:
                if key not in selections:
                    selections[key] = _fired(key[0], written, len(written))
                spec = [selections[key], t, key, len(singles), [], 0]
                if spec[0] is None:   # fires nowhere: no op
                    pass
                elif ops and type(ops[-1]) is list and ops[-1][-1][2] == key:
                    ops[-1].append(spec)
                else:
                    ops.append([spec])   # a new segment
            if fresh and spec[0] is not None:
                for q in qs:
                    fresh.pop(q, None)
            if kind == CNOT:
                spec[5] ^= 1 << (p - 1 - qs[0])
            else:
                spec[4].append(spec[5])
                singles.append(kind)
            continue
        spec = None
        q = qs[0]
        if kind == MEASURE:
            if creg in written:
                raise ValueError(f"register c{creg} written twice")
            fresh[q] = written[creg] = len(written)
            one = (rows >> (p - 1 - q)) & 1
            ops.append(("measure", _frozen(np.stack([one == 0, one == 1])[:, :, None])))
        elif kind == RESET:   # X where the qubit's last measurement gave 1
            if q not in fresh:
                raise ValueError("RESET without an immediately preceding MEASURE")
            nm = len(written)
            sel = _branches((np.arange(1 << nm) >> (nm - 1 - fresh.pop(q))) & 1)
            ops.append(("perm", sel, _frozen(rows ^ (1 << (p - 1 - q)))))
        else:   # TRACE
            fresh.pop(q, None)
    # group consecutive segments of one shape that fire in disjoint branches;
    # owner[i] is the member that fires in branch i, -1 for none
    plan_ops, group, owner, windows = [], [], None, []
    for x in ops + [None]:
        if type(x) is list and group and _same_shape(group[0], x):
            if owner is None:   # one entry per branch, key[1] being the measurements so far
                owner = np.full(1 << x[0][2][1], -1)
                owner[group[0][0][0]] = 0
            if (owner[x[0][0]] < 0).all():
                owner[x[0][0]] = len(group)
                group.append(x)
                continue
        if group:
            plan_ops += _group_ops(p, group, owner, windows)
        group, owner = [], None
        if type(x) is list:
            group = [x]
        elif x is not None:
            plan_ops.append(x)
    disposal = [q for q in range(p) if q not in outputs]
    out_rows = rows.reshape((2,) * p).transpose(disposal + list(outputs))
    out_rows = _frozen(out_rows.reshape(1 << len(disposal), -1))
    fixed, fills, x_mask = map(_frozen, angle_layout(singles))
    tables, rank = _pair_tables(windows)
    plan_ops = [op if op[0] != "pair" else op[:3] + (
        slice(rank[op[3][0]], rank[op[3][0]] + op[3][1]), op[4]) for op in plan_ops]
    return Plan(tuple(plan_ops), embedding, out_rows, len(written), fixed, fills, x_mask, tables)


def run_plan(plan: Plan, params) -> np.ndarray:
    """Evaluate a plan on a (B, angles) stack of B sets of a circuit's
    angles, each row the angles of the plan's structure in gate order.
    Returns the (B, branches x disposal values, 2^outputs, 2^inputs)
    branch operators, in sorted outcome order and by disposal value
    within an outcome."""
    params = np.asarray(params, dtype=np.float64)
    size = len(params)
    angles = np.broadcast_to(plan.fixed, (size,) + plan.fixed.shape).copy()
    angles[:, plan.fills] = params
    mats = u_matrices(angles.reshape(size, -1, 4))
    mats[:, plan.x_mask] = X_MATRIX
    pair_mats = _window_products(mats, *plan.windows) if plan.windows[1] else None
    state = np.broadcast_to(plan.embedding, (size, 1) + plan.embedding.shape).copy()
    for op in plan.ops:
        kind, sel = op[0], op[1]
        if kind == "measure":
            state = (state[:, :, None] * sel).reshape(size, -1, *state.shape[2:])
            continue
        part = state[:, sel]   # a view for a slice, updated in place
        if kind == "perm":
            state[:, sel] = part[:, :, op[2]]
            continue
        if kind == "pair":
            _, _, (hi, mid, low), win, owner = op
            t = part.reshape(part.shape[:2] + (hi, 2, mid, 2, low, part.shape[-1]))
            u = pair_mats[:, win][:, owner].reshape(size, -1, 1, 2, 2, 4, 1, 1, 1)
            u = [u[..., k, :, :, :] for k in range(4)]   # column k, as (.., hi, r_a, r_b, ..)
            c = [t[:, :, :, None, None, k >> 1, :, k & 1] for k in range(4)]
            # added pairwise in a fixed order, elementwise: no BLAS call, so
            # no result depends on the stack or the thread count
            new = (u[0] * c[0] + u[1] * c[1]) + (u[2] * c[2] + u[3] * c[3])
            t.transpose(0, 1, 2, 3, 5, 4, 6, 7)[...] = new
        else:
            _, _, b, gather, owner, rp = op
            each = mats[:, gather]
            prod = _run_product(each.reshape((-1,) + each.shape[-3:]), rp)
            update_pairs(part, b, prod.reshape((size, -1) + prod.shape[1:])[:, owner])
        if type(sel) is not slice:
            state[:, sel] = part
    return state[:, :, plan.out_rows].reshape(size, -1, *plan.out_rows.shape[1:], state.shape[-1])


def _branch_ops(c: Circuit) -> tuple[Plan, np.ndarray]:
    """The plan of c and its branch operators, on the circuit's own angles."""
    plan = static_plan(c)
    return plan, run_plan(plan, [[x for g in c.gates for x in g.params]])[0]


def simulate_unitary(c: Circuit) -> np.ndarray:
    """Total matrix of a measurement-free circuit, restricted to input columns."""
    for g in c.gates:
        if g.kind not in UNITARY_KINDS or g.condition:
            raise ValueError("simulate_unitary needs a purely unitary circuit")
    return _branch_ops(replace(c, output_qubits=range(c.num_qubits)))[1][0]


def circuit_to_kraus(c: Circuit) -> KrausSet:
    """The channel implemented by the circuit, from inputs to outputs.

    Branch operators of norm at most 1e-12 are dropped (one is kept if
    all are), so unreachable branches add no Kraus operators."""
    ops = _branch_ops(c)[1]
    kept = ops[np.linalg.norm(ops, axis=(1, 2)) > _PRUNE_NORM]
    return KrausSet(len(c.input_qubits), len(c.output_qubits), kept if len(kept) else ops[:1],
                    atol=1e-8)


def outcome_distribution(c: Circuit, state) -> dict[str, float]:
    """Probability of each measurement-outcome string for a pure input state."""
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    if psi.shape != (2 ** len(c.input_qubits),):
        raise ValueError("input state has wrong dimension")
    if not np.isfinite(psi).all():
        raise ValueError("input state must be finite")
    plan, ops = _branch_ops(c)
    nm = plan.measures
    probs = (np.abs(ops @ psi) ** 2).reshape(1 << nm, -1).sum(axis=1)
    # outcome b is measurement i in bit nm - 1 - i; no measurement is the outcome ""
    return {format(b, f"0{nm}b")[:nm]: float(x) for b, x in enumerate(probs)}
