"""Channel-preserving peephole passes.

Two rewrites, both exact identities on the induced channel:

  * a unitary whose entire forward light-cone ends in disposed qubits
    (traced out, or measured into a register nobody reads) can go;
  * a CNOT whose control is about to be measured can be replaced by a
    classically conditioned X after the measurement.

The liveness analysis is a single backward scan with a per-qubit live
bit mask; it is conservative (may keep removable gates) but never
unsound.  Both passes return their input circuit when they change
nothing.
"""

from __future__ import annotations

from .circuit import CNOT, MEASURE, RESET, TRACE, X, Circuit, Gate


def _conditioned_registers(gates) -> set[int]:
    used = set()
    for g in gates:
        if g.condition:
            used.update(r for r, _ in g.condition)
    return used


def _drop_dead_once(gates, outputs) -> tuple:
    """The gates without the unitaries whose forward light-cone is
    disposed; `gates` itself when there are none."""
    used_regs = _conditioned_registers(gates)
    live = 0
    for q in outputs:
        live |= 1 << q
    kept_rev = []
    for g in reversed(gates):
        kind, qubits = g.kind, g.qubits
        if kind == TRACE:
            live &= ~(1 << qubits[0])
            kept_rev.append(g)
        elif kind == MEASURE:
            if g.creg in used_regs:
                live |= 1 << qubits[0]
            kept_rev.append(g)
        elif kind == RESET:
            kept_rev.append(g)
        else:
            touched = 1 << qubits[0]
            if len(qubits) == 2:
                touched |= 1 << qubits[1]
            if live & touched:
                live |= touched
                kept_rev.append(g)
            # else: forward cone fully disposed; drop
    if len(kept_rev) == len(gates):
        return gates
    return tuple(reversed(kept_rev))


def drop_dead_unitaries(c: Circuit) -> Circuit:
    """Remove unitary gates that only feed disposed qubits.

    Iterates to a fixpoint: dropping a conditioned gate can orphan the
    register it read, which in turn kills the measured qubit.
    """
    gates = c.gates
    while True:
        new = _drop_dead_once(gates, c.output_qubits)
        if new is gates:
            break
        gates = new
    if gates is c.gates:
        return c
    return Circuit(c.num_qubits, c.input_qubits, c.output_qubits,
                   gates, c.num_cregs)


def _find_classicalizable(gates) -> tuple[int, int] | None:
    """First (cnot_index, measure_index) pair matching the rewrite pattern."""
    for i, g in enumerate(gates):
        if g.kind != CNOT:
            continue
        ctrl, tgt = g.qubits
        for j in range(i + 1, len(gates)):
            h = gates[j]
            if tgt in h.qubits:
                break
            if ctrl not in h.qubits:
                continue
            if h.kind == MEASURE:
                return i, j
            break
    return None


def classicalize_controls(c: Circuit) -> Circuit:
    """Commute CNOT controls through the measurement that follows them.

    Each rewrite deletes the CNOT and inserts, right after the MEASURE,
    an X on the former target conditioned on the outcome (merged with
    the CNOT's own condition).  Repeats until no pattern remains.
    """
    gates = list(c.gates)
    changed = False
    while True:
        hit = _find_classicalizable(gates)
        if hit is None:
            break
        changed = True
        i, j = hit
        cnot = gates.pop(i)
        j -= 1
        meas = gates[j]
        fix = Gate(X, (cnot.qubits[1],),
                   condition=tuple(cnot.condition or ()) + ((meas.creg, 1),))
        gates.insert(j + 1, fix)
    if not changed:
        return c
    return Circuit(c.num_qubits, c.input_qubits, c.output_qubits,
                   tuple(gates), c.num_cregs)


def standard_passes(c: Circuit) -> Circuit:
    """Both rewrites in their intended order."""
    return classicalize_controls(drop_dead_unitaries(c))
