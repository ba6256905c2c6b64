"""Channel-preserving peephole passes.

Two rewrites, both exact identities on the induced channel:

  * a unitary whose entire forward light-cone ends in disposed qubits
    (traced out, or measured into a register nobody reads) can go;
  * a CNOT whose control is about to be measured can be replaced by a
    classically conditioned X after the measurement.

Each pass is one backward scan over the gate tuple.  When the scan
reaches a gate, every later gate is already decided: its liveness, the
registers that kept gates read and the next gate on each qubit are
settled, so a second scan or a restart would find nothing more.  This
equals repeating each pass to a fixpoint on every circuit whose
conditions read a register only after its MEASURE, as
`simulator.static_plan` requires.  Liveness is conservative (it may
keep removable gates) but never unsound.  Both passes return their
input circuit when they change nothing.

Compiled circuits are already their fixed point (the compiler leaves such
gates out), so the passes serve hand-built and parsed circuits.
"""

from __future__ import annotations

from .circuit import CNOT, MEASURE, RESET, TRACE, X, Circuit, Gate


def drop_dead_unitaries(c: Circuit) -> Circuit:
    """Remove unitary gates that only feed disposed qubits.  A MEASURE
    keeps its qubit live only if a kept later gate reads its register."""
    live = 0
    for q in c.output_qubits:
        live |= 1 << q
    read, kept_rev = set(), []
    for g in reversed(c.gates):
        kind, qubits = g.kind, g.qubits
        if kind == TRACE:
            live &= ~(1 << qubits[0])
        elif kind == MEASURE:
            if g.creg in read:
                live |= 1 << qubits[0]
        elif kind != RESET:
            touched = 1 << qubits[0]
            if len(qubits) == 2:
                touched |= 1 << qubits[1]
            if not live & touched:
                continue   # forward cone fully disposed; drop
            live |= touched
            if g.condition:
                for r, _ in g.condition:
                    read.add(r)
        kept_rev.append(g)
    if len(kept_rev) == len(c.gates):
        return c
    return Circuit(c.num_qubits, c.input_qubits, c.output_qubits,
                   tuple(reversed(kept_rev)), c.num_cregs)


def classicalize_controls(c: Circuit) -> Circuit:
    """Commute CNOT controls through the measurement that follows them.

    A CNOT goes when the next gate on its control is a MEASURE and the
    next gate on its target comes later.  An X on the former target,
    conditioned on the outcome (merged with the CNOT's own condition),
    follows that MEASURE, and counts as sitting between it and the gate
    after it; the X gates of one MEASURE keep their CNOTs' order.
    """
    gates = c.gates
    nxt = [len(gates)] * c.num_qubits   # position of each qubit's next kept gate
    measures, gone, fixes = {}, set(), {}   # fixes: MEASURE position -> X gates, last first
    for i in range(len(gates) - 1, -1, -1):
        g = gates[i]
        if g.kind == CNOT:
            ctrl, tgt = g.qubits
            j = nxt[ctrl]
            if j in measures and nxt[tgt] > j:
                gone.add(i)
                cond = tuple(g.condition or ()) + ((measures[j].creg, 1),)
                fixes.setdefault(j, []).append(Gate(X, (tgt,), condition=cond))
                nxt[tgt] = j + 0.5
                continue
        elif g.kind == MEASURE:
            measures[i] = g
        for q in g.qubits:
            nxt[q] = i
    if not gone:
        return c
    new = []
    for i, g in enumerate(gates):
        if i not in gone:
            new.append(g)
            new.extend(reversed(fixes.get(i, ())))
    return Circuit(c.num_qubits, c.input_qubits, c.output_qubits,
                   tuple(new), c.num_cregs)


def standard_passes(c: Circuit) -> Circuit:
    """Both rewrites in their intended order."""
    return classicalize_controls(drop_dead_unitaries(c))
