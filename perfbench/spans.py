"""Span tracing around the calls into each chancomp module.

Each chancomp module imports the names it uses, so a function is wrapped
where its caller looks the name up: every module global (and package
attribute) bound to the traced function object is replaced by a timing
wrapper, and put back afterwards.  Nothing under ``src/`` changes.

A span records its name, its parent span, and its start and end time.
Spans stay in memory and are written out by ``Tracer.save`` when the
run ends.  A span's self time is its duration minus the time its child
spans cover.  Hooks run after a call to record counts at the same
boundary (gates emitted, gates dropped, bytes written, ...).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, defining module, function, caller module or None = every caller)
TARGETS = (
    ("compiler.compile", "chancomp.compiler", "compile_measured", None),
    ("compiler.compile", "chancomp.compiler", "compile_qcm", None),
    ("compiler.compile", "chancomp.compiler", "compile_random_qcm", None),
    ("compiler.plan", "chancomp.compiler", "plan_measured", None),
    ("compiler.verify", "chancomp.compiler", "verify_circuit", None),
    ("channel.min_kraus", "chancomp.channel", "kraus_from_choi", None),
    ("channel.choi", "chancomp.channel", "choi_from_kraus", None),
    ("linalg.qr", "chancomp.linalg", "qr_rectangular", None),
    ("synth.decompose", "chancomp.synth", "decompose_isometry", None),
    ("circuit.apply_gate.synth", "chancomp.circuit", "apply_unitary_gate", "chancomp.synth"),
    ("circuit.apply_gate.simulator", "chancomp.circuit", "apply_unitary_gate",
     "chancomp.simulator"),
    ("rewrite.passes", "chancomp.rewrite", "standard_passes", None),
    ("rewrite.drop_dead", "chancomp.rewrite", "drop_dead_unitaries", None),
    ("rewrite.classicalize", "chancomp.rewrite", "classicalize_controls", None),
    ("simulator.run", "chancomp.simulator", "circuit_to_kraus", None),
    ("circuit.serialize", "chancomp.circuit", "serialize", None),
    ("circuit.parse", "chancomp.circuit", "parse", None),
    ("templates.fit", "chancomp.templates", "fit", None),
    ("templates.choi", "chancomp.templates", "template_choi", None),
    ("templates.search", "chancomp.templates", "minimize", "chancomp.templates"),
)


def _cnots(circ) -> int:
    return sum(1 for g in circ.gates if g.kind == "CNOT")


def _measures(circ) -> int:
    return sum(1 for g in circ.gates if g.kind == "MEASURE")


class Tracer:
    """In-memory span recorder with per-name totals and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._child_time: list[float] = []
        self._stack: list[int] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._last_search_x = None
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            idx = len(self.span_name)
            parent = self._stack[-1] if self._stack else -1
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._child_time.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                dur = end - start
                self.span_start[idx] = start
                self.span_end[idx] = end
                if parent >= 0:
                    self._child_time[parent] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - self._child_time[idx]
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- counters recorded at the layer boundaries ---------------------

    def _hooks(self) -> dict:
        c = self.counts

        def decompose(args, circ):
            c["synth.cnots_emitted"] += _cnots(circ)
            c["synth.gates_emitted"] += len(circ.gates)

        def drop_dead(args, circ):
            c["rewrite.gates_dropped"] += len(args[0].gates) - len(circ.gates)

        def classicalize(args, circ):
            c["rewrite.cnots_classicalized"] += _cnots(args[0]) - _cnots(circ)

        def simulate(args, _):
            branches = 2 ** _measures(args[0])
            c["simulator.branches"] += branches
            c["simulator.gate_visits"] += branches * len(args[0].gates)

        def serialize(args, text):
            c["circuit.bytes"] += len(text.encode())

        def search(args, res):
            # A local search of fit's own objective from a point that is not
            # the previous search's result is a fresh start.
            fun = args[0] if args else None
            if getattr(fun, "__qualname__", "").startswith("fit."):
                x0 = args[1]
                if self._last_search_x is None or x0 is not self._last_search_x:
                    c["templates.starts_used"] += 1
                self._last_search_x = getattr(res, "x", None)

        return {
            "synth.decompose": decompose,
            "rewrite.drop_dead": drop_dead,
            "rewrite.classicalize": classicalize,
            "simulator.run": simulate,
            "circuit.serialize": serialize,
            "templates.search": search,
        }

    # --- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the loaded chancomp modules."""
        hooks = self._hooks()
        modules = {k: v for k, v in sys.modules.items()
                   if k == "chancomp" or k.startswith("chancomp.")}
        for name, home, attr, caller in TARGETS:
            home_mod = modules.get(home if caller is None else caller)
            fn = getattr(home_mod, attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn, hooks.get(name))
            scope = modules.values() if caller is None else (modules[caller],)
            for mod in scope:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    # --- output --------------------------------------------------------

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def merge(summaries) -> dict:
    """Add up summaries from several processes."""
    out = {"calls": defaultdict(int), "total_s": defaultdict(float),
           "self_s": defaultdict(float), "counts": defaultdict(int)}
    for s in summaries:
        for key, table in out.items():
            for name, val in s.get(key, {}).items():
                table[name] += val
    return out


def layer_metrics(summary: dict, rounds: int) -> dict:
    """Per-layer metrics for one round of a workload.

    Counts and times are totals over the traced rounds divided by their
    number; a layer the workload does not reach reads 0.
    """
    calls = summary["calls"]
    total = summary["total_s"]
    own = summary["self_s"]
    counts = summary["counts"]

    def per_round(x):
        return x / rounds

    def ms(table, name):
        return per_round(table.get(name, 0.0) * 1e3)

    evals = calls.get("templates.choi", 0)
    eval_us = total.get("templates.choi", 0.0) * 1e6 / evals if evals else 0.0
    m = {
        "channel.min_kraus_calls": (per_round(calls.get("channel.min_kraus", 0)), "calls"),
        "channel.min_kraus_ms": (ms(total, "channel.min_kraus"), "ms"),
        "channel.choi_calls": (per_round(calls.get("channel.choi", 0)), "calls"),
        "channel.choi_ms": (ms(total, "channel.choi"), "ms"),
        "compiler.plan_ms": (ms(own, "compiler.plan"), "ms"),
        "linalg.qr_calls": (per_round(calls.get("linalg.qr", 0)), "calls"),
        "linalg.qr_ms": (ms(total, "linalg.qr"), "ms"),
        "synth.decompose_ms": (ms(own, "synth.decompose"), "ms"),
        "synth.isometries": (per_round(calls.get("synth.decompose", 0)), "count"),
        "synth.cnots_emitted": (per_round(counts.get("synth.cnots_emitted", 0)), "count"),
        "synth.gates_emitted": (per_round(counts.get("synth.gates_emitted", 0)), "count"),
        "circuit.apply_gate_calls.synth":
            (per_round(calls.get("circuit.apply_gate.synth", 0)), "calls"),
        "circuit.apply_gate_ms.synth": (ms(total, "circuit.apply_gate.synth"), "ms"),
        "circuit.apply_gate_calls.simulator":
            (per_round(calls.get("circuit.apply_gate.simulator", 0)), "calls"),
        "circuit.apply_gate_ms.simulator": (ms(total, "circuit.apply_gate.simulator"), "ms"),
        "rewrite.ms": (ms(total, "rewrite.passes"), "ms"),
        "rewrite.gates_dropped": (per_round(counts.get("rewrite.gates_dropped", 0)), "count"),
        "rewrite.cnots_classicalized":
            (per_round(counts.get("rewrite.cnots_classicalized", 0)), "count"),
        "simulator.verify_ms": (ms(own, "simulator.run"), "ms"),
        "simulator.branches": (per_round(counts.get("simulator.branches", 0)), "count"),
        "simulator.gate_visits": (per_round(counts.get("simulator.gate_visits", 0)), "count"),
        "circuit.serialize_ms": (ms(total, "circuit.serialize"), "ms"),
        "circuit.parse_ms": (ms(total, "circuit.parse"), "ms"),
        "circuit.bytes": (per_round(counts.get("circuit.bytes", 0)), "bytes"),
        "templates.fit_ms": (ms(total, "templates.fit"), "ms"),
        "templates.choi_evals": (per_round(evals), "count"),
        "templates.choi_eval_us": (eval_us, "us"),
        "templates.starts_used": (per_round(counts.get("templates.starts_used", 0)), "count"),
    }
    return m


def dump_summary(path, tracer: Tracer) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.summary(), fh)
