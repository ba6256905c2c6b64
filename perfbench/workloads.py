"""The workloads: seeded inputs, one operation, and output checks.

Every workload draws its channels itself from ``--seed`` (a complex
Gaussian matrix, orthonormalised with ``numpy.linalg.qr`` and unstacked
into Kraus blocks), so a change to the package's own random-channel or
QR code cannot change any input.  The package sees only finished
channels: ``KrausSet`` objects in-process, JSON files for the CLI.

An operation returns its output; ``ok(out)`` says whether the operation
itself succeeded (no exception, the program's own verification passed,
the CLI exit code was the expected one).  ``check(i, out)`` then compares
the output against the reference evaluator and the properties that
follow from the method, and returns the problems found together with
the output's worst-case CNOT and gate counts (the terms of
``cnot_total`` and ``gates_total``); it runs outside the timed region,
once per distinct input.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np

import refsim

VERIFY_TOL = 1e-8
RANK_RTOL = 1e-9
FIT_TOL = 1e-6          # the CLI's tolerance for the one-to-one template
CLI_TIMEOUT_S = 120


def ceil_log2(x: int) -> int:
    return max(x - 1, 0).bit_length()


def random_kraus(rng, m: int, n: int, kr: int) -> list[np.ndarray]:
    g = rng.standard_normal((kr * 2**n, 2**m)) + 1j * rng.standard_normal((kr * 2**n, 2**m))
    q, _ = np.linalg.qr(g)
    return [q[i * 2**n:(i + 1) * 2**n] for i in range(kr)]


def kraus_rank(ops) -> int:
    j = refsim.kraus_choi(ops)
    ev = np.linalg.eigvalsh(j)
    return int(np.sum(ev > RANK_RTOL * float(np.trace(j).real)))


def is_extreme(ops) -> bool:
    """Choi's criterion on the minimal Kraus form: {A_i^dag A_j} independent."""
    j = refsim.kraus_choi(ops)
    ev, vec = np.linalg.eigh(j)
    dm = ops[0].shape[1]
    dn = ops[0].shape[0]
    keep = ev > RANK_RTOL * float(np.trace(j).real)
    mini = [math.sqrt(lam) * vec[:, i].reshape(dm, dn).T for i, lam in enumerate(ev) if keep[i]]
    rows = np.array([(a.conj().T @ b).reshape(-1) for a in mini for b in mini])
    sv = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv.max())) == len(mini) ** 2


def ref_distance(circ: refsim.RefCircuit, ops) -> float:
    return float(np.linalg.norm(refsim.circuit_choi(circ) - refsim.kraus_choi(ops)))


def count_kind(circ, kind: str) -> int:
    return sum(1 for g in circ.gates if g.kind == kind)


class Workload:
    """Base: a fixed list of inputs, one operation per input, whole rounds."""

    name = ""

    def __init__(self, cc, seed: int):
        self.cc = cc          # the chancomp package; names are looked up per call
        self.labels: list[str] = []

    def __len__(self) -> int:
        return len(self.labels)

    def warmup_index(self) -> int:
        return 0

    def run(self, i: int):
        raise NotImplementedError

    def ok(self, out) -> bool:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Outputs of two rounds on one input agree (the program is deterministic)."""
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[list[str], int, int]:
        """(problems, worst-case CNOTs, gates) of one output."""
        raise NotImplementedError


# --- measured-grid ---------------------------------------------------------


def grid_triples() -> list[tuple[int, int, int]]:
    """The acceptance corpus rule plus the two wide rows of the baseline table."""
    out = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for kr in range(1, min(2 ** (m + n), 8) + 1):
                if n + ceil_log2(kr) < m or kr * 2**n < 2**m:
                    continue
                out.append((m, n, kr))
    return out + [(1, 4, 8), (4, 4, 1)]


class MeasuredGrid(Workload):
    """compile_measured -> standard_passes -> verify_circuit -> serialize -> parse."""

    name = "measured-grid"

    def __init__(self, cc, seed):
        super().__init__(cc, seed)
        rng = np.random.default_rng(seed)
        self.shapes = grid_triples()
        self.kraus = [random_kraus(rng, *t) for t in self.shapes]
        self.channels = [cc.KrausSet(m, n, ops) for (m, n, _), ops in zip(self.shapes, self.kraus)]
        self.labels = [f"{m},{n},{k}" for m, n, k in self.shapes]

    def warmup_index(self):
        # the widest Choi matrix: its first eigh is the coldest call
        return self.shapes.index((4, 4, 1))

    def run(self, i):
        cc = self.cc
        ks = self.channels[i]
        raw = cc.compile_measured(ks)
        circ = cc.standard_passes(raw)
        dist = cc.verify_circuit(circ, ks)
        text = cc.serialize(circ)
        parsed = cc.parse(text)
        return {"raw": raw, "circ": circ, "dist": dist, "text": text, "parsed": parsed}

    def ok(self, out):
        return out["dist"] < VERIFY_TOL

    def same(self, a, b):
        return a["text"] == b["text"]

    def check(self, i, out):
        m, n, _ = self.shapes[i]
        ops = self.kraus[i]
        bad = []
        ref = refsim.from_text(out["text"])
        if out["parsed"] != out["circ"]:
            bad.append("parse(serialize(c)) != c")
        d = ref_distance(ref, ops)
        if not d < VERIFY_TOL:
            bad.append(f"reference Choi distance {d:.3e}")
        raw_counts = refsim.branch_cnots(refsim.from_program(out["raw"]))
        if len(set(raw_counts)) != 1:
            bad.append(f"raw per-branch CNOT counts not uniform: {sorted(set(raw_counts))}")
        worst = max(refsim.branch_cnots(ref))
        if worst > max(raw_counts):
            bad.append(f"rewrite raised worst-case CNOTs {max(raw_counts)} -> {worst}")
        lb = self.cc.lb_measured_qcm(m, n)
        if worst < lb:
            bad.append(f"worst-case CNOTs {worst} below lb_measured {lb}")
        want_q = n if m < n else m + 1
        if ref.num_qubits != want_q:
            bad.append(f"{ref.num_qubits} qubits, expected {want_q}")
        want_meas = ceil_log2(kraus_rank(ops))
        got_meas = count_kind(ref, "MEASURE")
        if got_meas != want_meas:
            bad.append(f"{got_meas} measurements, expected {want_meas}")
        return bad, worst, len(ref.gates)


# --- dilation-wide ---------------------------------------------------------

# n + k spans 5..8 qubits; (3,3,4) sits at the compile cap m+n+k = 8.
WIDE_SHAPES = ((3, 3, 4), (2, 4, 4), (2, 3, 8), (1, 4, 8), (1, 5, 8))
# one 2 -> 3 mixture; every component has Kraus rank <= 2^m
MIX_SHAPE = (2, 3, (4, 4, 2))


class DilationWide(Workload):
    """compile_qcm (or compile_random_qcm) -> standard_passes -> verify."""

    name = "dilation-wide"

    def __init__(self, cc, seed):
        super().__init__(cc, seed)
        rng = np.random.default_rng(seed)
        self.items = []
        for m, n, kr in WIDE_SHAPES:
            ops = random_kraus(rng, m, n, kr)
            self.items.append(("qcm", m, n, [(1.0, ops)]))
        m, n, ranks = MIX_SHAPE
        w = rng.uniform(0.5, 1.5, len(ranks))
        probs = [float(x) for x in w / w.sum()]
        probs[-1] = 1.0 - sum(probs[:-1])
        comps = [(p, random_kraus(rng, m, n, kr)) for p, kr in zip(probs, ranks)]
        self.items.append(("mixture", m, n, comps))
        self.labels = [f"{kind}:{m},{n},{'+'.join(str(len(o)) for _, o in comps)}"
                       for kind, m, n, comps in self.items]
        self.programs = []
        for kind, m, n, comps in self.items:
            ks = [(p, cc.KrausSet(m, n, ops)) for p, ops in comps]
            self.programs.append(ks[0][1] if kind == "qcm" else cc.ConvexMixture(ks))

    def run(self, i):
        cc = self.cc
        kind = self.items[i][0]
        target = self.programs[i]
        if kind == "qcm":
            raw = [(1.0, cc.compile_qcm(target))]
        else:
            raw = cc.compile_random_qcm(target)
        circs = [(p, cc.standard_passes(c)) for p, c in raw]
        if kind == "qcm":
            dist = cc.verify_circuit(circs[0][1], target)
        else:
            j = sum(p * cc.choi_from_kraus(cc.circuit_to_kraus(c)).j for p, c in circs)
            want = sum(p * cc.choi_from_kraus(ks).j for p, ks in target.components)
            dist = float(np.linalg.norm(j - want))
        return {"raw": raw, "circs": circs, "dist": dist}

    def ok(self, out):
        return out["dist"] < VERIFY_TOL

    def same(self, a, b):
        return [c for _, c in a["circs"]] == [c for _, c in b["circs"]]

    def check(self, i, out):
        _, m, n, comps = self.items[i]
        bad = []
        j = 0
        cnots = gates = 0
        for (p, ops), (_, raw), (_, circ) in zip(comps, out["raw"], out["circs"]):
            ref = refsim.from_program(circ)
            j = j + p * refsim.circuit_choi(ref)
            before = max(refsim.branch_cnots(refsim.from_program(raw)))
            worst = max(refsim.branch_cnots(ref))
            cnots += worst
            gates += len(ref.gates)
            if worst > before:
                bad.append(f"rewrite raised CNOTs {before} -> {worst}")
            k = ceil_log2(kraus_rank(ops))
            lb = self.cc.lb_qcm_isometry(m, n + k)
            if worst < lb:
                bad.append(f"CNOTs {worst} below lb_qcm_isometry({m},{n + k}) = {lb}")
            if ref.num_qubits != n + k:
                bad.append(f"{ref.num_qubits} qubits, expected n+k = {n + k}")
        want = sum(p * refsim.kraus_choi(ops) for p, ops in comps)
        d = float(np.linalg.norm(j - want))
        if not d < VERIFY_TOL:
            bad.append(f"reference Choi distance {d:.3e}")
        return bad, cnots, gates


# --- cli-calls -------------------------------------------------------------


def channel_json(m: int, n: int, ops) -> dict:
    return {"m": m, "n": n,
            "kraus": [[[[float(x.real), float(x.imag)] for x in row] for row in a] for a in ops]}


def kraus_from_json(doc) -> list[np.ndarray]:
    return [np.array([[complex(*e) for e in row] for row in a]) for a in doc["kraus"]]


_BOUND_FIELDS = (
    "lb_qcm", "lb_random", "lb_measured", "param_count_extreme",
    "ub_asymptotic_qcm", "ub_asymptotic_random", "ub_asymptotic_measured",
    "qubits_qcm", "qubits_random", "qubits_measured",
)


def _bound_fields(text: str) -> dict:
    return dict(kv.split("=", 1) for kv in text.split() if "=" in kv)


def _nonneg_ints(fields: dict, names) -> bool:
    return all(re.fullmatch(r"\d+", fields.get(f, "")) for f in names)


class CliCalls(Workload):
    """One ``python -m chancomp.cli`` subprocess per operation, from a fixed script."""

    name = "cli-calls"
    # set by run.py for the traced run: argv prefix that replaces "-m chancomp.cli"
    entry = ("-m", "chancomp.cli")

    def __init__(self, cc, seed, workdir, env):
        super().__init__(cc, seed)
        self.workdir = workdir
        self.env = env
        rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        self.inputs = {}
        for key, (m, n, kr) in {"ch12": (1, 2, 2), "ch11": (1, 1, 2), "ch224": (2, 2, 4),
                                "cap": (4, 4, 1), "fit11": (1, 1, 2)}.items():
            self.inputs[key] = (m, n, random_kraus(rng, m, n, kr))
            self._write(f"{key}.json", channel_json(m, n, self.inputs[key][2]))
        mix = [(0.25 + 0.5 * float(rng.uniform()), random_kraus(rng, 1, 1, 2)),
               (None, random_kraus(rng, 1, 1, 1))]
        mix[1] = (1.0 - mix[0][0], mix[1][1])
        self.mix = mix
        self._write("mix.json", {"components": [
            {"probability": p, "channel": channel_json(1, 1, ops)} for p, ops in mix]})
        # known fault: a component without "probability" (see README)
        self._write("bad_mix.json", {"components": [
            {"channel": channel_json(1, 1, mix[0][1])},
            {"probability": 1.0, "channel": channel_json(1, 1, mix[1][1])}]})
        random_seed, fit_seed = (int(x) for x in rng.integers(0, 2**31, 2))
        f = self._path
        self.script = [
            ("random", ["random", "--m", "1", "--n", "2", "--kraus-rank", "2",
                        "--seed", str(random_seed), "--out", f("random.json")], 0),
            ("info", ["info", "--in", f("ch12.json")], 0),
            ("compile-measured", ["compile", "--model", "measured", "--in", f("ch12.json"),
                                  "--out", f("ch12.qcirc"), "--report"], 0),
            ("compile-qcm", ["compile", "--model", "qcm", "--in", f("ch11.json"),
                             "--out", f("ch11.qcirc")], 0),
            ("compile-random", ["compile", "--model", "random", "--in", f("mix.json"),
                                "--out", f("mix.qcirc")], 0),
            ("compile-cap", ["compile", "--model", "measured", "--in", f("cap.json"),
                             "--out", f("cap.qcirc"), "--report"], 0),
            ("verify", ["verify", "--circuit", f("ch12.qcirc"), "--channel", f("ch12.json")], 0),
            ("bounds", ["bounds", "--m", "2", "--n", "3"], 0),
            ("bounds-grid", ["bounds", "--grid", "3", "3"], 0),
            ("fit", ["fit", "--template", "1to1", "--in", f("fit11.json"), "--starts", "20",
                     "--seed", str(fit_seed), "--out", f("fit11.qcirc")], 0),
            ("twin-a", ["compile", "--model", "measured", "--in", f("ch224.json"),
                        "--out", f("twin_a.qcirc")], 0),
            ("twin-b", ["compile", "--model", "measured", "--in", f("ch224.json"),
                        "--out", f("twin_b.qcirc")], 0),
            ("bad-mixture", ["compile", "--model", "random", "--in", f("bad_mix.json"),
                             "--out", f("bad.qcirc")], 1),
            ("bad-bounds", ["bounds", "--m", "-3", "--n", "1"], 1),
        ]
        self.labels = [s[0] for s in self.script]
        self.files_written = {
            "random": ["random.json"], "compile-measured": ["ch12.qcirc"],
            "compile-qcm": ["ch11.qcirc"], "compile-random": ["mix.0.qcirc", "mix.1.qcirc"],
            "compile-cap": ["cap.qcirc"], "fit": ["fit11.qcirc"],
            "twin-a": ["twin_a.qcirc"], "twin-b": ["twin_b.qcirc"],
        }
        self.peak_child_kb = 0

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _write(self, name: str, doc) -> None:
        with open(self._path(name), "w") as fh:
            json.dump(doc, fh)

    def _read(self, name: str) -> str:
        with open(self._path(name)) as fh:
            return fh.read()

    def run(self, i):
        label, args, want = self.script[i]
        out_path = self._path(f"{label}.stdout")
        err_path = self._path(f"{label}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, *self.entry, *args], stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL, env=self.env)
            # wait4 gives the child's own peak RSS; the timer bounds a hung call
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        files = {name: self._read(name) for name in self.files_written.get(label, [])
                 if os.path.exists(self._path(name))}
        return {"code": proc.returncode, "want": want, "stdout": stdout,
                "stderr": stderr, "files": files}

    def ok(self, out):
        if out["code"] != out["want"]:
            return False
        if out["want"] == 0:
            return True
        lines = out["stderr"].strip().splitlines()
        return bool(lines) and lines[-1].startswith("error:") and "Traceback" not in out["stderr"]

    def same(self, a, b):
        return a["files"] == b["files"] and a["stdout"] == b["stdout"]

    def check(self, i, out):
        label = self.script[i][0]
        bad = getattr(self, "_check_" + label.replace("-", "_"), lambda o: [])(out)
        cnots = gates = 0
        for name, text in out["files"].items():
            if name.endswith(".qcirc"):
                ref = refsim.from_text(text)
                cnots += max(refsim.branch_cnots(ref))
                gates += len(ref.gates)
        return bad, cnots, gates

    # each check reads the files the call wrote and its printed output

    def _check_random(self, out):
        doc = json.loads(out["files"]["random.json"])
        ops = kraus_from_json(doc)
        bad = []
        if (doc["m"], doc["n"], len(ops)) != (1, 2, 2):
            bad.append(f"random wrote m={doc['m']} n={doc['n']} K={len(ops)}")
        tp = np.linalg.norm(sum(a.conj().T @ a for a in ops) - np.eye(2))
        if not tp < 1e-9:
            bad.append(f"random channel not trace preserving ({tp:.2e})")
        if kraus_rank(ops) != 2:
            bad.append("random channel rank != 2")
        return bad

    def _check_info(self, out):
        m, n, ops = self.inputs["ch12"]
        fields = _bound_fields(out["stdout"])
        bad = []
        want = {"m": str(m), "n": str(n), "kraus_rank": str(kraus_rank(ops)),
                "extreme": "yes" if is_extreme(ops) else "no"}
        for key, val in want.items():
            if fields.get(key) != val:
                bad.append(f"info {key}={fields.get(key)} expected {val}")
        if not float(fields.get("tp_residual", "inf")) < 1e-9:
            bad.append("info tp_residual too large")
        return bad

    def _measured_checks(self, key, text, report):
        m, n, ops = self.inputs[key]
        ref = refsim.from_text(text)
        bad = []
        d = ref_distance(ref, ops)
        if not d < VERIFY_TOL:
            bad.append(f"{key}: reference Choi distance {d:.3e}")
        worst = max(refsim.branch_cnots(ref))
        if worst < self.cc.lb_measured_qcm(m, n):
            bad.append(f"{key}: CNOTs below lb_measured")
        if ref.num_qubits != (n if m < n else m + 1):
            bad.append(f"{key}: wrong qubit count {ref.num_qubits}")
        if count_kind(ref, "MEASURE") != ceil_log2(kraus_rank(ops)):
            bad.append(f"{key}: wrong measurement count")
        if report is not None:
            fields = _bound_fields(report)
            if fields.get("cnots") != str(worst) or fields.get("qubits") != str(ref.num_qubits):
                bad.append(f"{key}: --report line {report.strip()!r} disagrees with the circuit")
        return bad

    def _check_compile_measured(self, out):
        return self._measured_checks("ch12", out["files"]["ch12.qcirc"], out["stdout"])

    def _check_compile_cap(self, out):
        return self._measured_checks("cap", out["files"]["cap.qcirc"], out["stdout"])

    def _check_compile_qcm(self, out):
        m, n, ops = self.inputs["ch11"]
        ref = refsim.from_text(out["files"]["ch11.qcirc"])
        k = ceil_log2(kraus_rank(ops))
        bad = []
        d = ref_distance(ref, ops)
        if not d < VERIFY_TOL:
            bad.append(f"qcm: reference Choi distance {d:.3e}")
        if ref.num_qubits != n + k:
            bad.append("qcm: wrong qubit count")
        if max(refsim.branch_cnots(ref)) < self.cc.lb_qcm_isometry(m, n + k):
            bad.append("qcm: CNOTs below lb_qcm_isometry")
        return bad

    def _check_compile_random(self, out):
        j = 0
        bad = []
        for idx, (p, _) in enumerate(self.mix):
            text = out["files"].get(f"mix.{idx}.qcirc")
            if text is None:
                return [f"random: mix.{idx}.qcirc not written"]
            if not text.startswith(f"# probability {p!r}\n"):
                bad.append(f"random: component {idx} probability header")
            j = j + p * refsim.circuit_choi(refsim.from_text(text))
        want = sum(p * refsim.kraus_choi(ops) for p, ops in self.mix)
        d = float(np.linalg.norm(j - want))
        if not d < VERIFY_TOL:
            bad.append(f"random: reference mixture Choi distance {d:.3e}")
        return bad

    def _check_verify(self, out):
        match = re.search(r"choi_dist=(\S+)", out["stdout"])
        if not match or not float(match.group(1)) < VERIFY_TOL:
            return [f"verify printed {out['stdout'].strip()!r}"]
        return []

    def _check_bounds(self, out):
        fields = _bound_fields(out["stdout"])
        if not _nonneg_ints(fields, _BOUND_FIELDS):
            return [f"bounds printed {out['stdout'].strip()!r}"]
        return []

    def _check_bounds_grid(self, out):
        rows = out["stdout"].strip().splitlines()
        if len(rows) != 16:
            return [f"bounds --grid 3 3 printed {len(rows)} rows, expected 16"]
        bad = [r for r in rows if not _nonneg_ints(_bound_fields(r), ("m", "n") + _BOUND_FIELDS)]
        return [f"bounds --grid row {r!r}" for r in bad]

    def _check_fit(self, out):
        m, n, ops = self.inputs["fit11"]
        ref = refsim.from_text(out["files"]["fit11.qcirc"])
        bad = []
        d = ref_distance(ref, ops)
        if not d < FIT_TOL:
            bad.append(f"fit: reference Choi distance {d:.3e}")
        if max(refsim.branch_cnots(ref)) != 1:
            bad.append("fit: T11 circuit does not have 1 CNOT")
        return bad

    def _check_twin_a(self, out):
        return self._measured_checks("ch224", out["files"]["twin_a.qcirc"], None)

    def _check_twin_b(self, out):
        if out["files"]["twin_b.qcirc"] != self._read("twin_a.qcirc"):
            return ["two compiles of one input in separate processes differ"]
        return []


WORKLOADS = {w.name: w for w in (MeasuredGrid, DilationWide, CliCalls)}
