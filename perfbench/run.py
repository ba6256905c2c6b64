"""Benchmark for chancomp: verified compiles and CLI calls.

Run from the repository root:

    python3 perfbench/run.py --workload measured-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process generates all load in a closed loop, one operation at a
time.  Each run repeats whole rounds (one operation per distinct input)
while another round still fits into ``--seconds``, so every run attempts
the same operations in the same proportions.  Outputs are checked
against the reference evaluator after the timed region.  Times are
scaled to a fixed host speed by the calibration kernel in
``calibrate.py``; the raw wall-clock figures are printed on the ``run``
line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170

# One BLAS thread: the load generator is a single closed loop on a 2-core
# machine, and a second BLAS thread only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import calibrate  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_chancomp():
    if not os.path.isfile(os.path.join(SRC, "chancomp", "__init__.py")):
        sys.exit(f"error: no chancomp sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import chancomp

    if not os.path.abspath(chancomp.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: chancomp imported from {chancomp.__file__}, not from {SRC}")
    return chancomp


# --- facts printed with every run ------------------------------------------


def import_times(env) -> dict:
    """Parse ``python -X importtime -c 'import chancomp'`` into ms figures."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chancomp"],
                         capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"import chancomp failed:\n{res.stderr[-2000:]}")
    rows = []
    for line in res.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(2)), m.group(3), int(m.group(1))))
    chancomp_us = scipy_us = 0
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before their parent; walk it parent-first
    for depth, name, cum in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "chancomp" and not ancestors:
            chancomp_us = cum
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            scipy_us += cum
        ancestors.append((depth, name))
    scale = calibrate.factor_now()
    return {"cli.import_ms": chancomp_us / 1e3 * scale,
            "cli.import_scipy_ms": scipy_us / 1e3 * scale}


def machine_facts(seed: int, imports: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        **imports,
    }


# --- the closed loop ---------------------------------------------------------


class Loop:
    """Whole rounds of one workload, timed per operation.

    ``latencies`` are raw wall times; ``scaled`` are the same times at
    the calibration kernel's nominal host speed.
    """

    def __init__(self, w, run_op=None):
        self.w = w
        self.run_op = run_op or w.run
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0
        self.first_ok: dict = {}
        self.errors: dict = {}
        self.drift: set = set()
        self.rss_kb = 0

    def run(self, seconds: float) -> "Loop":
        """Repeat rounds while one more round fits in ``seconds`` (at least one)."""
        w = self.w
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            for i in range(len(w)):
                self.kernel_s.append(calibrate.sample())
                t0 = time.perf_counter()
                try:
                    out = self.run_op(i)
                    ok = w.ok(out)
                except Exception:  # an operation that raises counts as failed
                    out, ok = traceback.format_exc(), False
                self.latencies.append(time.perf_counter() - t0)
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    self.errors.setdefault(w.labels[i], out)
                elif i not in self.first_ok:
                    self.first_ok[i] = out
                elif not w.same(self.first_ok[i], out):
                    self.drift.add(w.labels[i])
            self.rounds += 1
            if self.rounds == 1:
                # peak RSS through one round: later rounds add only the outputs
                # held for comparison, so the figure does not depend on the count
                self.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            now = time.perf_counter()
            if now - start + (now - r0) > seconds:
                break
        self.wall = time.perf_counter() - start
        factors = calibrate.local_factors(self.kernel_s)
        self.scaled = [lat * f for lat, f in zip(self.latencies, factors)]
        return self

    def scale(self) -> float:
        """The run's overall scale factor (for figures not timed per operation)."""
        return calibrate.NOMINAL_S / statistics.median(self.kernel_s)


def check_outputs(w, loops) -> tuple[list[str], int, int]:
    """Reference and method checks, once per distinct input that succeeded.

    Returns the problems found and the summed worst-case CNOT and gate
    counts of the checked outputs.
    """
    problems = []
    cnots = gates = 0
    first = {}
    for loop in loops:
        for i, out in loop.first_ok.items():
            if i not in first:
                first[i] = out
            elif not w.same(first[i], out):
                problems.append(f"{w.labels[i]}: output differs between runs of the loop")
        problems += [f"{label}: output differs between rounds" for label in loop.drift]
    for i, out in sorted(first.items()):
        try:
            bad, c, g = w.check(i, out)
        except Exception:  # a malformed output must show as a check failure
            bad, c, g = [f"check raised\n{traceback.format_exc()}"], 0, 0
        problems += [f"{w.labels[i]}: {p}" for p in bad]
        cnots += c
        gates += g
    return problems, cnots, gates


def report_failures(loops) -> None:
    """One stderr line per failed input: the exception, exit code or distance."""
    seen = set()
    for loop in loops:
        for label, err in loop.errors.items():
            if label in seen:
                continue
            seen.add(label)
            if isinstance(err, str):
                detail = err.strip().splitlines()[-1]
            elif "code" in err:
                last = (err["stderr"].strip().splitlines() or [""])[-1]
                detail = f"exit {err['code']} (expected {err['want']}), stderr ends {last!r}"
            else:
                detail = f"distance {err['dist']:.3e}"
            print(f"failed operation {label}: {detail}", file=sys.stderr)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import, inputs and one warm-up operation."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def band_quantile(xs, q: float, half_width: float = 0.05) -> float:
    """Mean of the samples whose rank lies within q +- half_width.

    A workload's inputs come in a few fixed sizes, so its sorted times
    have gaps; a plain order statistic next to a gap jumps across it
    when two inputs swap places.  The band mean moves by one sample's
    share instead.
    """
    ys = sorted(xs)
    n = len(ys)
    band = [y for i, y in enumerate(ys) if abs((i + 0.5) / n - q) <= half_width]
    return statistics.fmean(band) if band else ys[min(n - 1, int(q * n))]


def run_workload(args) -> dict:
    cc = import_chancomp()
    import refsim
    import workloads

    env = child_env()
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliCalls:
        workdir = os.path.join(OUT, args.workload + (".probe" if args.setup_probe else ""))
        w = cls(cc, args.seed, workdir, env)
    else:
        w = cls(cc, args.seed)
    w.run(w.warmup_index())
    setup_main = (time.perf_counter() - T0) * calibrate.factor_now()
    if args.setup_probe:
        return {"setup_s": setup_main}

    refsim.self_test()
    imports = import_times(env)
    print(json.dumps({"facts": {**machine_facts(args.seed, imports),
                                "workload": args.workload}}))

    if args.trace:
        return traced_run(args, w, imports)

    setups = [setup_main] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    is_cli = isinstance(w, workloads.CliCalls)
    if is_cli:
        w.peak_child_kb = 0  # the timed calls only
    loop = Loop(w).run(args.seconds)
    peak_kb = w.peak_child_kb if is_cli else loop.rss_kb
    problems, cnots, gates = check_outputs(w, [loop])
    report_failures([loop])
    done = loop.attempted - loop.failed
    p50 = band_quantile(loop.scaled, 0.5)
    p90 = band_quantile(loop.scaled, 0.9)
    rate = done / sum(loop.scaled)
    print(json.dumps({"run": {
        "rounds": loop.rounds, "ops_per_round": len(w), "measured_s": loop.wall,
        "setup_samples_s": setups, "kernel_median_ms": statistics.median(loop.kernel_s) * 1e3,
        "raw_ops_per_s": done / loop.wall,
        "raw_latency_ms.p50": band_quantile(loop.latencies, 0.5) * 1e3,
        "raw_latency_ms.p90": band_quantile(loop.latencies, 0.9) * 1e3}}))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "channels_per_s": metric(rate, "1/s"),
            "latency_ms.p50": metric(p50 * 1e3, "ms"),
            "latency_ms.p90": metric(p90 * 1e3, "ms"),
            "cnot_total": metric(cnots, "count"),
            "gates_total": metric(gates, "count"),
            "cli_call_s.p50": metric(p50, "s"),
            "cli_call_s.p90": metric(p90, "s"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        },
    }


def traced_run(args, w, imports) -> dict:
    """Untraced rounds, then traced rounds; per-layer metrics per round."""
    import spans
    import workloads

    half = args.seconds / 2
    plain = Loop(w).run(half)
    tracer = spans.Tracer()
    cli_dir = os.path.join(OUT, "cli-trace")
    if isinstance(w, workloads.CliCalls):
        os.makedirs(cli_dir, exist_ok=True)
        for name in os.listdir(cli_dir):
            os.remove(os.path.join(cli_dir, name))
        w.entry = (os.path.join(HERE, "cli_shim.py"),)
        w.env = {**w.env, "PERFBENCH_TRACE_DIR": cli_dir}
        traced = Loop(w).run(half)
        summaries = []
        for name in sorted(os.listdir(cli_dir)):
            if name.endswith(".json"):
                with open(os.path.join(cli_dir, name)) as fh:
                    summaries.append(json.load(fh))
        summary = spans.merge(summaries)
    else:
        tracer.install()
        # one span per operation, so stages.py can split the trace by input
        ops = [tracer.wrap(f"op {label}", w.run) for label in w.labels]
        try:
            traced = Loop(w, lambda i: ops[i](i)).run(half)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
    problems, _, _ = check_outputs(w, [plain, traced])
    report_failures([plain, traced])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    round_plain = sum(plain.scaled) / plain.rounds
    round_traced = sum(traced.scaled) / traced.rounds
    scale = traced.scale()
    out = {}
    for name, (v, unit) in spans.layer_metrics(summary, traced.rounds).items():
        if unit in ("ms", "us"):
            out[name] = metric(v * scale, unit)
        else:  # counts per round repeat exactly; print them as integers when whole
            out[name] = metric(int(v) if float(v).is_integer() else v, unit)
    out["cli.import_ms"] = metric(imports["cli.import_ms"], "ms")
    out["cli.import_scipy_ms"] = metric(imports["cli.import_scipy_ms"], "ms")
    out["trace.overhead_pct"] = metric((round_traced / round_plain - 1) * 100, "%")
    print(json.dumps({"run": {"untraced_rounds": plain.rounds, "traced_rounds": traced.rounds,
                              "untraced_round_s": round_plain, "traced_round_s": round_traced,
                              "raw_untraced_s": plain.wall, "raw_traced_s": traced.wall}}))
    return {
        "correct": not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": out,
    }


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics keyed 'workload:metric'."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=1800)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            sys.exit(f"error: workload {name} exited with {res.returncode}")
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines))
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{name}:{k}": v for k, v in one["metrics"].items()})
    return total


def main() -> None:
    sys.path.insert(0, HERE)
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
