"""Command-line interface: compile, verify, info, random, bounds, fit.

Exit codes: 0 success, 1 validation/usage error, 2 verification failure.
Compilation self-verifies through the simulator unless --no-verify is
given, so a run that exits 0 has passed the channel oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

# Each command imports the chancomp modules it runs when it runs, so a
# call loads only those: `bounds` loads no numpy, and `compile` and
# `verify` load no templates.

VERIFY_TOL = 1e-8
TEMPLATE_KEYS = {"1to1": "T11", "1to2": "T12", "2to1": "T21", "2to2": "T22"}
FIT_TOL = {"T11": 1e-6, "T12": 1e-4, "T21": 1e-4, "T22": 1e-4}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _positive_float(text: str) -> float:
    """A finite number > 0; argparse turns the error into a usage error."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return x


def _int_at_least(least: int):
    """An argparse type for integers >= `least`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = least - 1
        if n < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
        return n
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="chancomp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a channel into a circuit")
    c.add_argument("--model", choices=("measured", "qcm", "random"), required=True)
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", dest="outfile", required=True)
    c.add_argument("--k", type=int, default=None, help="force environment size (measured, qcm)")
    c.add_argument("--no-verify", action="store_true")
    c.add_argument("--no-rewrite", action="store_true")
    c.add_argument("--report", action="store_true")

    v = sub.add_parser("verify", help="check a circuit against a channel")
    v.add_argument("--circuit", required=True)
    v.add_argument("--channel", required=True)
    v.add_argument("--tol", type=_positive_float, default=VERIFY_TOL)

    i = sub.add_parser("info", help="print channel facts")
    i.add_argument("--in", dest="infile", required=True)

    r = sub.add_parser("random", help="generate a seeded random channel")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--kraus-rank", type=int, required=True)
    r.add_argument("--seed", type=_int_at_least(0), required=True)
    r.add_argument("--out", dest="outfile", required=True)

    b = sub.add_parser("bounds", help="CNOT-count bounds and parameter counts")
    b.add_argument("--m", type=int)
    b.add_argument("--n", type=int)
    b.add_argument("--grid", nargs=2, type=int, metavar=("MMAX", "NMAX"))
    b.add_argument("--csv", action="store_true")

    f = sub.add_parser("fit", help="fit a small-case template to a channel")
    f.add_argument("--template", choices=sorted(TEMPLATE_KEYS), required=True)
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--starts", type=_int_at_least(1), default=20)
    f.add_argument("--seed", type=_int_at_least(0), default=0)
    f.add_argument("--max-iters", type=_int_at_least(1), default=6000)
    f.add_argument("--out", dest="outfile", default=None)
    return p


def _load_channel(path: str):
    from .channel import channel_from_json

    return channel_from_json(pathlib.Path(path).read_text())


def _report_line(circ, dist: float | None) -> str:
    from .circuit import MEASURE, cnot_count

    worst, _ = cnot_count(circ)
    measures = sum(g.kind == MEASURE for g in circ.gates)
    line = f"qubits={circ.num_qubits} cnots={worst} measurements={measures}"
    if dist is not None:
        line += f" choi_dist={dist:.3e}"
    return line


def _cmd_compile(args) -> int:
    if args.model == "random" and args.k is not None:
        raise UsageError("argument --k: applies to --model measured and qcm, not random")
    text = pathlib.Path(args.infile).read_text()
    if args.model == "random":
        return _compile_random(args, text)
    from .channel import channel_from_json
    from .circuit import serialize
    from .compiler import compile_measured, compile_qcm, verify_circuit
    from .rewrite import standard_passes

    ks = channel_from_json(text)
    compiler = compile_measured if args.model == "measured" else compile_qcm
    circ = compiler(ks, force_k=args.k)
    if not args.no_rewrite:
        circ = standard_passes(circ)
    dist = None
    if not args.no_verify:
        dist = verify_circuit(circ, ks)
    pathlib.Path(args.outfile).write_text(serialize(circ))
    if args.report:
        print(_report_line(circ, dist))
    if dist is not None and dist >= VERIFY_TOL:
        print(f"error: verification failed, choi_dist={dist:.3e}", file=sys.stderr)
        return 2
    return 0


def _parse_mixture(text: str):
    from .channel import channel_from_json, json_object
    from .compiler import ConvexMixture

    doc = json_object(text)
    if "components" not in doc:
        return ConvexMixture([(1.0, channel_from_json(text))])
    entries = doc["components"]
    if not isinstance(entries, list):
        raise ValueError('mixture "components" must be a list')
    comps = []
    for idx, c in enumerate(entries):
        if not isinstance(c, dict) or "probability" not in c or "channel" not in c:
            raise ValueError(f'mixture component {idx} needs "probability" and "channel"')
        prob = c["probability"]
        if isinstance(prob, bool) or not isinstance(prob, (int, float)) or not 0 < prob <= 1:
            raise ValueError(f"mixture component {idx}: probability must be a number in (0, 1]")
        comps.append((float(prob), channel_from_json(json.dumps(c["channel"]))))
    return ConvexMixture(comps)


def _compile_random(args, text: str) -> int:
    from .circuit import serialize
    from .compiler import compile_random_qcm, verify_mixture
    from .rewrite import standard_passes

    mix = _parse_mixture(text)
    compiled = compile_random_qcm(mix)
    if not args.no_rewrite:
        compiled = [(p, standard_passes(c)) for p, c in compiled]
    out = pathlib.Path(args.outfile)
    many = len(compiled) > 1
    for idx, (prob, circ) in enumerate(compiled):
        path = out.with_name(f"{out.stem}.{idx}{out.suffix}") if many else out
        path.write_text(f"# probability {prob!r}\n" + serialize(circ))
        if args.report:
            print(f"component={idx} p={prob!r} " + _report_line(circ, None))
    dist = None
    if not args.no_verify:
        dist = verify_mixture(compiled, mix)
        if args.report:
            print(f"mixture choi_dist={dist:.3e}")
        if dist >= VERIFY_TOL:
            print(f"error: verification failed, choi_dist={dist:.3e}", file=sys.stderr)
            return 2
    return 0


def _cmd_verify(args) -> int:
    from .circuit import parse
    from .compiler import verify_circuit

    circ = parse(pathlib.Path(args.circuit).read_text())
    ks = _load_channel(args.channel)
    dist = verify_circuit(circ, ks)
    print(f"choi_dist={dist:.3e}")
    return 0 if dist < args.tol else 2


def _cmd_info(args) -> int:
    import numpy as np

    from .channel import is_extreme_minimal, minimal_kraus

    ks = _load_channel(args.infile)
    tp = sum(a.conj().T @ a for a in ks.ops) - np.eye(2**ks.m)
    mini = minimal_kraus(ks)
    print(
        f"m={ks.m} n={ks.n} kraus_rank={mini.K} "
        f"extreme={'yes' if is_extreme_minimal(mini) else 'no'} "
        f"tp_residual={np.linalg.norm(tp):.3e}"
    )
    return 0


def _cmd_random(args) -> int:
    from .channel import channel_to_json, random_channel

    ks = random_channel(args.m, args.n, args.kraus_rank, args.seed)
    pathlib.Path(args.outfile).write_text(channel_to_json(ks))
    return 0


# The most rows `bounds --grid` prints; a row near m + n = 7000 takes about 1 ms.
_MAX_GRID_ROWS = 10_000


def _cmd_bounds(args) -> int:
    import dataclasses

    from . import bounds as bounds_mod

    fields = tuple(f.name for f in dataclasses.fields(bounds_mod.BoundsReport)
                   if f.name not in ("m", "n"))
    if args.grid:
        mmax, nmax = args.grid
        if mmax < 0 or nmax < 0:
            raise ValueError(f"--grid needs non-negative limits, got {mmax} {nmax}")
        if mmax + nmax > bounds_mod.MAX_TABLE_QUBITS:
            raise ValueError(f"--grid needs MMAX + NMAX <= {bounds_mod.MAX_TABLE_QUBITS}, "
                             f"got {mmax} {nmax}")
        if (mmax + 1) * (nmax + 1) > _MAX_GRID_ROWS:
            raise ValueError(f"--grid {mmax} {nmax} has {(mmax + 1) * (nmax + 1)} rows, "
                             f"more than {_MAX_GRID_ROWS}")
        if args.csv:
            print("m,n," + ",".join(fields))
        for m in range(mmax + 1):
            for n in range(nmax + 1):
                rep = bounds_mod.table1(m, n)
                if args.csv:
                    print(f"{m},{n}," + ",".join(str(getattr(rep, f)) for f in fields))
                else:
                    vals = " ".join(f"{f}={getattr(rep, f)}" for f in fields)
                    print(f"m={m} n={n} {vals}")
        return 0
    if args.m is None or args.n is None:
        raise UsageError("bounds needs --m and --n (or --grid)")
    rep = bounds_mod.table1(args.m, args.n)
    for f in fields:
        print(f"{f}={getattr(rep, f)}")
    return 0


def _cmd_fit(args) -> int:
    from .circuit import serialize
    from .templates import fit, instantiate, template

    t = template(TEMPLATE_KEYS[args.template])
    ks = _load_channel(args.infile)
    tol = FIT_TOL[t.id]
    params, dist = fit(t, ks, starts=args.starts, max_iters=args.max_iters,
                       tol=tol, seed=args.seed)
    print(f"template={args.template} distance={dist:.3e} params={len(params)}")
    if args.outfile:
        pathlib.Path(args.outfile).write_text(serialize(instantiate(t, params)))
    return 0 if dist < tol else 2


_COMMANDS = {
    "compile": _cmd_compile,
    "verify": _cmd_verify,
    "info": _cmd_info,
    "random": _cmd_random,
    "bounds": _cmd_bounds,
    "fit": _cmd_fit,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:   # parse and JSON errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
