import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import chancomp
from chancomp.channel import KrausSet, channel_from_json, channel_to_json, random_channel
from chancomp.cli import run
from chancomp.circuit import parse, serialize
from chancomp.compiler import compile_measured
from chancomp.rewrite import standard_passes


@pytest.fixture
def channel_file(tmp_path):
    ks = random_channel(1, 1, 2, seed=7)
    path = tmp_path / "ch.json"
    path.write_text(channel_to_json(ks))
    return path


def test_compile_measured_report(tmp_path, channel_file, capsys):
    out = tmp_path / "c.qcirc"
    code = run(["compile", "--model", "measured", "--in", str(channel_file),
                "--out", str(out), "--report"])
    assert code == 0
    line = capsys.readouterr().out.strip()
    fields = dict(kv.split("=") for kv in line.split())
    assert set(fields) == {"qubits", "cnots", "measurements", "choi_dist"}
    assert fields["qubits"] == "2" and fields["measurements"] == "1"
    assert float(fields["choi_dist"]) < 1e-8
    parse(out.read_text())  # circuit file is well formed


def test_compile_qcm(tmp_path, channel_file):
    out = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "qcm", "--in", str(channel_file),
                "--out", str(out)]) == 0
    circ = parse(out.read_text())
    assert circ.num_qubits == 2


def test_compile_is_deterministic(tmp_path, channel_file):
    a, b = tmp_path / "a.qcirc", tmp_path / "b.qcirc"
    assert run(["compile", "--model", "measured", "--in", str(channel_file), "--out", str(a)]) == 0
    assert run(["compile", "--model", "measured", "--in", str(channel_file), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compile_no_rewrite_skips_the_passes(tmp_path):
    # on a 2->1 channel the passes drop the last gate on the discarded qubit
    ks = random_channel(2, 1, 4, seed=7)
    src, a, b = tmp_path / "ch.json", tmp_path / "a.qcirc", tmp_path / "b.qcirc"
    src.write_text(channel_to_json(ks))
    assert run(["compile", "--model", "measured", "--in", str(src), "--out", str(a)]) == 0
    assert run(["compile", "--model", "measured", "--in", str(src), "--out", str(b),
                "--no-rewrite"]) == 0
    raw = compile_measured(channel_from_json(src.read_text()))
    assert b.read_text() == serialize(raw)
    assert a.read_text() == serialize(standard_passes(raw))
    assert a.read_text() != b.read_text()


def test_readme_compile_example_matches_the_cli(tmp_path, capsys, monkeypatch):
    # the README's `random --seed 7` -> `compile --report` -> `verify` session,
    # run as written; choi_dist moves at round-off, so only its bound is checked
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    commands = [line[len("$ chancomp "):].split() for line in lines
                if line.startswith(("$ chancomp random", "$ chancomp compile --model measured",
                                    "$ chancomp verify"))]
    assert [c[0] for c in commands] == ["random", "compile", "verify"]
    shown = lines[lines.index("$ chancomp " + " ".join(commands[1])) + 1]
    monkeypatch.chdir(tmp_path)
    assert run(commands[0]) == 0
    capsys.readouterr()
    assert run(commands[1]) == 0
    printed = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    want = dict(kv.split("=") for kv in shown.split())
    for key in ("qubits", "cnots", "measurements"):
        assert printed[key] == want[key], key
    assert run(commands[2]) == 0
    name, value = capsys.readouterr().out.strip().split("=")
    assert name == "choi_dist" and float(value) < 1e-8


def test_compile_force_k(tmp_path, channel_file):
    out = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "measured", "--in", str(channel_file),
                "--out", str(out), "--k", "2"]) == 0
    circ = parse(out.read_text())
    assert sum(1 for g in circ.gates if g.kind == "MEASURE") == 2


def test_compile_random_mixture(tmp_path, capsys):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    doc = {
        "components": [
            {"probability": 0.5,
             "channel": json.loads(channel_to_json(random_channel(1, 1, 1, seed=1)))},
            {"probability": 0.5,
             "channel": {"m": 1, "n": 1,
                         "kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}},
        ]
    }
    src = tmp_path / "mix.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "mix.qcirc"
    code = run(["compile", "--model", "random", "--in", str(src), "--out", str(out),
                "--report"])
    assert code == 0
    assert (tmp_path / "mix.0.qcirc").exists() and (tmp_path / "mix.1.qcirc").exists()
    text = capsys.readouterr().out
    assert "mixture choi_dist=" in text


def test_compile_random_rejects_bad_component(tmp_path):
    ks = random_channel(1, 1, 3, seed=2)  # rank 3 > 2^m
    src = tmp_path / "ch.json"
    src.write_text(channel_to_json(ks))
    out = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "random", "--in", str(src), "--out", str(out)]) == 1


MIX_CHANNEL = json.loads(channel_to_json(random_channel(1, 1, 2, seed=4)))


@pytest.mark.parametrize("component", [
    {"channel": MIX_CHANNEL},
    {"probability": 1.0},
    {"probability": "0.5", "channel": MIX_CHANNEL},
    {"probability": None, "channel": MIX_CHANNEL},
    {"probability": True, "channel": MIX_CHANNEL},
    {"probability": float("nan"), "channel": MIX_CHANNEL},
    {"probability": 0, "channel": MIX_CHANNEL},
    "not an object",
])
def test_compile_random_rejects_malformed_mixture(tmp_path, capsys, component):
    doc = {"components": [component, {"probability": 1.0, "channel": MIX_CHANNEL}]}
    src = tmp_path / "mix.json"
    src.write_text(json.dumps(doc))
    code = run(["compile", "--model", "random", "--in", str(src),
                "--out", str(tmp_path / "m.qcirc")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mixture component 0")


def test_compile_random_rejects_non_list_components(tmp_path, capsys):
    src = tmp_path / "mix.json"
    src.write_text(json.dumps({"components": {"probability": 1.0}}))
    assert run(["compile", "--model", "random", "--in", str(src),
                "--out", str(tmp_path / "m.qcirc")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _write_compile_inputs(root: pathlib.Path) -> None:
    """The seeded input documents of GOLDEN_COMPILES."""
    def doc(ks):
        return json.loads(channel_to_json(ks))

    mixture = [{"probability": 0.375, "channel": doc(random_channel(1, 1, 2, seed=36))},
               {"probability": 0.625, "channel": doc(random_channel(1, 1, 1, seed=37))}]
    docs = {
        "ch.json": doc(random_channel(2, 1, 3, seed=35)),
        "plain.json": doc(random_channel(1, 2, 2, seed=38)),
        "rank3.json": doc(random_channel(1, 1, 3, seed=39)),   # rank 3 > 2^m
        "mix.json": {"components": mixture},
        "no_prob.json": {"components": [{"channel": mixture[0]["channel"]}, mixture[1]]},
        "bool_prob.json": {"components": [{**mixture[0], "probability": True}, mixture[1]]},
        "list_channel.json": {"components": [
            mixture[0], {"probability": 0.625, "channel": [mixture[1]["channel"]]}]},
    }
    for name, d in docs.items():
        (root / name).write_text(json.dumps(d))


def _compile_argv(model, src, *flags):
    return ["compile", "--model", model, "--in", src, "--out", "c.qcirc", *flags]


# case -> (argv, (exit code, stdout, stderr, {written file: sha256}))
GOLDEN_COMPILES = {
    "measured-report": (_compile_argv("measured", "ch.json", "--report"), (
        0,
        "qubits=3 cnots=8 measurements=2 choi_dist=8.152e-15\n",
        "",
        {"c.qcirc": "67cd4b0e78b0df12c2137cbf597e5ec1d06e3419ef61ef143b8013731fec400c"})),
    "measured-k": (_compile_argv("measured", "ch.json", "--k", "3", "--report"), (
        0,
        "qubits=3 cnots=13 measurements=3 choi_dist=5.540e-15\n",
        "",
        {"c.qcirc": "a1f6563f7393409902d09f0921d9864a9cd28eee8004f16d9723a7a4017008c5"})),
    "measured-no-verify": (_compile_argv("measured", "ch.json", "--no-verify", "--report"), (
        0,
        "qubits=3 cnots=8 measurements=2\n",
        "",
        {"c.qcirc": "67cd4b0e78b0df12c2137cbf597e5ec1d06e3419ef61ef143b8013731fec400c"})),
    "measured-no-rewrite": (_compile_argv("measured", "ch.json", "--no-rewrite", "--report"), (
        0,
        "qubits=3 cnots=8 measurements=2 choi_dist=8.190e-15\n",
        "",
        {"c.qcirc": "dbcb6b43a55dd37d010867fe91a00fc84f59218634b787d3904148a0c521e16a"})),
    "qcm-report": (_compile_argv("qcm", "ch.json", "--report"), (
        0,
        "qubits=3 cnots=14 measurements=0 choi_dist=4.927e-15\n",
        "",
        {"c.qcirc": "1ad74ed5eb6382e35b7555463954693aa109d0fd1aaf6c998e7d5af3a2f3277c"})),
    "qcm-k": (_compile_argv("qcm", "ch.json", "--k", "3", "--report"), (
        0,
        "qubits=4 cnots=65 measurements=0 choi_dist=5.296e-15\n",
        "",
        {"c.qcirc": "7716e58ef81cd4c3846ca3c2626b54dc42b2bc31354d475d3d13623446f5ca11"})),
    "qcm-no-verify": (_compile_argv("qcm", "ch.json", "--no-verify", "--report"), (
        0,
        "qubits=3 cnots=14 measurements=0\n",
        "",
        {"c.qcirc": "1ad74ed5eb6382e35b7555463954693aa109d0fd1aaf6c998e7d5af3a2f3277c"})),
    "qcm-no-rewrite": (_compile_argv("qcm", "ch.json", "--no-rewrite", "--report"), (
        0,
        "qubits=3 cnots=14 measurements=0 choi_dist=5.433e-15\n",
        "",
        {"c.qcirc": "29bb557bf23d6dd0e769cebd054da56c1e3ec8a82dc5067c02caa69b6ab49a90"})),
    "qcm-quiet": (_compile_argv("qcm", "ch.json"), (
        0,
        "",
        "",
        {"c.qcirc": "1ad74ed5eb6382e35b7555463954693aa109d0fd1aaf6c998e7d5af3a2f3277c"})),
    "random-report": (_compile_argv("random", "mix.json", "--report"), (
        0,
        "component=0 p=0.375 qubits=2 cnots=3 measurements=0\n"
        "component=1 p=0.625 qubits=1 cnots=0 measurements=0\n"
        "mixture choi_dist=6.556e-16\n",
        "",
        {"c.0.qcirc": "8d226623a8e8b06e62601d8b97fc87aa978768037741a88290d6f322c11df535",
         "c.1.qcirc": "529a9c7f121b03c580e60f80b5c2af76a150ccb751ab1971c464930c92b725f5"})),
    "random-no-verify": (_compile_argv("random", "mix.json", "--no-verify", "--report"), (
        0,
        "component=0 p=0.375 qubits=2 cnots=3 measurements=0\n"
        "component=1 p=0.625 qubits=1 cnots=0 measurements=0\n",
        "",
        {"c.0.qcirc": "8d226623a8e8b06e62601d8b97fc87aa978768037741a88290d6f322c11df535",
         "c.1.qcirc": "529a9c7f121b03c580e60f80b5c2af76a150ccb751ab1971c464930c92b725f5"})),
    "random-no-rewrite": (_compile_argv("random", "mix.json", "--no-rewrite", "--report"), (
        0,
        "component=0 p=0.375 qubits=2 cnots=3 measurements=0\n"
        "component=1 p=0.625 qubits=1 cnots=0 measurements=0\n"
        "mixture choi_dist=6.556e-16\n",
        "",
        {"c.0.qcirc": "8d226623a8e8b06e62601d8b97fc87aa978768037741a88290d6f322c11df535",
         "c.1.qcirc": "529a9c7f121b03c580e60f80b5c2af76a150ccb751ab1971c464930c92b725f5"})),
    "random-quiet": (_compile_argv("random", "mix.json"), (
        0,
        "",
        "",
        {"c.0.qcirc": "8d226623a8e8b06e62601d8b97fc87aa978768037741a88290d6f322c11df535",
         "c.1.qcirc": "529a9c7f121b03c580e60f80b5c2af76a150ccb751ab1971c464930c92b725f5"})),
    "random-plain-channel": (_compile_argv("random", "plain.json", "--report"), (
        0,
        "component=0 p=1.0 qubits=3 cnots=11 measurements=0\n"
        "mixture choi_dist=1.949e-15\n",
        "",
        {"c.qcirc": "12722f244098dd32d4fdb803562e2beb4b175c63c556d263f7700a649ca2632b"})),
    "error-no-probability": (_compile_argv("random", "no_prob.json"), (
        1,
        "",
        'error: mixture component 0 needs "probability" and "channel"\n',
        {})),
    "error-bool-probability": (_compile_argv("random", "bool_prob.json"), (
        1,
        "",
        "error: mixture component 0: probability must be a number in (0, 1]\n",
        {})),
    "error-list-channel": (_compile_argv("random", "list_channel.json"), (
        1,
        "",
        "error: malformed channel JSON: the document must be a JSON object\n",
        {})),
    "error-k-with-random": (_compile_argv("random", "mix.json", "--k", "1"), (
        1,
        "",
        "error: argument --k: applies to --model measured and qcm, not random\n",
        {})),
    "error-mixture-under-measured": (_compile_argv("measured", "mix.json", "--report"), (
        1,
        "",
        "error: malformed channel JSON: 'm'\n",
        {})),
    "error-rank-above-2-to-m": (_compile_argv("random", "rank3.json", "--report"), (
        1,
        "",
        "error: component not implementable in m+n qubits\n",
        {})),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_COMPILES))
def test_compile_outputs_are_pinned(tmp_path, capsys, monkeypatch, case):
    # every model's stdout, stderr, exit code and written files, byte for
    # byte, on seeded inputs; the choi_dist figures sit at round-off, so
    # another numpy or LAPACK build may move them, as it may move the angles
    monkeypatch.chdir(tmp_path)
    _write_compile_inputs(tmp_path)
    inputs = set(os.listdir(tmp_path))
    code = run(GOLDEN_COMPILES[case][0])
    out, err = capsys.readouterr()
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in sorted(set(os.listdir(tmp_path)) - inputs)}
    assert (code, out, err, written) == GOLDEN_COMPILES[case][1]


def test_compile_is_byte_identical_across_blas_thread_counts(tmp_path):
    # measured compiles (Shannon decompositions), one of them padded with
    # outcome prefixes that cannot happen, and a plain dilation (column by
    # column, one uniformly controlled gate per step)
    src_dir = str(pathlib.Path(chancomp.__file__).resolve().parents[1])
    for model, (m, n, kr) in (("measured", (2, 3, 8)), ("measured", (3, 3, 5)),
                              ("qcm", (1, 4, 8))):
        name = f"{model}{m}{n}{kr}"
        src = tmp_path / f"{name}.json"
        src.write_text(channel_to_json(random_channel(m, n, kr, seed=12)))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
            out = tmp_path / f"{name}-{threads}.qcirc"
            proc = subprocess.run(
                [sys.executable, "-m", "chancomp.cli", "compile", "--model", model,
                 "--in", str(src), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name


def test_size_cap(tmp_path):
    ks = random_channel(3, 4, 8, seed=3)  # m+n+k = 10
    src = tmp_path / "big.json"
    src.write_text(channel_to_json(ks))
    out = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "measured", "--in", str(src), "--out", str(out)]) == 1


def test_size_cap_refuses_before_the_kraus_analysis(tmp_path, capsys, monkeypatch):
    import chancomp.channel as channel

    src = tmp_path / "wide.json"
    src.write_text(channel_to_json(random_channel(5, 6, 1, seed=3)))
    monkeypatch.setattr(channel, "minimal_kraus", lambda ks: pytest.fail("analysed"))
    for model in ("measured", "qcm", "random"):
        assert run(["compile", "--model", model, "--in", str(src),
                    "--out", str(tmp_path / "c.qcirc")]) == 1
        assert capsys.readouterr().err == \
            "error: m+n = 11 exceeds the m+n+k cap of 9\n"


def test_compile_and_verify_at_the_size_cap(tmp_path, capsys):
    src = tmp_path / "c338.json"
    src.write_text(channel_to_json(random_channel(3, 3, 8, seed=3)))  # m+n+k = 9
    out = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "measured", "--in", str(src), "--out", str(out),
                "--report"]) == 0
    assert capsys.readouterr().out.startswith("qubits=4 ")
    assert run(["verify", "--circuit", str(out), "--channel", str(src)]) == 0


@pytest.mark.parametrize("model", ["measured", "qcm", "random"])
def test_compile_runs_one_kraus_analysis(tmp_path, channel_file, monkeypatch, model):
    import chancomp.channel as channel

    calls = []
    analyse = channel.minimal_kraus
    monkeypatch.setattr(channel, "minimal_kraus", lambda ks: calls.append(ks) or analyse(ks))
    assert run(["compile", "--model", model, "--in", str(channel_file),
                "--out", str(tmp_path / "c.qcirc")]) == 0
    assert len(calls) == 1


def test_analysis_builds_no_choi_matrix(tmp_path, channel_file, monkeypatch, capsys):
    # a Choi matrix is built only for the template objective, never to
    # analyse a channel or to verify a circuit
    import chancomp.channel as channel
    from chancomp.compiler import (ConvexMixture, compile_qcm, compile_random_qcm,
                                   verify_circuit, verify_mixture)
    from chancomp.templates import fit, template

    def refuse(*args, **kwargs):
        pytest.fail("a Choi matrix was built")

    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "chancomp"]:
        if hasattr(mod, "choi_from_kraus"):
            monkeypatch.setattr(mod, "choi_from_kraus", refuse)
    monkeypatch.setattr(channel.ChoiMatrix, "__init__", refuse)
    for m, n, kr in [(1, 1, 2), (2, 2, 3), (2, 1, 4), (1, 2, 1)]:
        ks = random_channel(m, n, kr, seed=7)
        assert verify_circuit(compile_measured(ks), ks) < 1e-8
        assert verify_circuit(compile_qcm(ks), ks) < 1e-8
    mix = ConvexMixture([(0.5, random_channel(2, 2, 4, seed=8)),
                         (0.5, random_channel(2, 2, 1, seed=9))])
    assert verify_mixture(compile_random_qcm(mix), mix) < 1e-8
    assert run(["info", "--in", str(channel_file)]) == 0
    assert "kraus_rank=" in capsys.readouterr().out
    out = tmp_path / "c.qcirc"
    for model in ("measured", "qcm", "random"):
        assert run(["compile", "--model", model, "--in", str(channel_file),
                    "--out", str(out)]) == 0
    assert run(["verify", "--circuit", str(out), "--channel", str(channel_file)]) == 0
    assert "choi_dist=" in capsys.readouterr().out
    with pytest.raises(ValueError, match="handles Kraus rank <= 2"):
        fit(template("T11"), random_channel(1, 1, 3, seed=7))


def test_verify_pass_and_fail(tmp_path, channel_file, capsys):
    out = tmp_path / "c.qcirc"
    run(["compile", "--model", "measured", "--in", str(channel_file), "--out", str(out)])
    assert run(["verify", "--circuit", str(out), "--channel", str(channel_file),
                "--tol", "1e-8"]) == 0
    other = tmp_path / "other.json"
    other.write_text(channel_to_json(random_channel(1, 1, 2, seed=99)))
    code = run(["verify", "--circuit", str(out), "--channel", str(other), "--tol", "1e-8"])
    assert code == 2
    assert "choi_dist=" in capsys.readouterr().out


def test_verify_refuses_circuit_of_other_sizes(tmp_path, channel_file, capsys):
    two = tmp_path / "two.json"
    two.write_text(channel_to_json(random_channel(2, 1, 4, seed=3)))
    out = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "measured", "--in", str(two), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", "--circuit", str(out), "--channel", str(channel_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: circuit maps 2 to 1 qubits, but the channel maps 1 to 1")


def test_info(tmp_path, capsys):
    src = tmp_path / "ch.json"
    src.write_text(channel_to_json(random_channel(1, 1, 2, seed=11)))
    assert run(["info", "--in", str(src)]) == 0
    out = capsys.readouterr().out
    assert "m=1 n=1 kraus_rank=2 extreme=yes" in out
    assert "tp_residual=" in out


def test_info_runs_one_kraus_analysis(channel_file, monkeypatch, capsys):
    import chancomp.channel as channel

    calls = []
    analyse = channel.minimal_kraus
    monkeypatch.setattr(channel, "minimal_kraus", lambda ks: calls.append(ks) or analyse(ks))
    assert run(["info", "--in", str(channel_file)]) == 0
    assert "kraus_rank=" in capsys.readouterr().out
    assert len(calls) == 1


def test_random_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    assert run(["random", "--m", "1", "--n", "2", "--kraus-rank", "2",
                "--seed", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == 1 and doc["n"] == 2 and len(doc["kraus"]) == 2
    # identical invocation is byte-identical
    out2 = tmp_path / "r2.json"
    run(["random", "--m", "1", "--n", "2", "--kraus-rank", "2", "--seed", "5",
         "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_random_infeasible(tmp_path):
    assert run(["random", "--m", "2", "--n", "1", "--kraus-rank", "1",
                "--seed", "0", "--out", str(tmp_path / "x.json")]) == 1


def test_bounds_single(capsys):
    assert run(["bounds", "--m", "1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "lb_measured=2" in out
    assert "qubits_measured=2" in out


def test_bounds_grid_csv(capsys):
    assert run(["bounds", "--grid", "2", "2", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("m,n,lb_qcm")
    assert len(lines) == 1 + 9


@pytest.mark.parametrize("argv", [
    ["--m", "-3", "--n", "1"],
    ["--m", "1", "--n", "-1"],
    ["--grid", "-1", "2"],
])
def test_bounds_rejects_negative_sizes(capsys, argv):
    assert run(["bounds", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bounds_grid_output_unchanged(capsys):
    # sha256 of `bounds --grid 3 3` as printed before rows were streamed
    assert run(["bounds", "--grid", "3", "3"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 16
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6ed57a26773ce7c9df79e67f8b532d90b2f314f9b981380603293543856deb8a"


@pytest.mark.parametrize("grid,frag", [(["3000", "3000"], "rows, more than"),
                                       (["0", "7001"], "MMAX + NMAX <= 7000")])
def test_bounds_grid_refused_before_any_row(tmp_path, grid, frag):
    # --grid 3000 3000 used to build 9 million rows before printing any
    proc = _run_cli(["-m", "chancomp.cli", "bounds", "--grid", *grid], tmp_path, timeout=10)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("error: ") and frag in last


def test_fit_identity(tmp_path, capsys):
    src = tmp_path / "id.json"
    src.write_text(json.dumps(
        {"m": 1, "n": 1, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    ))
    out = tmp_path / "fit.qcirc"
    code = run(["fit", "--template", "1to1", "--in", str(src), "--starts", "20",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "distance=" in capsys.readouterr().out
    parse(out.read_text())


@pytest.mark.parametrize("starts", ["0", "-4"])
def test_fit_starts_checked_before_the_channel_is_read(tmp_path, capsys, starts):
    assert run(["fit", "--template", "2to2", "--in", str(tmp_path / "missing.json"),
                "--starts", starts]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: argument --starts: must be an integer >= 1, got '{starts}'")


def test_fit_refuses_a_rank_the_template_cannot_reach(tmp_path, capsys):
    src = tmp_path / "rank5.json"
    src.write_text(channel_to_json(random_channel(2, 2, 5, seed=5)))
    assert run(["fit", "--template", "2to2", "--in", str(src)]) == 1
    assert "T22 handles Kraus rank <= 4" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert run(["compile", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert run(["frobnicate"]) == 1


def test_missing_file_exits_one(tmp_path):
    assert run(["info", "--in", str(tmp_path / "nope.json")]) == 1


def _run_cli(args, cwd, timeout=120):
    src_dir = str(pathlib.Path(chancomp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_verify_above_the_choi_cap_runs_without_traceback(tmp_path):
    # a (5,6) Choi matrix would have 4^11 entries; verify builds none, so
    # only the simulator's cap limits it
    circ = tmp_path / "c.qcirc"
    circ.write_text("QUBITS 6\nCREGS 0\nINPUTS q1 q2 q3 q4 q5\nOUTPUTS q0 q1 q2 q3 q4 q5\n")
    embedding = KrausSet(5, 6, [np.eye(64, 32)])   # |0> (x) I, what the gate-free circuit does
    for ks, code in [(random_channel(5, 6, 1, seed=3), 2), (embedding, 0)]:
        ch = tmp_path / "ch.json"
        ch.write_text(channel_to_json(ks))
        proc = _run_cli(["-m", "chancomp.cli", "verify", "--circuit", str(circ),
                         "--channel", str(ch)], tmp_path, timeout=30)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        name, value = proc.stdout.strip().split("=")
        assert name == "choi_dist"
        assert (float(value) < 1e-12) == (code == 0)


def test_info_above_the_choi_cap_exits_zero(tmp_path):
    # info analyses the Kraus operators alone, so the (5,6) channel whose
    # Choi matrix choi_from_kraus refuses is analysed without one
    ch = tmp_path / "ch.json"
    ch.write_text(channel_to_json(random_channel(5, 6, 1, seed=3)))
    proc = _run_cli(["-m", "chancomp.cli", "info", "--in", str(ch)], tmp_path, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "m=5 n=6 kraus_rank=1 extreme=yes" in proc.stdout


def test_channel_with_a_dropped_tail_is_analysed_and_compiled(tmp_path):
    # the minimal form drops a 9e-10 tail; info reports rank 1, and every
    # model compiles the kept operator's nearest isometry, which verify
    # puts within 1e-8 of the channel
    e = 9e-10
    ch = tmp_path / "ch.json"
    ch.write_text(channel_to_json(KrausSet(1, 1, [np.sqrt(1 - e) * np.eye(2),
                                                  np.sqrt(e) * np.array([[0, 1], [1, 0]])])))
    proc = _run_cli(["-m", "chancomp.cli", "info", "--in", str(ch)], tmp_path, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "m=1 n=1 kraus_rank=1 extreme=yes" in proc.stdout
    for model in ("measured", "qcm", "random"):
        circ = tmp_path / f"{model}.qcirc"
        proc = _run_cli(["-m", "chancomp.cli", "compile", "--model", model, "--in", str(ch),
                         "--out", str(circ)], tmp_path, timeout=30)
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli(["-m", "chancomp.cli", "verify", "--circuit", str(circ), "--channel",
                         str(ch)], tmp_path, timeout=30)
        assert proc.returncode == 0, proc.stderr
        name, value = proc.stdout.strip().split("=")
        assert name == "choi_dist" and float(value) < 1e-8


_BAD_ENTRIES = {"info-nan": [float("nan"), 0.0], "info-bool-entry": [True, False],
                "info-three-item-entry": [1, 0, "junk"]}


@pytest.mark.parametrize("case", ["verify-40-qubits", "random-too-large", *_BAD_ENTRIES])
def test_oversized_or_non_finite_input_exits_one_without_traceback(tmp_path, case):
    ch = tmp_path / "ch.json"
    ch.write_text(channel_to_json(random_channel(1, 1, 2, seed=7)))
    if case == "verify-40-qubits":
        circ = tmp_path / "big.qcirc"
        circ.write_text("QUBITS 40\nCREGS 0\nINPUTS q39\nOUTPUTS q39\n")
        args = ["verify", "--circuit", str(circ), "--channel", str(ch)]
    elif case == "random-too-large":
        args = ["random", "--m", "20", "--n", "20", "--kraus-rank", "1", "--seed", "0",
                "--out", str(tmp_path / "r.json")]
    else:
        doc = json.loads(ch.read_text())
        doc["kraus"][0][0][0] = _BAD_ENTRIES[case]
        ch.write_text(json.dumps(doc))  # json writes the bare token NaN
        args = ["info", "--in", str(ch)]
    proc = _run_cli(["-m", "chancomp.cli", *args], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("command", ["info", "compile-measured", "compile-random", "verify"])
def test_too_deeply_nested_json_exits_one_without_traceback(tmp_path, command):
    # json.loads raises RecursionError on nesting this deep, not a ValueError
    deep = 100_000
    ch = tmp_path / "deep.json"
    ch.write_text('{"m": 1, "n": 1, "kraus": ' + "[" * deep + "]" * deep + "}")
    if command == "info":
        args = ["info", "--in", str(ch)]
    elif command == "verify":
        circ = tmp_path / "c.qcirc"
        circ.write_text("QUBITS 1\nCREGS 0\nINPUTS q0\nOUTPUTS q0\n")
        args = ["verify", "--circuit", str(circ), "--channel", str(ch)]
    else:
        args = ["compile", "--model", command.split("-")[1], "--in", str(ch),
                "--out", str(tmp_path / "out.qcirc")]
    proc = _run_cli(["-m", "chancomp.cli", *args], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("error: malformed channel JSON")


_MALFORMED_DOCS = {
    "top-level-list": ('[{"m": 1, "n": 1}]', "the document must be a JSON object"),
    # json.loads refuses an integer literal past Python's 4,300-digit limit
    "5000-digit-m": ('{"m": ' + "9" * 5000 + ', "n": 1, "kraus": []}',
                     "an integer has too many digits"),
}


@pytest.mark.parametrize("command", ["info", "compile-random"])
@pytest.mark.parametrize("case", sorted(_MALFORMED_DOCS))
def test_malformed_json_is_worded_as_ours(tmp_path, case, command):
    text, reason = _MALFORMED_DOCS[case]
    ch = tmp_path / "doc.json"
    ch.write_text(text)
    args = ["info", "--in", str(ch)] if command == "info" else [
        "compile", "--model", "random", "--in", str(ch), "--out", str(tmp_path / "out.qcirc")]
    proc = _run_cli(["-m", "chancomp.cli", *args], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: malformed channel JSON: {reason}\n"


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    code = "import sys, chancomp.cli; print('scipy.optimize' in sys.modules)"
    proc = _run_cli(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_fit_on_a_compile_skeleton_leaves_scipy_unloaded(tmp_path):
    # a subprocess, since pytest has imported scipy in this one: the
    # compiled start realizes a rank-2 1-to-1 and a rank-4 2-to-2 channel,
    # so no search runs
    (tmp_path / "1to1.json").write_text(channel_to_json(random_channel(1, 1, 2, seed=3)))
    (tmp_path / "2to2.json").write_text(channel_to_json(random_channel(2, 2, 4, seed=3)))
    code = ("import sys; from chancomp.cli import run; "
            "codes = [run(['fit', '--template', key, '--in', key + '.json', "
            "'--out', key + '.qcirc']) for key in ('1to1', '2to2')]; "
            "print(*codes, 'scipy' in sys.modules)")
    proc = _run_cli(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 0 False"
    for key in ("1to1", "2to2"):
        parse((tmp_path / f"{key}.qcirc").read_text())


def test_a_call_builds_only_the_template_it_fits(tmp_path):
    # a subprocess, so that no template is built before the calls run
    (tmp_path / "ch.json").write_text(channel_to_json(random_channel(1, 1, 2, seed=3)))
    code = '''
from chancomp.cli import run
from chancomp.templates import template
for argv in (["compile", "--model", "measured", "--in", "ch.json", "--out", "c.qcirc"],
             ["verify", "--circuit", "c.qcirc", "--channel", "ch.json"],
             ["bounds", "--m", "2", "--n", "2"],
             ["fit", "--template", "1to1", "--in", "ch.json"]):
    print("built", run(argv), template.cache_info().currsize)
'''
    proc = _run_cli(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    built = [line for line in proc.stdout.splitlines() if line.startswith("built")]
    assert built == ["built 0 0"] * 3 + ["built 0 1"]


def test_measured_compile_leaves_scipy_linalg_unloaded(tmp_path):
    # a (2,2,4) channel takes the Shannon decomposition, which uses numpy.linalg only
    (tmp_path / "ch.json").write_text(channel_to_json(random_channel(2, 2, 4, seed=5)))
    code = ("import sys; from chancomp.cli import run; "
            "code = run(['compile', '--model', 'measured', '--in', 'ch.json', "
            "'--out', 'c.qcirc']); print(code, 'scipy.linalg' in sys.modules)")
    proc = _run_cli(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


_CORE = {"channel", "circuit", "cli", "compiler", "linalg", "simulator", "synth"}
# argv, exit code, the chancomp modules the call loads, and whether it loads numpy
_LOADS = {
    "bounds": (["bounds", "--m", "2", "--n", "3"], 0, {"bounds", "cli"}, False),
    "bounds-error": (["bounds", "--m", "-3", "--n", "1"], 1, {"bounds", "cli"}, False),
    "argument-error": (["fit", "--template", "1to1", "--in", "ch.json", "--starts", "0"], 1,
                       {"cli"}, False),
    "compile": (["compile", "--model", "measured", "--in", "ch.json", "--out", "out.qcirc"], 0,
                _CORE | {"rewrite"}, True),
    "compile-qcm": (["compile", "--model", "qcm", "--in", "ch.json", "--out", "out.qcirc"], 0,
                    _CORE | {"rewrite"}, True),
    "compile-random": (["compile", "--model", "random", "--in", "ch.json", "--out", "out.qcirc"],
                       0, _CORE | {"rewrite"}, True),
    "verify": (["verify", "--circuit", "c.qcirc", "--channel", "ch.json"], 0, _CORE, True),
    "info": (["info", "--in", "ch.json"], 0, {"channel", "cli", "linalg"}, True),
    "random": (["random", "--m", "1", "--n", "2", "--kraus-rank", "2", "--seed", "3",
                "--out", "r.json"], 0, {"channel", "cli", "linalg"}, True),
    "fit": (["fit", "--template", "1to1", "--in", "ch.json"], 0,
            _CORE | {"rewrite", "templates"}, True),
}


@pytest.mark.parametrize("case", sorted(_LOADS))
def test_a_call_loads_only_the_modules_its_command_runs(tmp_path, case):
    # a subprocess, since this one has loaded every module; no call here
    # runs the fit search, so none loads scipy
    argv, want, modules, numpy = _LOADS[case]
    ks = random_channel(1, 1, 2, seed=3)
    (tmp_path / "ch.json").write_text(channel_to_json(ks))
    (tmp_path / "c.qcirc").write_text(serialize(standard_passes(compile_measured(ks))))
    code = ("import sys; from chancomp.cli import run; code = run(sys.argv[1:]); "
            "print(code, *sorted(m for m in sys.modules if m.startswith('chancomp.')), "
            "'numpy' in sys.modules, 'scipy' in sys.modules)")
    proc = _run_cli(["-c", code, *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == [str(want), *(f"chancomp.{m}" for m in sorted(modules)), str(numpy),
                      "False"]


_SIZE_CASES = {
    "info-huge-m": ["info", "--in", "doc.json"],
    "info-string-m": ["info", "--in", "doc.json"],
    "info-float-n": ["info", "--in", "doc.json"],
    "info-bool-m": ["info", "--in", "doc.json"],
    "random-huge-m": ["random", "--m", "100000000000", "--n", "1", "--kraus-rank", "1",
                      "--seed", "0", "--out", "r.json"],
    "random-negative-m": ["random", "--m", "-1", "--n", "1", "--kraus-rank", "1",
                          "--seed", "0", "--out", "r.json"],
    "bounds-huge-m": ["bounds", "--m", "100000000000", "--n", "1"],
    "bounds-digit-limit": ["bounds", "--m", "5000000", "--n", "1"],
    "verify-huge-qubits": ["verify", "--circuit", "huge.qcirc", "--channel", "doc.json"],
}
_SIZE_DOCS = {"info-huge-m": (100_000_000_000, 1), "info-string-m": ("1", 1),
              "info-float-n": (1, 1.9), "info-bool-m": (True, 1)}


@pytest.mark.parametrize("case", sorted(_SIZE_CASES))
def test_qubit_counts_checked_before_any_power(tmp_path, case):
    # each of these ran until killed, or died on int-to-str conversion
    doc = json.loads(channel_to_json(random_channel(1, 1, 2, seed=7)))
    doc["m"], doc["n"] = _SIZE_DOCS.get(case, (1, 1))
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    (tmp_path / "huge.qcirc").write_text("QUBITS 100000000000\nCREGS 0\nINPUTS q0\nOUTPUTS q0\n")
    proc = _run_cli(["-m", "chancomp.cli", *_SIZE_CASES[case]], tmp_path, timeout=10)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("line", ["RY", "U", "IF c0=1 RZ", "IF c0=0 RESET q0"])
def test_verify_malformed_circuit_exits_one_without_traceback(tmp_path, line):
    ch = tmp_path / "ch.json"
    ch.write_text(channel_to_json(random_channel(1, 1, 2, seed=7)))
    circ = tmp_path / "bad.qcirc"
    circ.write_text(f"QUBITS 2\nCREGS 1\nINPUTS q1\nOUTPUTS q1\nMEASURE q0 c0\n{line}\n")
    proc = _run_cli(["-m", "chancomp.cli", "verify", "--circuit", str(circ), "--channel", str(ch)],
                    tmp_path, timeout=30)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines()[-1].startswith("error: ")
    assert "line 6: " in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "nan"], ["verify", "--tol", "-1"], ["verify", "--tol", "0"],
    ["verify", "--tol", "inf"], ["verify", "--tol", "-inf"], ["verify", "--tol", "tiny"],
    ["fit", "--max-iters", "0"], ["fit", "--max-iters", "-5"], ["fit", "--max-iters", "2.5"],
    ["compile", "--k", "5"],   # --model random took --k and ignored it
    ["fit", "--seed", "-3"], ["random", "--seed", "-1"],   # numpy's error named no flag
    ["fit", "--starts", "0"], ["fit", "--starts", "-4"],   # reached fit after the channel
])
def test_out_of_range_knobs_exit_one_without_traceback(tmp_path, argv):
    # a correct circuit, so the exit code can only come from the knob
    ch = tmp_path / "ch.json"
    ch.write_text(channel_to_json(random_channel(1, 1, 2, seed=7)))
    circ = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "measured", "--in", str(ch), "--out", str(circ)]) == 0
    if argv[0] == "verify":
        args = ["verify", "--circuit", str(circ), "--channel", str(ch), *argv[1:]]
    elif argv[0] == "fit":
        args = ["fit", "--template", "1to1", "--in", str(ch), "--starts", "1", *argv[1:]]
    elif argv[0] == "random":
        args = ["random", "--m", "1", "--n", "1", "--kraus-rank", "1",
                "--out", str(tmp_path / "r.json"), *argv[1:]]
    else:
        args = ["compile", "--model", "random", "--in", str(ch),
                "--out", str(tmp_path / "r.qcirc"), *argv[1:]]
    proc = _run_cli(["-m", "chancomp.cli", *args], tmp_path, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: argument " + argv[1] + ": "), proc.stderr


def test_in_range_knobs_are_accepted(tmp_path, channel_file):
    circ = tmp_path / "c.qcirc"
    assert run(["compile", "--model", "measured", "--in", str(channel_file),
                "--out", str(circ)]) == 0
    def verify(tol):
        return run(["verify", "--circuit", str(circ), "--channel", str(channel_file),
                    "--tol", tol])
    assert verify("1e-8") == 0 and verify("1e308") == 0
    assert verify("5e-324") in (0, 2)   # accepted; the circuit is then judged
