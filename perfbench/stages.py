"""Per-stage times of single inputs, read from a traced run's spans.

    python3 perfbench/run.py --workload measured-grid --seed 1 --seconds 25 --trace 1
    python3 perfbench/stages.py .perfbench_out/spans-measured-grid.npz 1,2,2 2,2,4

Prints, for each named input (all inputs if none is named), the
wall-clock ms of the compile stages laid out like the baseline table in
ROADMAP.md: plan, synth (the compile minus its plan), rewrite, verify,
serialize + parse.  With several traced rounds it prints the median.
"""

import statistics
import sys

import numpy as np

COLUMNS = ("plan", "synth", "rewrite", "verify", "ser+parse")


def stage_times(path: str) -> dict:
    """label -> list (one per traced round) of {column: ms}."""
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    dur_ms = (data["end"] - data["start"]) * 1e3
    op_of = np.full(len(name), -1)
    rows = {}
    for i in range(len(name)):
        label = names[name[i]]
        # a parent span always has a lower index than its children
        op_of[i] = i if label.startswith("op ") else (op_of[parent[i]] if parent[i] >= 0 else -1)
        if op_of[i] < 0:
            continue
        row = rows.setdefault(op_of[i], dict.fromkeys(("compile", *COLUMNS), 0.0))
        if parent[i] != op_of[i]:
            if label == "compiler.plan" and names[name[parent[i]]] == "compiler.compile":
                row["plan"] += dur_ms[i]
            continue
        if label == "compiler.compile":
            row["compile"] += dur_ms[i]
        elif label == "rewrite.passes":
            row["rewrite"] += dur_ms[i]
        elif label == "compiler.verify":
            row["verify"] += dur_ms[i]
        elif label in ("circuit.serialize", "circuit.parse"):
            row["ser+parse"] += dur_ms[i]
    out = {}
    for op, row in rows.items():
        row["synth"] = row.pop("compile") - row["plan"]
        out.setdefault(names[name[op]][3:], []).append(row)
    return out


def main() -> None:
    table = stage_times(sys.argv[1])
    labels = sys.argv[2:] or list(table)
    print("| input | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for label in labels:
        rounds = table[label]
        cells = [f"{statistics.median(r[c] for r in rounds):.1f}" for c in COLUMNS]
        print(f"| ({label}) | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
