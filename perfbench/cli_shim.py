"""One chancomp CLI call with the benchmark's tracer installed.

Used by the traced run of the cli-calls workload in place of
``python -m chancomp.cli``; the call behaves the same, and its span
summary and spans are written to ``$PERFBENCH_TRACE_DIR`` on exit.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import chancomp.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    try:
        return chancomp.cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        out = os.path.join(os.environ["PERFBENCH_TRACE_DIR"], f"cli-{os.getpid()}")
        spans.dump_summary(out + ".json", tracer)
        tracer.save(out + ".npz")


if __name__ == "__main__":
    sys.exit(main())
