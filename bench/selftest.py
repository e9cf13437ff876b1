"""Self-test of the benchmark harness; exits 0 when every check holds.

    python3 bench/selftest.py

Checks that workload generation is deterministic in the seed, and that the
tracer sees every call and changes no output: tracing
``thm-2.8-stirling2-from-eulerian`` at n_max=3 must count exactly
10 = sum_{n<=3}(n+1) ``eulerian_table`` calls and 10 cases, and traced
outputs must be byte-identical to untraced ones.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

CHECK = "thm-2.8-stirling2-from-eulerian"
OPERATIONS = (
    ["verify", "--check", CHECK, "--n-max", "3", "--format", "json"],
    ["table", "stirling2", "--n-max", "5", "--route", "eulerian"],
    ["table", "eulerian-poly", "--n-max", "4", "--lambda", "1/2", "--format", "csv"],
    ["eval", "powersum", "--m", "5", "--n", "3", "--lambda=-2/3", "--route", "bernoulli"],
    ["eval", "eulerian-at", "--x=-1/2", "--n", "4", "--lambda", "3", "--human"],
)


def _outputs(main, operations=OPERATIONS) -> list:
    outputs = []
    for argv in operations:
        sink = io.StringIO()
        status = main(argv, sink)
        outputs.append((status, sink.getvalue()))
    return outputs


def main() -> int:
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    for workload in workloads.WORKLOADS:
        first = json.dumps(workloads.operations(workload, 7))
        expect(first == json.dumps(workloads.operations(workload, 7)),
               f"{workload}: the same seed gave different argv lists")
    for workload in ("tables", "eval-stream"):
        expect(workloads.operations(workload, 7) != workloads.operations(workload, 8),
               f"{workload}: seeds 7 and 8 gave the same argv lists")

    from degenpoly import algebra, cli, sequences, verify

    untraced = _outputs(cli.main)
    expect(all(status == 0 for status, _ in untraced), f"untraced exit statuses: {untraced}")

    tracer = Tracer()
    install(tracer)
    expect(verify.eulerian_table is sequences.eulerian_table is not None
           and hasattr(verify.eulerian_table, "__wrapped__"),
           "verify's `from .sequences import eulerian_table` binding was not re-pointed")
    expect(algebra.LambdaPoly.__rmul__ is algebra.LambdaPoly.__mul__
           and hasattr(algebra.LambdaPoly.__mul__, "__wrapped__"),
           "LambdaPoly.__rmul__ alias was not re-pointed")

    _outputs(cli.main, OPERATIONS[:1])
    table_calls = sum(stat[0] for label, stat in tracer.stats.items()
                      if label.startswith("sequences.eulerian_table."))
    expect(table_calls == 10, f"{CHECK} at n_max=3: {table_calls} eulerian_table calls, expected 10")
    cases = tracer.counts.get(f"verify.check.{CHECK}.cases")
    expect(cases == 10, f"{CHECK} at n_max=3: {cases} cases, expected 10")

    traced = _outputs(cli.main)
    expect(traced == untraced, f"traced outputs differ: {traced} != {untraced}")
    for layer in ("algebra", "egf", "sequences", "verify", "cli"):
        expect(any(label.startswith(layer + ".") for label in tracer.stats),
               f"no {layer} call was traced")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
