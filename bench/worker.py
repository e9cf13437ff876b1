"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <trace 0|1> [spans.jsonl]

Runs every operation of one pass of the workload in-process through
``degenpoly.cli.main`` and prints one JSON line: per-operation time and
reference time (see ``speed.py``), exit status, output digest and size
(and, where the checker needs them, the output text), the pass's time and
reference time (the sums over its operations), peak RSS and, when traced,
the tracer's aggregates. An untraced pass samples the host's speed while
it runs; a traced pass does not, so that no calibration lands in a span,
and its reference times are null. Correctness is judged by the caller,
outside the timed region and outside this process.

``degenpoly`` must be importable (run.py puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import nullcontext

import workloads
from speed import Speedometer

#: Workloads whose output text the checker reads: the suite report and the
#: eval values. Table outputs are only hashed.
KEEP_TEXT = {"suite", "eval-stream"}


def _time_checks(verify, log):
    """Time each run_check call, so the suite's operations are its checks."""
    run_check = verify.run_check

    def timed(check, *args, **kwargs):
        start = time.perf_counter()
        spec = run_check(check, *args, **kwargs)
        log.append([check.id, start, time.perf_counter()])
        return spec

    verify.run_check = timed


def run_pass(workload: str, seed: int, trace: bool, spans_path: str = "") -> dict:
    from degenpoly import cli, verify

    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    checks = []
    if workload == "suite":
        _time_checks(verify, checks)

    keep = workload in KEEP_TEXT
    speedometer = None if trace else Speedometer()
    ops = []
    with speedometer or nullcontext():
        for index, argv in enumerate(workloads.operations(workload, seed)):
            ops.append(_run_op(cli, argv, index, tracer, keep))

    def measure(interval):
        start, end = interval
        return speedometer.measure(start, end) if speedometer else (end - start, None)

    for op in ops:
        op["s"], op["ref_s"] = measure(op.pop("interval"))
    checks = [[cid, *measure(interval)] for cid, *interval in checks]
    result = {
        # The pass's times are those of its timed calls, without the hashing
        # between them.
        "wall_s": sum(op["s"] for op in ops),
        "wall_ref_s": None if trace else sum(op["ref_s"] for op in ops),
        "ops": ops,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        if spans_path:
            tracer.write_spans(spans_path)
    return result


def _run_op(cli, argv, index, tracer, keep) -> dict:
    """Run one operation; the caller turns its timed interval into times."""
    if tracer is not None:
        tracer.op = index
    # Encodes what the CLI writes as stdout would, into memory.
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    error = None
    start = time.perf_counter()
    try:
        status = cli.main(argv, sink)
    except SystemExit as exc:  # argparse rejects a usage error by exiting
        status = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - any crash is a failed operation
        status = None
        error = repr(exc)
    end = time.perf_counter()
    # Hashing and counting the output stay outside the timed call.
    sink.flush()
    data = sink.buffer.getvalue()
    return {
        "interval": (start, end),
        "status": status,
        "error": error,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "text": data.decode("utf-8") if keep else None,
    }


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else ""
    # The CLI writes to the sink; anything else it prints must not end up
    # in the result line.
    stdout, sys.stdout = sys.stdout, sys.stderr
    try:
        result = run_pass(workload, seed, trace, spans_path)
    finally:
        sys.stdout = stdout
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
