"""degenpoly benchmark harness: one command, three workloads, checked outputs.

    python3 bench/run.py --workload suite|tables|eval-stream|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.

Untraced (``--trace 0``): runs passes of the workload one at a time, each
in a fresh single-threaded ``bench/worker.py`` subprocess, so that a pass
never profits from caches an earlier pass filled. Passes continue while
the ones so far suggest another fits in ``--seconds`` (at least
MIN_PASSES, so a ``suite`` run outlasts ``--seconds``). Set-up probes,
fresh interpreters running one tiny command, run before and between the
passes. Reports medians over the passes and probes, and percentiles over
the operations of each operation's median latency. Times are reported as
reference times, scaled by the host's speed sampled around and during
them (``speed.py``); the wall-clock times are printed beside them.

Traced (``--trace 1``): runs the tracer self-test, then one untraced and
one traced pass, and reports per-layer counts and self times from the
traced pass plus the tracing overhead. End-to-end metrics never come from
a traced pass.

Every operation's output is checked outside the timed region and outside
the worker; a failure counts toward ``failed`` and never stops the
harness. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the machine
context, every metric by name with its unit, and the fail ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SPANS_DIR = BENCH / "out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from speed import START_REF_S  # noqa: E402

SETUP_ARGV = ["eval", "powersum", "--m", "2", "--n", "2", "--lambda", "0"]
SETUP_EXPECTED = "5"
#: A set-up probe ends when the command returns; ``perf_counter`` is the
#: system-wide monotonic clock, so the harness can read the child's end.
SETUP_CODE = f"""\
import io, time
from degenpoly.cli import main
sink = io.StringIO()
status = main({SETUP_ARGV!r}, sink)
end = time.perf_counter()
import json
print(json.dumps({{"status": status, "output": sink.getvalue(), "end": end}}))
"""
#: A bare interpreter start, the host's speed at starting one (speed.py).
BARE_CODE = 'import json, time; print(json.dumps({"end": time.perf_counter()}))'
FIRST_PROBES = 6
#: A suite pass takes 14-24 s; with a single pass, each check's latency is
#: one sample and the suite's op_p50_ref_ms spread 0.10 over ten runs.
MIN_PASSES = 2
PROBES_PER_PASS = 2
PASS_TIMEOUT_S = 170

class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing so that set and dict layouts repeat across passes.
    env["PYTHONHASHSEED"] = "0"
    # Set-up is measured with the bytecode cache filled, as an installed
    # package has it, whatever the calling environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _context() -> dict:
    """Machine context recorded with every result."""
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                revision = target.read_text().strip()
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def _interpreter(code: str, env) -> tuple:
    """(seconds from starting a fresh interpreter to the end it reports, report)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    try:
        report = json.loads(proc.stdout)
        return report["end"] - start, report
    except (ValueError, KeyError, TypeError):
        raise HarnessError(f"interpreter for a set-up probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}") from None


def setup_probes(env, count: int) -> list:
    """(seconds, reference seconds, ok) of ``count`` set-up probes: from a
    fresh interpreter to a finished trivial command. Bare interpreter starts
    before and after each probe give the host's speed at starting one."""
    probes = []
    bare = _interpreter(BARE_CODE, env)[0]
    for _ in range(count):
        seconds, report = _interpreter(SETUP_CODE, env)
        after = _interpreter(BARE_CODE, env)[0]
        ok = report.get("status") == 0 and _json_value(report.get("output")) == SETUP_EXPECTED
        probes.append((seconds, seconds * START_REF_S / ((bare + after) / 2), ok))
        bare = after
    return probes


def _json_value(text: str):
    try:
        return json.loads(text)["value"]
    except (ValueError, KeyError, TypeError):
        return None


def run_worker(workload: str, seed: int, trace: bool, env, spans_path: str = "") -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "1" if trace else "0"]
    if spans_path:
        cmd.append(spans_path)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker for {workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, env) -> tuple:
    """Untraced passes, with set-up probes between them: (passes, probes).

    The machine's speed drifts over tens of seconds, so the probes are spread
    over the run like the passes. A first probe, not counted, fills the
    bytecode cache, which users pay once, not per command.
    """
    setup_probes(env, 1)
    probes = setup_probes(env, FIRST_PROBES)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_worker(workload, seed, False, env))
        probes += setup_probes(env, PROBES_PER_PASS)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            return passes, probes


# ---------------------------------------------------------------------------
# checking (outside every timed region, outside the worker process)
# ---------------------------------------------------------------------------


def _import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import degenpoly.sequences

    return degenpoly.sequences


def _schema_validator():
    schema = json.loads((SRC / "degenpoly" / "output-schema.json").read_text(encoding="utf-8"))
    try:
        import jsonschema
    except ImportError:
        raise HarnessError("jsonschema is required to validate the suite report") from None
    return jsonschema.validators.validator_for(schema)(schema).validate


class Checker:
    """Judges the operations of a pass: (times, attempted, failed), where
    times holds each operation's (seconds, reference seconds)."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.argvs = workloads.operations(workload, seed)
        self.notes = []
        if workload == "suite":
            self.validate = _schema_validator()
        elif workload == "tables":
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
            self.expected = [recorded.get(" ".join(argv)) for argv in self.argvs]
        else:
            self.expected = [_eval_reference(q) for q in workloads.eval_queries(seed)]

    def fail(self, index, why):
        """Keep the reason an operation failed (the first 20 reasons)."""
        if len(self.notes) < 20:
            self.notes.append(f"{self.workload} op {index}: {why}")

    def judge(self, result: dict) -> tuple:
        ops = result["ops"]
        if len(ops) != len(self.argvs):
            self.fail("-", f"{len(ops)} operations ran, {len(self.argvs)} expected")
            attempted = max(len(ops), len(self.argvs))
            return [(op["s"], op["ref_s"]) for op in ops] or [(result["wall_s"], result["wall_ref_s"])], attempted, attempted
        if self.workload == "suite":
            return self._judge_suite(ops[0], result["checks"])
        failed = 0
        for index, (op, expected) in enumerate(zip(ops, self.expected)):
            why = self._problem(op)
            if why is None and self.workload == "tables" and op["sha256"] != expected:
                why = f"sha256 {op['sha256']} != recorded {expected}"
            if why is None and self.workload == "eval-stream":
                value = _json_value(op["text"])
                if value != expected:
                    why = f"value {value} != reference {expected}"
            if why is not None:
                failed += 1
                self.fail(index, f"{' '.join(self.argvs[index])}: {why}")
        return [(op["s"], op["ref_s"]) for op in ops], len(ops), failed

    @staticmethod
    def _problem(op):
        if op["error"] is not None:
            return op["error"]
        if op["status"] != 0:
            return f"exit status {op['status']}"
        return None

    def _judge_suite(self, op, checks):
        # The suite's operations are its checks; if none was timed, the
        # whole call stands in for them.
        times = [(seconds, ref) for _, seconds, ref in checks] or [(op["s"], op["ref_s"])]
        # Exit status 1 is a report with a failed check, judged below.
        why = op["error"] if op["status"] == 1 else self._problem(op)
        if why is None:
            why, statuses = self._read_report(op["text"])
        if why is None and list(statuses) != [cid for cid, *_ in checks]:
            why = "per-check timings do not match the report's checks"
        if why is not None:
            self.fail(0, why)
            return times, len(times), len(times)
        failed = [cid for cid, status in statuses.items() if status != "pass"]
        for cid in failed:
            self.fail(0, f"check {cid} did not pass")
        return times, len(times), len(failed)

    def _read_report(self, text):
        """(problem or None, {check id: status}) for a verify JSON report."""
        try:
            doc = json.loads(text)
            self.validate(doc)
            return None, {c["id"]: c["status"] for c in doc["checks"]}
        except Exception as exc:  # noqa: BLE001 - any defect in the report fails it
            return f"report invalid: {str(exc)[:300]}", {}


@lru_cache(maxsize=None)
def _power_sum(m, n, route):
    return _import_program().power_sum(m, n, route)


@lru_cache(maxsize=None)
def _explicit_row(n):
    return _import_program().eulerian_table(n, "explicit").row(n)


#: The route each eval query is checked against: never the one it used.
OTHER_POWER_SUM_ROUTE = {"direct": "eulerian", "eulerian": "bernoulli", "bernoulli": "direct"}


def _eval_reference(q) -> str:
    """The queried value by a different library route, rendered like the CLI."""
    if q.family == "powersum":
        value = _power_sum(q.m, q.n, OTHER_POWER_SUM_ROUTE[q.route]).eval(q.lam)
    elif q.route == "direct" and q.x == -1:
        value = _import_program().eulerian_at_minus_one(q.n, "bernoulli").eval(q.lam)
    else:
        value = sum((entry.eval(q.lam) * q.x**k for k, entry in enumerate(_explicit_row(q.n))),
                    Fraction(0))
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metrics(spec_metrics, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def untraced_run(workload: str, seed: int, seconds: float, env) -> dict:
    passes, probes = run_passes(workload, seed, seconds, env)
    checker = Checker(workload, seed)
    # Each set-up probe is an operation too: it must print the right value.
    attempted = len(probes)
    failed = sum(not ok for *_, ok in probes)
    rss, times = [], []
    for result in passes:
        pass_times, pass_attempted, pass_failed = checker.judge(result)
        attempted += pass_attempted
        failed += pass_failed
        times.append(pass_times)
        rss.append(result["peak_rss_mb"])
    values, raw = {}, {}
    for out, column, suffix in ((values, 1, "ref_"), (raw, 0, "")):
        # Each operation's latency is its median over the passes.
        op_latencies = [statistics.median(op[column] for op in op_times)
                        for op_times in zip(*times)]
        out[f"wall_{suffix}s"] = statistics.median(sum(op[column] for op in pass_times)
                                                   for pass_times in times)
        out[f"op_p50_{suffix}ms"] = _percentile(op_latencies, 50) * 1e3
        out[f"op_p90_{suffix}ms"] = _percentile(op_latencies, 90) * 1e3
    values["setup_s"] = statistics.median(ref for _, ref, _ in probes)
    values["peak_rss_mb"] = statistics.median(rss)
    raw["setup_wall_s"] = statistics.median(seconds for seconds, _, _ in probes)
    return {
        "metrics": _metrics(_spec()["end_to_end"], values),
        "raw": raw,
        "attempted": attempted,
        "failed": failed,
        "notes": checker.notes + [
            f"passes={len(passes)} ops_per_pass={pass_attempted} "
            f"output_bytes_per_pass={sum(op['bytes'] for op in passes[0]['ops'])} "
            f"pass_wall_s={[round(r['wall_s'], 4) for r in passes]} "
            f"pass_wall_ref_s={[round(r['wall_ref_s'], 4) for r in passes]}"
        ],
    }


def _layer_value(name: str, report: dict, traced: dict, untraced: dict):
    """The value of one per-layer metric named in BENCHMARK.json."""
    stats, counts = report["stats"], report["counts"]
    if name == "trace.overhead_s":
        return traced["wall_s"] - untraced["wall_s"]
    if name == "trace.spans_dropped":
        return report["spans_dropped"]
    if name == "cli.output_bytes":
        return sum(op["bytes"] for op in traced["ops"])
    if name in ("algebra.max_coeff_bits", "algebra.max_lambda_degree"):
        return report[name.split(".", 1)[1]]
    if name == "sequences.eulerian_table.useful_ratio":
        calls = sum(v[0] for k, v in stats.items() if k.startswith("sequences.eulerian_table."))
        return report["eulerian_table_distinct"] / calls if calls else 0.0
    if name.endswith(".cases") or name == "oracles.permutations":
        return counts.get(name, 0)
    if name.startswith("verify.check.") and name.endswith(".wall_s"):
        # Check wall times come from the untraced pass of the same run.
        check_id = name[len("verify.check."):-len(".wall_s")]
        return sum((seconds for cid, seconds, _ in untraced["checks"] if cid == check_id), 0.0)
    label, field = name.rsplit(".", 1)
    index = {"calls": 0, "wall_s": 1, "self_s": 2}[field]
    if label == "cli.render":  # render_rational, render_lambda_poly, render_xl_poly
        return sum((v[index] for k, v in stats.items() if k.startswith("cli.render_")), 0.0 if index else 0)
    return stats.get(label, [0, 0.0, 0.0])[index]


def traced_run(workload: str, seed: int, env) -> dict:
    selftest = subprocess.run([sys.executable, str(BENCH / "selftest.py")], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if selftest.returncode != 0:
        raise HarnessError(f"tracer self-test failed:\n{selftest.stdout}{selftest.stderr}")
    untraced = run_worker(workload, seed, False, env)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    traced = run_worker(workload, seed, True, env, str(spans_path))
    checker = Checker(workload, seed)
    attempted = failed = 0
    for result in (untraced, traced):
        _, pass_attempted, pass_failed = checker.judge(result)
        attempted += pass_attempted
        failed += pass_failed
    for index, (a, b) in enumerate(zip(untraced["ops"], traced["ops"])):
        if a["sha256"] != b["sha256"]:
            failed += 1
            checker.fail(index, "traced output differs from the untraced output")
    spec = _spec()["per_layer"]
    values = {m["name"]: _layer_value(m["name"], traced["trace"], traced, untraced) for m in spec}
    return {
        "metrics": _metrics(spec, values),
        "attempted": attempted,
        "failed": failed,
        "notes": checker.notes + [
            f"traced wall_s={traced['wall_s']:.4f} untraced wall_s={untraced['wall_s']:.4f} "
            f"{traced['trace']['spans']} spans written to {spans_path.relative_to(ROOT)}"
        ],
    }


def _print_result(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:12s} {name} = {metric['value']!r} {metric['unit']}")
    for name, value in result.get("raw", {}).items():
        unit = name.rsplit("_", 1)[1]
        print(f"{workload:12s} {name} = {value!r} {unit} (wall clock, not a metric)")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload:12s} fail_ratio = {ratio!r} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for note in result["notes"]:
        print(f"{workload:12s} note: {note}")


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = _env()
    try:
        if not (SRC / "degenpoly" / "cli.py").is_file():
            raise HarnessError(f"no program to measure: {SRC / 'degenpoly'} is missing")
        print("context: " + json.dumps(_context()))
        chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in chosen:
            if args.trace:
                results[workload] = traced_run(workload, args.seed, env)
            else:
                results[workload] = untraced_run(workload, args.seed, args.seconds, env)
            _print_result(workload, results[workload])
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
