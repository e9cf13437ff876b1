"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload tables --seeds 101-110 [--json out.json]

Runs ``bench/run.py --workload W --seed S --trace 0`` once per seed, one
run at a time, and prints for every end-to-end metric its median, first
and third quartile (``statistics.quantiles(values, n=4)``) and spread,
(Q3 - Q1) / median, next to the metric's bound and a third of it. With
``--json`` it also writes the runs' values there (bench/baseline.json was
made this way). Exits 1 if a run fails or prints an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("101-110"))
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(spec["run_seconds"])
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        context = json.loads(lines[0].split(":", 1)[1])
        runs.append({"seed": seed, "loadavg_at_start": context["loadavg_at_start"],
                     "notes": [line for line in lines if " note: " in line], **result})
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
    summary = {}
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / median, "values": values}
        print(f"{metric['name']:15s} median {median:.5g} {metric['unit']}  "
              f"spread {(q3 - q1) / median:.3f}  bound {metric['bound']}  "
              f"third {metric['bound'] / 3:.3f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": int(seconds),
                                         "end_to_end": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
