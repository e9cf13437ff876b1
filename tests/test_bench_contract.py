"""The benchmark harness still reaches the program by the names it uses,
and the program still prints the table bytes the harness recorded."""

import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

from degenpoly.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SELFTEST = BENCH / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout


def test_tables_match_the_recorded_digests():
    # the `tables` commands in-process, hashed as the harness hashes stdout
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    argvs = workloads.operations("tables", 0)
    assert len(argvs) == len(recorded) == 11
    for argv in argvs:
        sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
        assert main(argv, sink) == 0, argv
        sink.flush()
        digest = hashlib.sha256(sink.buffer.getvalue()).hexdigest()
        assert digest == recorded[" ".join(argv)], argv
