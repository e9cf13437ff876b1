"""The benchmark harness still reaches the program by the names it uses,
and the program still prints the table bytes the harness recorded."""

import hashlib
import importlib.util
import io
import json
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

from degenpoly import algebra, cli, egf, sequences
from degenpoly.cli import build_parser, main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SELFTEST = BENCH / "selftest.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _recorded_digests():
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def _run(argv):
    """main's exit status and stdout bytes, written as the harness writes them."""
    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    status = main(argv, sink)
    sink.flush()
    return status, sink.buffer.getvalue()


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout


def test_tables_match_the_recorded_digests():
    # the `tables` commands in-process, hashed as the harness hashes stdout
    recorded = _recorded_digests()
    argvs = _workloads().operations("tables", 0)
    assert len(argvs) == len(recorded) == 11
    for argv in argvs:
        status, data = _run(argv)
        assert status == 0, argv
        assert hashlib.sha256(data).hexdigest() == recorded[" ".join(argv)], argv


def _memo_sizes():
    return (
        {key: len(rows) for key, rows in sequences._ROWS.items()},
        {base: len(products) for base, products in algebra._FALLING.items()},
        len(egf._BERNOULLI),
        len(sequences._BERNOULLI_POLY),
        {n: len(column) for n, column in sequences._POWER_SUMS.items()},
        len(sequences._AT_MINUS_ONE),
    )


def test_warm_memos_print_what_empty_memos_print():
    # one seed's `tables` and `eval-stream` commands, run in one process in
    # two shuffled orders, print what each prints from empty memos, and the
    # second pass grows no memo
    workloads = _workloads()
    recorded = _recorded_digests()
    tables = workloads.operations("tables", 1)
    argvs = tables + workloads.operations("eval-stream", 1)
    cold = {}
    for argv in argvs:
        sequences._clear_memos()
        cold[" ".join(argv)] = _run(argv)
    for argv in tables:
        status, data = cold[" ".join(argv)]
        assert status == 0 and hashlib.sha256(data).hexdigest() == recorded[" ".join(argv)], argv

    sequences._clear_memos()
    sizes = []
    for order in range(2):
        shuffled = list(argvs)
        random.Random(order).shuffle(shuffled)
        for argv in shuffled:
            assert _run(argv) == cold[" ".join(argv)], argv
        sizes.append(_memo_sizes())
    assert sizes[1] == sizes[0]


def test_direct_parse_gives_the_full_parsers_namespace():
    # every command the harness runs parses in one pass, against its entry
    # in the command table, into the namespace the full parser makes of it
    workloads = _workloads()
    full = build_parser()
    argvs = [argv for workload in ("eval-stream", "tables", "suite")
             for argv in workloads.operations(workload, 1)]
    expected = [full.parse_args(argv) for argv in argvs]
    with mock.patch.object(cli._parser(), "parse_args", side_effect=AssertionError("full parser")):
        assert [cli._parse_args(argv) for argv in argvs] == expected
    assert {args.command for args in expected} == {"eval", "table", "verify"}
