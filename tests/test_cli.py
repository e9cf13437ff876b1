"""CLI behavior: document shapes, determinism, exit codes, serialization."""

import contextlib
import csv
import errno
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from datetime import datetime, timedelta
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degenpoly
from degenpoly import algebra, cli, sequences, verify
from degenpoly.algebra import LambdaPoly, XLPoly
from degenpoly.cli import (
    build_parser,
    main,
    output_schema,
    parse_lambda_poly,
    parse_rational,
    parse_xl_poly,
    render_lambda_poly,
    render_rational,
    render_xl_poly,
)
from degenpoly.verify import CheckSpec, Counterexample, check_ids

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
xl_polys = st.lists(st.lists(small_fractions, max_size=4).map(LambdaPoly), max_size=4).map(XLPoly)


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv)
    assert code == 0, text
    doc = json.loads(text)
    jsonschema.Draft202012Validator(output_schema()).validate(doc)
    return doc


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


def test_rational_rendering_is_canonical():
    assert render_rational(F(2, -4)) == "-1/2"
    assert render_rational(F(3)) == "3"
    assert parse_rational("-1/2") == F(-1, 2)
    for token, canonical in (("+4/8", "1/2"), ("00", "0"), ("-0", "0"), ("7/6", "7/6")):
        assert render_rational(parse_rational(token)) == canonical
    with pytest.raises(cli.UsageError):
        parse_rational("0.5")
    with pytest.raises(cli.UsageError):
        parse_rational("1/-2")
    with pytest.raises(cli.UsageError):
        parse_rational("1e3")


@given(st.one_of(st.integers(), st.fractions(), st.tuples(st.integers(), st.integers(1, 10**6))))
def test_render_rational_is_str_of_the_fraction(value):
    if type(value) is tuple:  # a reducible numerator and denominator
        value = F(*value)
    assert render_rational(value) == str(F(value))


@pytest.mark.parametrize("value, text", [
    (0, "0"), (-7, "-7"), (10**30, str(10**30)), (F(6, 4), "3/2"), (F(-6, 4), "-3/2"),
    (F(0, 5), "0"), (F(8, 4), "2"), (True, "1"), ("-6/4", "-3/2"),
])
def test_render_rational_examples(value, text):
    assert render_rational(value) == text == str(F(value))


#: ints of any size and fractions with denominators up to 10^12, mixed in
#: one polynomial
ring_coefficients = st.one_of(st.integers(), st.fractions(max_denominator=10**12))


@given(st.lists(ring_coefficients, max_size=8).map(LambdaPoly))
def test_lambda_poly_round_trip(p):
    back = parse_lambda_poly(render_lambda_poly(p))
    assert back == p and hash(back) == hash(p)
    assert (back._num, back._den) == (p._num, p._den)


@given(xl_polys)
def test_xl_poly_round_trip(p):
    assert parse_xl_poly(render_xl_poly(p)) == p


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_bernoulli_golden():
    doc = run_json("table", "bernoulli", "--n-max", "3")
    assert doc["values"] == [
        ["1"],
        ["-1/2", "1/2"],
        ["1/6", "0", "-1/6"],
        ["0", "-1/4", "0", "1/4"],
    ]
    assert doc["parameters"] == {"lambda": "symbolic", "n_max": 3, "route": "egf-triangular"}


def test_table_eulerian_lambda_zero():
    doc = run_json("table", "eulerian-number", "--n-max", "3", "--lambda", "0")
    assert doc["values"][0] == ["1"]
    assert doc["values"][1] == ["1", "0"]
    assert doc["values"][3] == ["1", "4", "1", "0"]


def test_table_eulerian_symbolic_rows():
    doc = run_json("table", "eulerian-number", "--n-max", "2")
    assert doc["values"][2] == [["1", "-1"], ["1", "1"], []]


def test_table_all_routes():
    for route in ("explicit", "recursion", "gf-recursion"):
        doc = run_json("table", "eulerian-number", "--n-max", "4", "--route", route)
        assert doc["metadata"]["route"] == route
        assert doc["values"][3] == [["1", "-3", "2"], ["4", "0", "-4"], ["1", "3", "2"], []]


def test_table_csv_fixed_header():
    code, text = run_cli("table", "stirling2", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "family,n,k,value"
    assert lines[1] == "stirling2,0,0,1"
    assert "stirling2,2,1,1;-1" in lines


def test_table_csv_bernoulli_blank_k():
    code, text = run_cli("table", "bernoulli", "--n-max", "1", "--format", "csv")
    assert text.splitlines()[2] == "bernoulli,1,,-1/2;1/2"


def test_table_human():
    code, text = run_cli("table", "eulerian-poly", "--n-max", "2", "--human")
    assert code == 0
    assert text.splitlines()[2] == "eulerian-poly[2] = (1 - λ) + (1 + λ)x"


PIN_LAMBDAS = ("0", "1", "-1", "3/7", "-2/3")
FAMILY_ROUTE_PAIRS = [(family, route) for family in cli.TABLE_FAMILIES
                      for route in sequences.ROUTES[cli._FAMILY.get(family, family)]]


def _evaluated(family, symbolic_values, lam):
    """The symbolic table evaluated cell by cell, rendered like the CLI."""
    if family == "bernoulli":
        return [render_rational(parse_lambda_poly(b).eval(lam)) for b in symbolic_values]
    if family == "eulerian-poly":  # a value can zero the leading x-coefficient
        return [[render_rational(c.constant_value()) for c in parse_xl_poly(p).eval_lambda(lam).coeffs]
                for p in symbolic_values]
    return [[render_rational(parse_lambda_poly(e).eval(lam)) for e in row] for row in symbolic_values]


@pytest.mark.parametrize("family,route", FAMILY_ROUTE_PAIRS)
def test_table_rational_lambda_is_the_symbolic_table_evaluated(family, route):
    symbolic = run_json("table", family, "--n-max", "5", "--route", route)["values"]
    for token in PIN_LAMBDAS:
        expected = _evaluated(family, symbolic, parse_rational(token))
        doc = run_json("table", family, "--n-max", "5", "--route", route, "--lambda", token)
        assert doc["values"] == expected, token
        assert doc["parameters"]["lambda"] == token

        code, text = run_cli("table", family, "--n-max", "5", "--route", route,
                             "--lambda", token, "--format", "csv")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "family,n,k,value"
        if family == "bernoulli":
            rows = [f"{family},{n},,{v}" for n, v in enumerate(expected)]
        else:
            rows = [f"{family},{n},{k},{v}" for n, row in enumerate(expected) for k, v in enumerate(row)]
        assert lines[1:] == rows, token


def _csv_module_layout(argv):
    """What csv.writer writes for the rows of ``argv``'s JSON document."""
    doc = run_json(*argv)
    family, symbolic = doc["family"], doc["parameters"]["lambda"] == "symbolic"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "n", "k", "value"])
    for n, row in enumerate(doc["values"]):
        for k, cell in [("", row)] if family == "bernoulli" else enumerate(row):
            writer.writerow([family, n, k, ";".join(cell) if symbolic else cell])
    return buf.getvalue()


@pytest.mark.parametrize("family,route", FAMILY_ROUTE_PAIRS)
def test_table_csv_is_the_csv_module_layout(family, route):
    for lam in ("symbolic", "-2/3", "0"):
        argv = ("table", family, "--n-max", "6", "--route", route, f"--lambda={lam}")
        code, text = run_cli(*argv, "--format", "csv")
        assert code == 0
        assert text == _csv_module_layout(argv), lam
        if family == "eulerian-number":  # A(6,6) = 0: an empty value, or "0"
            assert text.endswith("\neulerian-number,6,6,\n" if lam == "symbolic" else ",6,6,0\n")
        if family == "bernoulli":  # no k
            assert "\nbernoulli,6,," in text


def test_table_eulerian_poly_trims_a_vanished_leading_coefficient():
    # A(2,1) = 1 + λ vanishes at λ = -1, so A_2(x) = 2 there
    doc = run_json("table", "eulerian-poly", "--n-max", "2", "--lambda", "-1")
    assert doc["values"] == [["1"], ["1"], ["2"]]
    # A(n,n) = 0 for n >= 1, so the symbolic rows are trimmed too, on a copy:
    # the memoized triangle keeps its n + 1 cells
    assert run_json("table", "eulerian-poly", "--n-max", "2")["values"][2] == [["1", "-1"], ["1", "1"]]
    assert [len(row) for row in sequences.route_rows("eulerian", 2, "recursion")] == [1, 2, 3]


@pytest.mark.parametrize("family", cli.TABLE_FAMILIES)
def test_table_human_at_rational_lambda(family):
    values = run_json("table", family, "--n-max", "3", "--lambda", "-2/3")["values"]
    code, text = run_cli("table", family, "--n-max", "3", "--lambda", "-2/3", "--human")
    assert code == 0
    if family == "bernoulli":
        expected = [f"{family}[{n}] = {v}" for n, v in enumerate(values)]
    elif family == "eulerian-poly":
        expected = [f"{family}[{n}] = {XLPoly(F(v) for v in row)}" for n, row in enumerate(values)]
    else:
        expected = [f"{family}[{n}][{k}] = {v}" for n, row in enumerate(values) for k, v in enumerate(row)]
    assert text.splitlines() == expected


def test_table_route_validation():
    code, text = run_cli("table", "bernoulli", "--n-max", "2", "--route", "recursion")
    assert code == 2


def test_table_rejects_float_lambda():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("table", "bernoulli", "--n-max", "2", "--lambda", "0.25")
    assert excinfo.value.code == 2


def test_table_n_cap(monkeypatch):
    code, _ = run_cli("table", "bernoulli", "--n-max", "65")
    assert code == 2
    monkeypatch.setenv(cli.N_CAP_ENV, "70")
    code, _ = run_cli("table", "bernoulli", "--n-max", "65")
    assert code == 0
    monkeypatch.setenv(cli.N_CAP_ENV, "three")
    code, _ = run_cli("table", "bernoulli", "--n-max", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_powersum_values():
    doc = run_json("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "0")
    assert doc["value"] == "5"
    doc = run_json("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1")
    assert doc["value"] == "2"


def test_eval_eulerian_at():
    doc = run_json("eval", "eulerian-at", "--x", "-1", "--n", "2", "--lambda", "1/3")
    assert doc["value"] == "-2/3"
    doc = run_json(
        "eval", "eulerian-at", "--x", "-1", "--n", "2", "--lambda", "1/3", "--route", "bernoulli"
    )
    assert doc["value"] == "-2/3"


def test_eval_negative_rational_as_separate_token():
    separate = run_cli("eval", "powersum", "--m", "20", "--n", "12", "--lambda", "-2/3")
    assert separate == run_cli("eval", "powersum", "--m", "20", "--n", "12", "--lambda=-2/3")
    # an abbreviated option, which only the full parser reads
    assert separate == run_cli("eval", "powersum", "--m", "20", "--n", "12", "--lam=-2/3")
    assert separate[0] == 0
    separate = run_cli("eval", "eulerian-at", "--x", "-1/2", "--n", "4", "--lambda", "-3")
    assert separate == run_cli("eval", "eulerian-at", "--x=-1/2", "--n", "4", "--lambda=-3")
    assert separate[0] == 0
    with pytest.raises(SystemExit) as excinfo:
        run_cli("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "-0.5")
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", (
    ("eval", "powersum", "--m", "20", "--n", "12"),
    ("eval", "powersum", "--m", "64", "--n", "64"),
    ("eval", "eulerian-at", "--x=-1", "--n", "64"),
), ids=" ".join)
def test_eval_routes_print_one_value(argv):
    routes = sequences.ROUTES[argv[1]]
    docs = [run_json(*argv, "--lambda=-2/3", "--route", route) for route in routes]
    assert [doc["metadata"]["route"] for doc in docs] == list(routes)
    assert len({doc["value"] for doc in docs}) == 1, argv


def test_eval_validation():
    assert _outcome(["eval", "powersum", "--n", "2", "--lambda", "0"]) == (
        2, "", "error: powersum requires --m and --n\n")
    assert _outcome(["eval", "eulerian-at", "--n", "2", "--lambda", "0"]) == (
        2, "", "error: eulerian-at requires --x and --n\n")
    assert run_cli("eval", "powersum", "--m", "0", "--n", "2", "--lambda", "0")[0] == 2
    assert run_cli("eval", "eulerian-at", "--x", "2", "--n", "2", "--lambda", "0", "--route", "bernoulli")[0] == 2
    assert run_cli("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "0", "--route", "warp")[0] == 2


def test_the_cap_is_read_once_per_command_and_only_to_check_a_value(monkeypatch):
    reads = []

    def counting_n_cap():
        reads.append(1)
        return cli.DEFAULT_N_CAP

    monkeypatch.setattr(cli, "_n_cap", counting_n_cap)
    for argv, expected in (
        (("eval", "powersum", "--m", "2", "--n", "3", "--lambda", "1/2"), 1),
        (("eval", "eulerian-at", "--x=-1", "--n", "3", "--lambda", "1/2"), 1),
        (("table", "bernoulli", "--n-max", "3"), 1),
        (("verify", "--check", "thm-2.10-power-sum-routes", "--n-max", "3", "--m-max", "3",
          "--k-max", "3"), 1),
        (("verify", "--check", "eulerian-top-entry"), 0),
    ):
        reads.clear()
        assert run_cli(*argv)[0] == 0, argv
        assert len(reads) == expected, argv


def test_cap_messages_keep_their_order(monkeypatch):
    assert _outcome(["eval", "powersum", "--m", "65", "--n", "66", "--lambda", "0"])[2] == (
        f"error: --m=65 exceeds the hard cap 64 (override with {cli.N_CAP_ENV})\n")
    assert _outcome(["eval", "powersum", "--m", "3", "--n", "66", "--lambda", "0"])[2] == (
        f"error: --n=66 exceeds the hard cap 64 (override with {cli.N_CAP_ENV})\n")
    assert _outcome(["verify", "--check", "eulerian-row-sum", "--n-max", "-1", "--m-max", "99"])[2] == (
        "error: --n-max must be >= 0, got -1\n")
    assert _outcome(["verify", "--check", "eulerian-row-sum", "--m-max", "99", "--k-max", "-1"])[2] == (
        f"error: --m-max=99 exceeds the hard cap 64 (override with {cli.N_CAP_ENV})\n")
    # a command that checks no value reads no cap, so a bad one goes unnoticed
    monkeypatch.setenv(cli.N_CAP_ENV, "abc")
    assert _outcome(["verify", "--check", "eulerian-top-entry"])[0] == 0
    assert _outcome(["verify", "--check", "eulerian-top-entry", "--n-max", "3"]) == (
        2, "", f"error: {cli.N_CAP_ENV} must be an integer, got 'abc'\n")


def test_eval_m_cap(monkeypatch):
    # the direct route memoizes the falling factorials of every base up to m
    powersum = ["eval", "powersum", "--n", "2", "--lambda", "1/2", "--m"]
    assert _outcome(powersum + ["65"]) == (
        2, "", f"error: --m=65 exceeds the hard cap 64 (override with {cli.N_CAP_ENV})\n")
    code, out, err = _outcome(powersum + ["64"])
    assert (code, err) == (0, "") and json.loads(out)["value"]
    monkeypatch.setenv(cli.N_CAP_ENV, "2")
    assert _outcome(powersum + ["3"]) == (
        2, "", f"error: --m=3 exceeds the hard cap 2 (override with {cli.N_CAP_ENV})\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_check_text():
    code, text = run_cli("verify", "--check", "thm-2.7-worpitzky", "--n-max", "8")
    assert code == 0
    assert text.splitlines()[0] == "PASS thm-2.7-worpitzky (n_max=8)"
    assert "1 passed, 0 failed" in text


def test_verify_json_document():
    doc = run_json("verify", "--check", "lambda1-bernoulli-vanishing", "--format", "json")
    assert doc["summary"] == {"total": 1, "passed": 1, "failed": 0, "mode": "exact"}
    assert doc["checks"][0]["status"] == "pass"
    assert doc["checks"][0]["counterexample"] is None


def test_verify_has_no_smoke_flag():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("verify", "--check", "eulerian-top-entry", "--smoke")
    assert excinfo.value.code == 2


def test_verify_range_overrides(capsys):
    code, text = run_cli("verify", "--check", "lambda0-eulerian-triangle", "--n-max", "21")
    assert code == 0
    assert text.splitlines()[0] == "PASS lambda0-eulerian-triangle (n_max=21)"
    code, text = run_cli("verify", "--check", "lambda0-descent-oracle", "--n-max", "10")
    assert code == 2 and text == ""
    assert "lambda0-descent-oracle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--check", "thm-2.9-power-sum-eulerian", "--m-max", "0"), "thm-2.9-power-sum-eulerian"),
        (("--check", "lambda0-descent-oracle", "--n-max", "0"), "lambda0-descent-oracle"),
        (("--check", "eulerian-top-entry", "--n-max", "0"), "eulerian-top-entry"),
        (("--suite", "all", "--n-max", "0"), "thm-2.9-power-sum-eulerian supports n_max >= 1"),
    ],
)
def test_verify_range_below_first_case_exits_2(capsys, argv, named):
    # each of these would scan zero cases and report a vacuous PASS
    code, text = run_cli("verify", *argv)
    assert code == 2 and text == ""
    assert named in capsys.readouterr().err


def test_verify_unknown_check_exits_2(capsys):
    code, _ = run_cli("verify", "--check", "no-such-id")
    assert code == 2
    err = capsys.readouterr().err
    assert "valid ids" in err
    assert "thm-2.7-worpitzky" in err


def test_verify_suite_and_check_conflict():
    assert run_cli("verify", "--suite", "all", "--check", "eulerian-top-entry")[0] == 2


def test_verify_failure_exits_1(monkeypatch):
    failing = CheckSpec(
        id="thm-2.6-recursion",
        statement="stub",
        ranges={"n_max": 3},
        status="fail",
        counterexample=Counterexample({"n": 2, "k": 0}, "1", "1 - λ"),
    )

    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: [failing])
    code, text = run_cli("verify", "--check", "thm-2.6-recursion")
    assert code == 1
    assert "FAIL thm-2.6-recursion" in text
    assert "counterexample at n=2, k=0" in text

    buf = io.StringIO()
    assert main(["verify", "--format", "json"], out=buf) == 1
    doc = json.loads(buf.getvalue())
    jsonschema.Draft202012Validator(output_schema()).validate(doc)
    assert doc["checks"][0]["counterexample"] == {
        "parameters": {"n": 2, "k": 0},
        "lhs": "1",
        "rhs": "1 - λ",
    }


def test_verify_reports_a_raising_check_as_error(monkeypatch):
    # a check whose cases raise is reported, in text and in JSON, never as a
    # traceback; verify still prints the whole report and exits 1
    def raising(r):
        yield {"n": 0}, LambdaPoly(), LambdaPoly()
        raise ZeroDivisionError("deliberate")

    registry = (verify.get_check("eulerian-top-entry"),
                verify.Check("self-test-raises", "harness self-test", {"n_max": 2}, raising))
    monkeypatch.setattr(verify, "REGISTRY", registry)
    monkeypatch.setattr(verify, "_BY_ID", {check.id: check for check in registry})
    code, text = run_cli("verify", "--suite", "all")
    assert code == 1
    assert text == (
        "PASS eulerian-top-entry (n_max=20)\n"
        "ERROR self-test-raises (n_max=2)\n"
        "     error: ZeroDivisionError: deliberate\n"
        "2 checks: 1 passed, 1 failed (mode: exact)\n"
    )

    buf = io.StringIO()
    assert main(["verify", "--suite", "all", "--format", "json"], out=buf) == 1
    doc = json.loads(buf.getvalue())
    jsonschema.Draft202012Validator(output_schema()).validate(doc)
    passed, errored = doc["checks"]
    assert passed["status"] == "pass" and "error" not in passed
    assert errored == {
        "id": "self-test-raises",
        "statement": "harness self-test",
        "ranges": {"n_max": 2},
        "status": "error",
        "counterexample": None,
        "error": "ZeroDivisionError: deliberate",
    }
    assert doc["summary"] == {"total": 2, "passed": 1, "failed": 1, "mode": "exact"}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

RATIONAL_TOKENS = ("0", "3", "-1", "1/2", "-2/3", "0.5", "1/0")
rationals = st.sampled_from(RATIONAL_TOKENS)
ROUTES = sorted({route for routes in sequences.ROUTES.values() for route in routes})
small_ints = st.sampled_from(("-1", "0", "1", "2", "3", "4"))
options_with_values = st.one_of(
    st.tuples(st.just("--route"), st.sampled_from(ROUTES + ["bogus"])),
    st.tuples(st.sampled_from(("--m", "--m-max", "--k-max")), small_ints),
    st.tuples(st.sampled_from(("--lambda", "--x")), st.sampled_from(RATIONAL_TOKENS + ("symbolic",))),
    st.tuples(st.just("--check"), st.sampled_from(check_ids() + ["no-such-id"])),
    # abbreviations, which only the full parser reads
    st.tuples(st.sampled_from(("--lam", "--rou", "--n-m", "--h")), st.sampled_from(("-2/3", "1/2", "direct", "3"))),
)
flags = st.one_of(
    st.sampled_from((["--human"], ["--timestamp"], ["--suite", "all"], ["--format", "json"],
                     ["--format", "csv"], ["--format", "text"], ["-h"], ["--"], ["--human=1"],
                     ["--route", "--human"])),
    options_with_values.map(list),
    options_with_values.map(lambda option: ["=".join(option)]),  # --opt=value, --lambda=-2/3
)


@st.composite
def cli_argvs(draw):
    """A command, its positional arguments, n <= 4 and up to three flags, the
    first of them maybe repeated; the positional maybe after the options, and
    maybe an option without its value at the end."""
    command = draw(st.sampled_from(("table", "table", "eval", "eval", "verify", "verify", "bogus")))
    positional, options = [], []
    if command == "table":
        positional.append(draw(st.sampled_from(cli.TABLE_FAMILIES + ("bogus",))))
    if command == "eval":
        positional.append(draw(st.sampled_from(("powersum", "eulerian-at"))))
        options += ["--m", draw(small_ints), "--x", draw(rationals), "--lambda", draw(rationals)]
    options += ["--n" if command == "eval" else "--n-max", draw(small_ints)]
    chosen = draw(st.lists(flags, max_size=3))
    for flag in chosen + chosen[:draw(st.integers(0, 1))]:
        options += flag
    options += draw(st.sampled_from(([], [], [], ["--route"], ["--lambda"], ["--check"])))
    return [command] + (options + positional if draw(st.booleans()) else positional + options)


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
def test_random_argv_exits_0_1_or_2(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv, out=io.StringIO())
        except SystemExit as exc:  # argparse rejects usage errors by exiting
            code = exc.code
    assert code in (0, 1, 2), argv


_TIMESTAMP_RE = re.compile(r'"timestamp": "[^"]*"')


def _outcome(argv):
    """main's exit status (or SystemExit code), stdout and stderr for argv,
    with a --timestamp value masked: it differs from one run to the next."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects usage errors by exiting
            code = exc.code
    return code, _TIMESTAMP_RE.sub('"timestamp": "?"', out.getvalue()), err.getvalue()


def _full_parser_outcome(argv):
    """_outcome with every argv parsed by the full parser."""
    with mock.patch.object(cli, "_parse_args", lambda argv: cli._parser().parse_args(argv)):
        return _outcome(argv)


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
def test_direct_parse_matches_the_full_parser(argv):
    assert _outcome(argv) == _full_parser_outcome(argv)


#: argvs the direct path hands to the full parser (no command, top-level
#: help, an unknown command, an argument a subparser leaves over, forms the
#: one-pass reader does not read), and a subparser's own usage error and help.
FALLBACK_ARGVS = (
    [],
    ["-h"],
    ["bogus"],
    ["eval"],
    ["eval", "-h"],
    ["table", "bernoulli", "--n-max", "3", "--bogus"],
    ["eval", "powersum", "--m", "2", "--n", "2", "--lam", "1"],
    ["eval", "powersum", "--m", "2", "--n", "2", "--lam=-2/3"],
    ["table", "bernoulli", "--rou", "egf-triangular", "--n-m", "2"],
    ["table", "bernoulli", "--n-max", "3", "--", "--human"],
    ["table", "bernoulli", "--n-max", "3", "--human=1"],
    ["eval", "powersum", "--m", "2", "--n", "2", "--lambda"],
    ["eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1", "--route", "--human"],
    ["table", "bernoulli", "--n-max", "3", "--rou=--"],
    ["table", "bernoulli", "--n-max", "3", "--h"],
    ["eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1", "--m", "x"],
    ["eval", "powersum", "--m", "2", "--lambda", "1"],
    ["table", "--n-max", "3", "bogus"],
    ["table", "bernoulli", "bernoulli", "--n-max", "3"],
    ["verify", "--check", "eulerian-top-entry", "-h"],
    ["verify", "--format=xml"],
)


@pytest.mark.parametrize("argv", FALLBACK_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_usage_paths_match_the_full_parser(argv):
    code, out, err = _outcome(argv)
    assert code in (0, 2) and (out or err)
    assert (code, out, err) == _full_parser_outcome(argv)


#: A command of each CLI family, which takes a --route.
ROUTE_COMMANDS = {
    **{family: ["table", family, "--n-max", "3"] for family in cli.TABLE_FAMILIES},
    "powersum": ["eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1"],
    "eulerian-at": ["eval", "eulerian-at", "--x=-1", "--n", "2", "--lambda", "1"],
}


def test_every_route_family_has_a_command():
    assert {cli._FAMILY.get(family, family) for family in ROUTE_COMMANDS} == set(sequences.ROUTES)


@pytest.mark.parametrize("argv", [argv + ["--route=--"] for argv in ROUTE_COMMANDS.values()],
                         ids=" ".join)
def test_value_after_equals_is_verbatim(argv):
    # argparse before 3.13 drops a "--" it finds in an option's values
    family = argv[1]
    routes = ", ".join(sequences.ROUTES[cli._FAMILY.get(family, family)])
    message = f"error: route '--' is not available for {family}; choose from: {routes}\n"
    assert _outcome(argv) == (2, "", message)


def _sample(keywords):
    """A value that an argument declared with ``keywords`` accepts."""
    if "choices" in keywords:
        return keywords["choices"][-1]
    return {int: "3", None: "direct"}.get(keywords.get("type"), "-2/3")


def _plain_argvs():
    """Per command and declared argument, the argument's plain forms after
    the command's other positional and required arguments."""
    for command, (_, _, arguments) in cli._COMMANDS.items():
        for flag, keywords in arguments:
            others = [command]
            for other, other_keywords in arguments:
                if other == flag:
                    continue
                if other[0] != "-":
                    others.append(_sample(other_keywords))
                elif other_keywords.get("required"):
                    others += [other, _sample(other_keywords)]
            value = _sample(keywords)
            if flag[0] != "-":
                yield others + [value]
            elif keywords.get("action") == "store_true":
                yield others + [flag]
            elif keywords.get("action") is None:
                yield others + [flag, value]
                yield others + [f"{flag}={value}"]


@pytest.mark.parametrize("argv", list(_plain_argvs()), ids=" ".join)
def test_every_declared_argument_reads_in_one_pass(argv):
    with mock.patch.object(cli._parser(), "parse_args", side_effect=AssertionError("full parser")):
        assert cli._parse_args(argv) == build_parser().parse_args(argv)


def test_a_repeated_check_goes_through_argparse():
    argv = ["verify", "--check", "eulerian-row-sum", "--check", "eulerian-top-entry", "--n-max", "4"]
    args = cli._parse_args(argv)
    assert args == build_parser().parse_args(argv)
    assert args.check == ["eulerian-row-sum", "eulerian-top-entry"]
    assert cli._read_plain(argv[0], argv[1:]) is None


def test_a_plain_command_builds_no_parser():
    query = ["eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1"]
    cli._parser.cache_clear()
    assert _outcome(query)[0] == 0
    assert cli._parser.cache_info().currsize == 0
    assert _outcome(query + ["--bogus"])[0] == 2
    assert cli._parser.cache_info().currsize == 1


def test_leftover_arguments_get_the_top_level_usage():
    argv = ["eval", "powersum", "--m", "2", "--n", "3", "--lambda", "1", "--suite", "all"]
    code, out, err = _outcome(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: degenpoly [-h] {table,eval,verify} ...\n")
    assert err.endswith("\ndegenpoly: error: unrecognized arguments: --suite all\n")
    assert (code, out, err) == _full_parser_outcome(argv)


def test_main_without_argv_reads_sys_argv(monkeypatch):
    query = ["eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1"]
    monkeypatch.setattr(sys, "argv", ["degenpoly", *query])
    code, out, err = _outcome(None)
    assert (code, json.loads(out)["value"], err) == (0, "2", "")
    assert (code, out, err) == _full_parser_outcome(None) == _outcome(query)

    monkeypatch.setattr(sys, "argv", ["degenpoly", *query, "--bogus"])
    code, out, err = _outcome(None)
    assert (code, out) == (2, "")
    assert err.startswith("usage: degenpoly [-h] {table,eval,verify} ...\n")
    assert (code, out, err) == _full_parser_outcome(None)


# ---------------------------------------------------------------------------
# JSON layout: every document is written by cli._emit_json, which must
# match the encoder that defines the layout byte for byte
# ---------------------------------------------------------------------------


#: The layout every JSON document must have, built here so that the
#: reference does not depend on the code under test.
LAYOUT = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)


def _emitted(doc) -> str:
    buf = io.StringIO()
    cli._emit_json(doc, buf)
    return buf.getvalue()


#: Text that JSON must escape or may keep: quotes, backslashes, control
#: characters, U+2028/U+2029 and non-ASCII.
json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\n\t\x7f\u2028\u2029λé€😀')))
#: Every value a document can hold: strings, ints, None, lists and dicts
#: with string keys.
json_values = st.recursive(
    st.none() | st.integers() | json_text,
    lambda children: st.lists(children) | st.lists(json_text) | st.dictionaries(json_text, children),
    max_leaves=20,
)


@given(json_values)
def test_emitted_json_is_the_encoder_layout(doc):
    assert _emitted(doc) == LAYOUT.encode(doc) + "\n"


#: λ-polynomial cells: the zero polynomial, int numerators of either sign
#: and any size, and rational coefficients over a denominator ≠ 1.
lambda_cells = st.one_of(
    st.just(LambdaPoly()),
    st.lists(st.integers(), max_size=5).map(LambdaPoly),
    st.lists(small_fractions, max_size=5).map(LambdaPoly),
)
#: Documents that also hold LambdaPoly cells, as a symbolic table does.
json_values_with_cells = st.recursive(
    st.none() | st.integers() | json_text | lambda_cells,
    lambda children: st.lists(children) | st.lists(lambda_cells) | st.dictionaries(json_text, children),
    max_leaves=20,
)


def _rendered(value):
    """``value`` with each LambdaPoly cell replaced by its coefficient array."""
    if isinstance(value, LambdaPoly):
        return render_lambda_poly(value)
    if isinstance(value, list):
        return [_rendered(item) for item in value]
    if isinstance(value, dict):
        return {key: _rendered(item) for key, item in value.items()}
    return value


@given(json_values_with_cells)
@example({"values": [[LambdaPoly(), LambdaPoly((-3, 0, -10**40))], [LambdaPoly((F(-1, 2), 0, F(5, 3)))]]})
@example([LambdaPoly()])
def test_emitted_lambda_poly_cells_are_their_coefficient_arrays(doc):
    assert _emitted(doc) == LAYOUT.encode(_rendered(doc)) + "\n"


@pytest.mark.parametrize("value,name", [
    (1.5, "float"), (True, "bool"), ((), "tuple"), (("a", "b"), "tuple"), ({1, 2}, "set"),
    ({"a": 1, 2: "b"}, "int"), ({(1,): "a"}, "tuple"), (object(), "object"),
])
def test_emitted_json_rejects_a_value_no_document_holds(value, name):
    for doc in (value, {"a": [value]}, ["a", value], {"a": {"b": value}}):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            _emitted(doc)


def test_emitted_json_rejects_what_the_encoder_rejects():
    for doc in ({"a": [1, object()]}, {"a": {"b": {1, 2}}}):
        with pytest.raises(TypeError) as emitted:
            _emitted(doc)
        with pytest.raises(TypeError) as encoded:
            LAYOUT.encode(doc)
        assert str(emitted.value) == str(encoded.value)


def _json_commands():
    for family in cli.TABLE_FAMILIES:
        for route in sequences.ROUTES[cli._FAMILY.get(family, family)]:
            for lam in ("symbolic", "-2/3"):
                yield ("table", family, "--n-max", "6", "--route", route, f"--lambda={lam}")
    for route in sequences.ROUTES["powersum"]:
        yield ("eval", "powersum", "--m", "4", "--n", "5", "--lambda=-2/3", "--route", route)
    for route in sequences.ROUTES["eulerian-at"]:
        yield ("eval", "eulerian-at", "--x=-1", "--n", "5", "--lambda=-2/3", "--route", route)
    yield ("eval", "eulerian-at", "--x=1/2", "--n", "5", "--lambda=3")
    yield ("verify", "--suite", "all", "--format", "json")


def test_every_command_document_is_the_encoder_layout():
    for argv in _json_commands():
        code, text = run_cli(*argv)
        assert code == 0, argv
        assert text == LAYOUT.encode(json.loads(text)) + "\n", argv


def _module_containers():
    """The size of every dict, list and set bound at the top level of a
    loaded degenpoly module, but the builder memo store."""
    return {(name, attr): len(value)
            for name, module in sys.modules.items() if name.partition(".")[0] == "degenpoly"
            for attr, value in vars(module).items()
            if isinstance(value, (dict, list, set)) and attr != "__builtins__"
            and value is not algebra._MEMOS}


def test_every_memo_lives_in_the_one_store():
    # every table family × route, eval by every route and the whole suite in
    # one process grow no module-level container but the store, and one
    # clear empties the store
    for module in pkgutil.iter_modules(degenpoly.__path__):
        if module.name != "__main__":
            importlib.import_module(f"degenpoly.{module.name}")
    before = _module_containers()
    for argv in _json_commands():
        assert run_cli(*argv)[0] == 0, argv
    assert _module_containers() == before
    # each kind of value is kept under one kind of key, so a second store of
    # one value shows here as a kind the list does not name
    assert {key[0] for key in algebra._MEMOS} == {"eulerian", "bernoulli", "stirling1", "stirling2",
                                                  "falling", "bernoulli-poly", "powersum", "eulerian-at",
                                                  "descents", "classical"}
    sequences._clear_memos()
    assert algebra._MEMOS == {}


def test_the_largest_table_document_is_the_encoder_layout():
    # the symbolic cells at the cap: the longest coefficient arrays and the
    # widest numerators any table writes
    code, text = run_cli("table", "eulerian-number", "--n-max", "64", "--route", "recursion",
                         "--format", "json")
    assert code == 0
    assert text == LAYOUT.encode(json.loads(text)) + "\n"


def test_a_table_document_is_written_in_small_batches():
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    assert main(["table", "eulerian-number", "--n-max", "36", "--format", "json"], out=Recorder()) == 0
    text = "".join(writes)
    assert len(text) > 600_000
    assert text == LAYOUT.encode(json.loads(text)) + "\n"
    assert len(writes) > 10
    assert max(map(len, writes)) < len(text) // 10


# ---------------------------------------------------------------------------
# determinism and process-level behavior
# ---------------------------------------------------------------------------


def test_byte_identical_invocations():
    for argv in (
        ("table", "eulerian-poly", "--n-max", "5"),
        ("eval", "powersum", "--m", "3", "--n", "3", "--lambda", "2/7"),
        ("verify", "--check", "eulerian-row-sum", "--n-max", "6", "--format", "json"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


@pytest.mark.parametrize("argv", (
    ("verify", "--suite", "all", "--format", "json"),
    ("table", "stirling2", "--n-max", "12", "--route", "eulerian"),
), ids=lambda argv: argv[0])
def test_fresh_interpreters_print_the_same_bytes_under_any_hash_seed(argv):
    # set and dict order over str keys follows the hash seed, which each
    # interpreter draws anew: no output may depend on it
    src = str(Path(cli.__file__).resolve().parent.parent)
    outputs = [subprocess.run([sys.executable, "-m", "degenpoly", *argv], capture_output=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "2")]
    assert outputs[0] and outputs[0] == outputs[1]


#: Commands that share one parser in one process, in this order: a --check
#: that must not reach the --suite run, and two usage errors before an eval,
#: one from the command and one from argparse (a leftover argument, which
#: the full parser reports); two --check runs, the second of which must not
#: see the first's check in the append default, and a table whose "symbolic"
#: --lambda default goes through the option's type.
ONE_PROCESS_SEQUENCE = (
    ("verify", "--check", "thm-2.8-stirling2-from-eulerian", "--n-max", "3"),
    ("verify", "--suite", "all", "--format", "json"),
    ("table", "eulerian-number", "--n-max", "3", "--route", "nope"),
    ("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1", "--bogus"),
    ("eval", "powersum", "--m", "5", "--n", "3", "--lambda=-2/3", "--route", "bernoulli"),
    ("table", "eulerian-poly", "--n-max", "4", "--lambda", "1/2", "--format", "csv"),
    ("verify", "--check", "eulerian-top-entry"),
    ("verify", "--check", "eulerian-row-sum"),
    ("table", "bernoulli", "--n-max", "2"),
)


def test_commands_in_one_process_stay_independent(monkeypatch):
    fresh = []
    for argv in ONE_PROCESS_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(_outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 0, 0, 0, 0]
    assert fresh[3][2].startswith("usage: degenpoly [-h] {table,eval,verify} ...\n")
    assert len(json.loads(fresh[1][1])["checks"]) == len(check_ids())
    assert fresh[7][1].splitlines()[0].startswith("PASS eulerian-row-sum ")
    assert fresh[7][1].endswith("\n1 checks: 1 passed, 0 failed (mode: exact)\n")
    assert json.loads(fresh[8][1])["parameters"]["lambda"] == "symbolic"

    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    shared = [_outcome(argv) for argv in ONE_PROCESS_SEQUENCE]
    assert shared == fresh
    assert len(builds) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degenpoly", "eval", "powersum", "--m", "2", "--n", "2", "--lambda", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "2"
    proc = subprocess.run(
        [sys.executable, "-m", "degenpoly", "eval", "powersum", "--m", "2", "--n", "2", "--lambda", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


#: One command of each kind, none with --timestamp.
PLAIN_COMMANDS = (
    ("table", "bernoulli", "--n-max", "3"),
    ("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "0"),
    ("verify", "--check", "eulerian-top-entry", "--format", "json"),
)
#: Modules no command loads unless it needs them: dataclasses (and inspect
#: through it) never, datetime only for --timestamp, importlib.resources
#: only for output_schema().
ON_DEMAND_MODULES = ("dataclasses", "inspect", "datetime", "importlib.resources")


def _run_fresh(code):
    """stdout of ``code`` in a fresh interpreter. -S: the site hooks of an
    interpreter may import importlib.resources."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_load_no_on_demand_module():
    code = (
        "import io, json, sys\n"
        "from degenpoly.cli import main\n"
        f"for argv in {PLAIN_COMMANDS!r}:\n"
        "    assert main(list(argv), io.StringIO()) == 0, argv\n"
        f"print(json.dumps([m for m in {ON_DEMAND_MODULES!r} if m in sys.modules]))\n"
    )
    assert json.loads(_run_fresh(code)) == []


#: Modules that ``table`` and ``eval`` never load, nor ``verify`` the first two.
COMMAND_PATH_MODULES = ("json", "csv", "degenpoly.verify", "degenpoly.oracles")


@pytest.mark.parametrize("argv,loaded", [
    (("table", "eulerian-poly", "--n-max", "4"), []),
    (("table", "eulerian-poly", "--n-max", "4", "--format", "csv"), []),
    (("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "0"), []),
    (("verify", "--suite", "all", "--format", "json"), ["degenpoly.verify", "degenpoly.oracles"]),
], ids=["table-json", "table-csv", "eval", "verify"])
def test_each_command_loads_only_what_it_runs(argv, loaded):
    code = (
        "import io, sys\n"
        "from degenpoly.cli import main\n"
        f"assert main({list(argv)!r}, io.StringIO()) == 0\n"
        f"print(*[m for m in {COMMAND_PATH_MODULES!r} if m in sys.modules])\n"
    )
    assert _run_fresh(code).split() == loaded


#: ``degenpoly.__all__`` before the package re-exported each module's own.
EARLIER_PACKAGE_NAMES = (
    "__version__", "LAM", "LambdaPoly", "X", "XLPoly", "binomial_poly",
    "falling_factorial_classical", "falling_factorial_degenerate", "bernoulli_taps",
    "gf_residual", "ClassicalTriangles", "PermStatDistribution", "classical_triangles",
    "descent_distribution", "excedance_distribution", "EulerianTable", "bernoulli_polynomial",
    "eulerian_at_minus_one", "eulerian_explicit", "eulerian_from_stirling2", "eulerian_poly",
    "eulerian_table", "power_sum", "stirling1_row", "stirling2_degenerate",
    "stirling2_from_eulerian", "worpitzky_lhs", "CheckSpec", "Counterexample",
    "UnknownCheckError", "check_ids", "run_suite",
)


def test_package_reexports_each_module_all():
    import degenpoly
    from degenpoly import algebra, egf, oracles

    assert set(degenpoly._ON_DEMAND) == {"oracles", "verify"}
    assert set(degenpoly._ON_DEMAND["oracles"]) == set(oracles.__all__)
    assert set(degenpoly._ON_DEMAND["verify"]) == set(verify.__all__)
    for module in (algebra, egf, sequences, oracles, verify):
        for name in module.__all__:
            assert name in degenpoly.__all__, (module.__name__, name)
            assert getattr(degenpoly, name) is getattr(module, name), (module.__name__, name)
    assert len(degenpoly.__all__) == len(set(degenpoly.__all__))
    assert set(EARLIER_PACKAGE_NAMES) <= set(degenpoly.__all__)
    # the eager modules' names are not typed out again
    source = Path(degenpoly.__file__).read_text(encoding="utf-8")
    assert [name for module in (algebra, egf, sequences) for name in module.__all__
            if re.search(rf"\b{name}\b", source)] == []


def test_package_names_load_on_first_access():
    code = (
        "import sys, degenpoly\n"
        "assert set(degenpoly.__all__) <= set(dir(degenpoly))\n"
        f"assert not [m for m in {COMMAND_PATH_MODULES!r} if m in sys.modules]\n"
        "run_suite, descent_distribution = degenpoly.run_suite, degenpoly.descent_distribution\n"
        "from degenpoly import oracles, verify\n"
        "assert run_suite is verify.run_suite\n"
        "assert descent_distribution is oracles.descent_distribution\n"
        "names = {}\n"
        "exec('from degenpoly import *', names)\n"
        "assert set(degenpoly.__all__) <= set(names)\n"
        "assert not hasattr(degenpoly, 'no_such_name')\n"
        "print('ok')\n"
    )
    assert _run_fresh(code) == "ok\n"


#: Commands whose output can fail to be written: one document of more than
#: 64 KiB, written in batches; one short report, written only at the last
#: flush when stdout is block buffered; the help of the program and of a
#: command, after which argparse exits.
WRITE_FAILURE_COMMANDS = {
    "table": ("table", "eulerian-number", "--n-max", "40"),
    "verify": ("verify", "--suite", "all"),
    "help": ("--help",),
    "table-help": ("table", "-h"),
}
#: Each command with stdout block buffered, as by default, and unbuffered.
WRITE_FAILURES = [pytest.param(argv, unbuffered, id=name + ("-unbuffered" if unbuffered else ""))
                  for unbuffered in (False, True) for name, argv in WRITE_FAILURE_COMMANDS.items()]


def _console(argv, stdout, unbuffered):
    """Exit status and stderr of the console entry with ``stdout``, block
    buffered unless ``unbuffered``."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run([sys.executable, "-m", "degenpoly", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=dict(env, PYTHONPATH=src))
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, unbuffered", WRITE_FAILURES)
def test_a_full_disk_exits_2_without_a_traceback(argv, unbuffered):
    with open("/dev/full", "w") as full:
        code, err = _console(argv, full, unbuffered)
    assert (code, err) == (2, f"error: could not write the output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv, unbuffered", WRITE_FAILURES)
def test_a_closed_pipe_exits_2_without_a_traceback(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = _console(argv, write, unbuffered)
    finally:
        os.close(write)
    assert (code, err) == (2, f"error: could not write the output: {os.strerror(errno.EPIPE)}\n")


@pytest.mark.parametrize("argv", (
    ("verify", "--check", "eulerian-top-entry", "--format", "json"),
    ("table", "eulerian-number", "--n-max", "2", "--human"),
    ("eval", "powersum", "--m", "2", "--n", "2", "--lambda", "0", "--human"),
), ids=lambda argv: argv[0])
def test_an_ascii_stdout_exits_2_without_a_traceback(argv):
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "degenpoly", *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii"))
    assert proc.returncode == 2
    assert re.fullmatch(r"error: could not write the output: 'ascii' codec can't encode "
                        r"character '\\[^']+' in position \d+: ordinal not in range\(128\)\n",
                        proc.stderr), proc.stderr
    # what a UTF-8 stdout receives is what main writes
    utf8 = subprocess.run([sys.executable, "-m", "degenpoly", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"))
    assert (utf8.returncode, utf8.stdout.decode("utf-8"), utf8.stderr) == (0, run_cli(*argv)[1], b"")


@pytest.mark.parametrize("argv", PLAIN_COMMANDS, ids=lambda argv: argv[0])
def test_timestamp_is_utc_iso_and_only_on_request(argv):
    assert "timestamp" not in run_json(*argv)["metadata"]
    stamp = datetime.fromisoformat(run_json(*argv, "--timestamp")["metadata"]["timestamp"])
    assert stamp.utcoffset() == timedelta(0)
