"""Acceptance gate: each criterion at its full stated range.

Exact arithmetic means zero tolerance everywhere: every comparison is
structural equality of canonical polynomials or rationals. Each criterion
prints one PASS/FAIL line (run with ``pytest -s`` to watch them go by).
Time budgets are wall-clock bounds on the stated computation.
"""

import io
import json
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb, factorial

import jsonschema

from degenpoly.algebra import LambdaPoly, X, XLPoly, binomial_poly, falling_factorial_degenerate
from degenpoly.cli import main, output_schema
from degenpoly.egf import bernoulli_taps, gf_residual
from degenpoly.oracles import descent_distribution, excedance_distribution
from degenpoly.sequences import (
    eulerian_at_minus_one,
    eulerian_explicit,
    eulerian_from_stirling2,
    eulerian_table,
    power_sum,
    stirling2_degenerate,
    stirling2_from_eulerian,
    worpitzky_lhs,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL")
        raise
    print(f"criterion {number:02d} ({label}): PASS")


def elapsed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_01_golden_bernoulli_table():
    with criterion(1, "golden bernoulli table"):
        golden = [
            LambdaPoly((1,)),
            LambdaPoly((F(-1, 2), F(1, 2))),
            LambdaPoly((F(1, 6), 0, F(-1, 6))),
            LambdaPoly((0, F(-1, 4), 0, F(1, 4))),
        ]
        assert bernoulli_taps(3) == golden
        # runtime bound: best of three to shrug off scheduler noise
        best = min(elapsed(lambda: bernoulli_taps(3))[1] for _ in range(3))
        assert best < 1e-3, f"bernoulli_taps(3) took {best * 1e3:.3f} ms"


def test_criterion_02_classical_anchor():
    with criterion(2, "classical anchor vs permutation oracle"):
        def check():
            table = eulerian_table(7)
            row3 = [entry.eval(0) for entry in table.row(3)]
            assert row3 == [1, 4, 1, 0]
            assert descent_distribution(3).counts == (1, 4, 1)
            assert excedance_distribution(3).counts == (1, 4, 1)
            for n in range(1, 8):
                descents = descent_distribution(n).counts
                excedances = excedance_distribution(n).counts
                assert descents == excedances, n
                for k in range(n + 1):
                    expected = descents[k] if k < n else 0
                    assert table.entry(n, k).eval(0) == expected, (n, k)

        _, took = elapsed(check)
        assert took < 10, f"oracle agreement took {took:.1f}s"


def test_criterion_03_route_agreement():
    with criterion(3, "three eulerian routes agree to n=20"):
        def check():
            explicit = eulerian_table(20, "explicit")
            recursive = eulerian_table(20, "recursion")
            gf = eulerian_table(20, "gf-recursion")
            for n in range(21):
                for k in range(n + 1):
                    a = explicit.entry(n, k)
                    assert a == recursive.entry(n, k), (n, k)
                    assert a == gf.entry(n, k), (n, k)
                assert XLPoly(recursive.row(n)) == XLPoly(gf.row(n)), n

        _, took = elapsed(check)
        assert took < 20, f"route agreement took {took:.1f}s"


def test_criterion_04_vanishing_branch():
    with criterion(4, "explicit sum vanishes for k > n"):
        for n in range(16):
            for k in range(n + 1, n + 4):
                assert eulerian_explicit(n, k).is_zero, (n, k)


def test_criterion_05_gf_residual():
    with criterion(5, "generating-function residual at order 12"):
        residual, took = elapsed(lambda: gf_residual(12))
        assert len(residual) == 13 and all(tap.is_zero for tap in residual)
        assert took < 10, f"residual took {took:.1f}s"


def test_criterion_06_at_minus_one_routes():
    with criterion(6, "x=-1 value vs bernoulli closed form"):
        for n in range(16):
            direct = eulerian_at_minus_one(n, "direct")
            viabeta = eulerian_at_minus_one(n, "bernoulli")
            assert direct == viabeta, n


def test_criterion_07_worpitzky():
    with criterion(7, "worpitzky expansion"):
        for n in range(16):
            assert worpitzky_lhs(n) == falling_factorial_degenerate(X, n), n


def test_criterion_08_stirling_bridges():
    with criterion(8, "stirling-eulerian conversions"):
        for n in range(16):
            for k in range(n + 1):
                assert stirling2_from_eulerian(n, k) == stirling2_degenerate(n, k), (n, k)
        for n in range(1, 16):
            for k in range(1, n + 1):
                assert eulerian_from_stirling2(n, k) == eulerian_explicit(n, k - 1), (n, k)


def test_criterion_09_power_sum_routes():
    with criterion(9, "three power-sum routes"):
        assert power_sum(2, 2) == LambdaPoly((5, -3))
        for n in range(1, 11):
            for m in range(1, 21):
                direct = power_sum(m, n, "direct")
                assert direct == power_sum(m, n, "eulerian"), (m, n)
                assert direct == power_sum(m, n, "bernoulli"), (m, n)


def test_criterion_10_structural_invariants():
    with criterion(10, "structural invariants"):
        table = eulerian_table(20)
        for n in range(16):
            row = table.row(n)
            total = LambdaPoly()
            for entry in row:
                total = total + entry
                if n >= 1:
                    assert entry.degree <= n - 1, (n, entry)
            assert total == LambdaPoly((factorial(n),)), n
        for n in range(1, 21):
            assert table.entry(n, n).is_zero, n
        for n in range(11):
            for k in range(16):
                acc = LambdaPoly()
                for i in range(min(k, n) + 1):
                    acc = acc + comb(n + k - i, n) * table.entry(n, i)
                assert acc == falling_factorial_degenerate(k + 1, n), (n, k)
        for n in range(13):
            acc = XLPoly()
            for k in range(n + 1):
                acc = acc + binomial_poly(0, k) * (factorial(k) * stirling2_degenerate(n, k))
            assert acc == falling_factorial_degenerate(X, n), n
        for n, beta in enumerate(bernoulli_taps(12)):
            if n >= 1:
                assert beta.eval(1) == 0, n


def test_criterion_11_end_to_end_cli():
    with criterion(11, "end-to-end verify suite and CLI determinism"):
        buf = io.StringIO()
        start = time.perf_counter()
        code = main(["verify", "--suite", "all", "--format", "json"], out=buf)
        took = time.perf_counter() - start
        assert code == 0
        assert took < 60, f"full suite took {took:.1f}s"
        doc = json.loads(buf.getvalue())
        validator = jsonschema.Draft202012Validator(output_schema())
        validator.validate(doc)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["total"] >= 16
        assert all(check["status"] == "pass" for check in doc["checks"])

        # byte determinism across repeat invocations, all three commands
        for argv in (
            ["table", "eulerian-poly", "--n-max", "6"],
            ["eval", "eulerian-at", "--x", "-1", "--n", "5", "--lambda", "3/7"],
            ["verify", "--check", "thm-2.4-at-minus-one", "--n-max", "6", "--format", "json"],
        ):
            out1, out2 = io.StringIO(), io.StringIO()
            assert main(argv, out=out1) == 0
            assert main(argv, out=out2) == 0
            assert out1.getvalue() == out2.getvalue()
            if "--format" in argv or argv[0] in ("table", "eval"):
                if "csv" not in argv:
                    validator.validate(json.loads(out1.getvalue()))
