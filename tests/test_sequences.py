"""Sequence families: frozen values, route agreement, structural laws.

Acceptance runs the full stated ranges; here the same properties are
checked on smaller triangles so failures localize quickly.
"""

import functools
import io
import os
import subprocess
import sys
from fractions import Fraction as F
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import degenpoly
from degenpoly import algebra, egf, sequences, verify
from degenpoly.algebra import (
    LAM,
    LambdaPoly,
    X,
    XLPoly,
    _negate_lambda,
    binomial_poly,
    falling_factorial_classical,
    falling_factorial_degenerate,
)
from degenpoly.egf import bernoulli_taps
from degenpoly.sequences import (
    ROUTES,
    bernoulli_polynomial,
    eulerian_at_minus_one,
    eulerian_explicit,
    eulerian_from_stirling2,
    eulerian_poly,
    eulerian_table,
    power_sum,
    route_rows,
    stirling1_row,
    stirling2_degenerate,
    stirling2_from_eulerian,
    worpitzky_lhs,
)
from degenpoly.cli import build_parser, main
from degenpoly.verify import run_suite

ROW2 = (LambdaPoly((1, -1)), LambdaPoly((1, 1)), LambdaPoly())
ROW3 = (
    LambdaPoly((1, -3, 2)),
    LambdaPoly((4, 0, -4)),
    LambdaPoly((1, 3, 2)),
    LambdaPoly(),
)


# ---------------------------------------------------------------------------
# Eulerian numbers
# ---------------------------------------------------------------------------


def test_explicit_small_values():
    assert eulerian_explicit(1, 0) == 1
    assert eulerian_explicit(1, 1) == 0
    assert tuple(eulerian_explicit(2, k) for k in range(3)) == ROW2
    assert tuple(eulerian_explicit(3, k) for k in range(4)) == ROW3
    assert eulerian_explicit(3, 1).eval(0) == 4  # four permutations of {1,2,3}


def test_explicit_vanishes_beyond_triangle():
    for n in range(8):
        for k in range(n + 1, n + 4):
            assert eulerian_explicit(n, k).is_zero, (n, k)


def test_recursive_small_values():
    recursive = eulerian_table(4, "recursion")
    assert recursive.entry(0, 0) == 1
    assert recursive.entry(1, 0) == 1
    assert recursive.entry(2, 1) == LambdaPoly((1, 1))
    assert recursive.entry(3, 2) == LambdaPoly((1, 3, 2))
    assert recursive.entry(4, 6).is_zero  # outside the triangle


def test_routes_agree_on_small_triangle():
    recursive = eulerian_table(10, "recursion")
    for n in range(11):
        for k in range(n + 1):
            assert eulerian_explicit(n, k) == recursive.entry(n, k), (n, k)


def test_table_routes_match():
    tables = {route: eulerian_table(10, route) for route in ROUTES["eulerian"]}
    for n in range(11):
        for k in range(n + 1):
            entries = {t.entry(n, k) for t in tables.values()}
            assert len(entries) == 1, (n, k)


def test_table_out_of_triangle_and_bounds():
    table = eulerian_table(4)
    assert table.entry(3, 4).is_zero
    assert table.entry(2, -1).is_zero
    with pytest.raises(ValueError):
        table.entry(5, 0)
    with pytest.raises(ValueError):
        eulerian_table(3, route="nope")


def test_memoized_table_slices_to_the_size_asked():
    for route in ROUTES["eulerian"]:
        large = eulerian_table(12, route)
        small = eulerian_table(4, route)
        assert (small.max_n, small.route) == (4, route)
        assert small.rows == large.rows[:5]
        with pytest.raises(ValueError):
            small.entry(5, 0)


#: Every (family, route) that keeps rows in the builder memo store.
TABLE_ROUTES = [(family, route) for family in sequences._TABLE_FAMILIES for route in ROUTES[family]]


def test_extending_a_warm_memo_matches_a_cold_build():
    for family, route in TABLE_ROUTES:
        sequences._clear_memos()
        route_rows(family, 4, route)
        warm = route_rows(family, 14, route)
        sequences._clear_memos()
        cold = route_rows(family, 14, route)
        assert warm == cold, (family, route)


def test_routes_share_no_entry_objects():
    owner = {}
    for family, route in TABLE_ROUTES:
        for n, row in enumerate(route_rows(family, 12, route)):
            for k, entry in enumerate(row):
                assert owner.setdefault(id(entry), (family, route)) == (family, route), (family, route, n, k)


def test_warm_memo_changes_no_report():
    # a fresh process and one whose memo the whole suite has filled print
    # the same bytes
    argv = ["verify", "--check", "thm-2.10-power-sum-routes", "--n-max", "4", "--m-max", "4",
            "--format", "json"]
    src = str(Path(degenpoly.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-m", "degenpoly", *argv], capture_output=True,
                           check=True, env=env).stdout
    args = build_parser().parse_args(argv)
    run_suite()
    sink = io.StringIO()
    # the command's own handler, on the memos the suite filled
    assert args.func(args, sink) == 0
    assert sink.getvalue().encode("utf-8") == fresh


def test_later_cli_commands_reuse_the_memos(monkeypatch):
    # the memos outlive a CLI command, as they do for library callers: a
    # second identical command extends no triangle and prints the same bytes
    builds = []
    extend = ROUTES["eulerian"]["recursion"]
    monkeypatch.setitem(ROUTES["eulerian"], "recursion",
                        lambda rows, max_n: builds.append(max_n) or extend(rows, max_n))
    argv = ["table", "eulerian-number", "--n-max", "6", "--route", "recursion"]
    outputs = []
    for _ in range(2):
        sink = io.StringIO()
        assert main(argv, sink) == 0
        outputs.append(sink.getvalue())
    assert builds == [6] and outputs[0] == outputs[1]
    eulerian_table(6, "recursion")
    assert builds == [6] and len(algebra._MEMOS["eulerian", "recursion"]) == 7


# Each case makes one step of a memoized builder raise halfway through the
# command: the step module, the step's name, and the command.
CRASH_CASES = {
    # each cell is one comprehension, interrupted as it is made into a LambdaPoly
    "extend-recursion": (sequences, "_make",
                         ["table", "eulerian-number", "--n-max", "10", "--route", "recursion"]),
    # the packed sums of a call, interrupted as their rows are stored
    "extend-explicit": (sequences, "_make",
                        ["table", "eulerian-number", "--n-max", "10", "--route", "explicit"]),
    # the packed rows, interrupted as they are unpacked into the memo
    "extend-gf-recursion": (sequences, "_unpack",
                            ["table", "eulerian-number", "--n-max", "10", "--route", "gf-recursion"]),
    "bernoulli-taps": (egf, "_add_linear", ["table", "bernoulli", "--n-max", "10"]),
    "falling-factorial-int": (algebra, "_add_linear",
                              ["eval", "powersum", "--m", "8", "--n", "10", "--lambda", "1/2",
                               "--route", "direct"]),
    "power-sum-column": (sequences, "_add_linear",
                         ["eval", "powersum", "--m", "8", "--n", "10", "--lambda", "1/2",
                          "--route", "direct"]),
    # the ring products of the closed form, after its taps are solved
    "at-minus-one-bernoulli": (algebra, "_make",
                               ["eval", "eulerian-at", "--x=-1", "--n", "8", "--lambda", "1/2",
                                "--route", "bernoulli"]),
    "stirling1-row": (sequences, "_add_linear", ["table", "stirling1", "--n-max", "8"]),
    "stirling2-explicit": (sequences, "_make",
                           ["table", "stirling2", "--n-max", "8", "--route", "explicit"]),
    "stirling2-eulerian": (sequences, "_add_linear",
                           ["table", "stirling2", "--n-max", "8", "--route", "eulerian"]),
}


@pytest.mark.parametrize("case", CRASH_CASES)
def test_a_failed_command_leaves_only_complete_memos(monkeypatch, case):
    # the memos outlive a failed command, so they must hold only complete
    # rows and taps: the next command prints what it prints from empty memos
    module, name, argv = CRASH_CASES[case]
    step, calls, fail_at = getattr(module, name), [], []

    def flaky(*args):
        calls.append(args)
        if len(calls) in fail_at:
            raise RuntimeError(f"{name} interrupted")
        return step(*args)

    monkeypatch.setattr(module, name, flaky)
    cold = io.StringIO()
    assert main(argv, cold) == 0
    fail_at.append(len(calls) // 2)
    calls.clear()
    sequences._clear_memos()
    with pytest.raises(RuntimeError, match="interrupted"):
        main(argv, io.StringIO())
    monkeypatch.undo()
    warm = io.StringIO()
    assert main(argv, warm) == 0
    assert warm.getvalue() == cold.getvalue()


# ---------------------------------------------------------------------------
# route independence: the memos each route builds
# ---------------------------------------------------------------------------

#: The store keys each route creates from an empty store: tables at n = 8,
#: power_sum(5, 6) and A_6(-1), with ("falling",) for any ("falling", j) of
#: an int j. A route that reads another route's memo names that bridge in
#: its row.
ROUTE_FOOTPRINTS = {
    ("eulerian", "recursion"): {("eulerian", "recursion")},
    ("eulerian", "explicit"): {("eulerian", "explicit")},
    ("eulerian", "gf-recursion"): {("eulerian", "gf-recursion")},
    ("bernoulli", "egf-triangular"): {("bernoulli", "egf-triangular")},
    ("stirling1", "basis-conversion"): {("stirling1", "basis-conversion")},
    ("stirling2", "explicit"): {("stirling2", "explicit")},
    ("stirling2", "eulerian"): {("stirling2", "eulerian"), ("eulerian", "recursion")},
    ("powersum", "direct"): {("powersum", "direct", 6), ("falling",)},
    ("powersum", "eulerian"): {("powersum", "eulerian", 6, 5), ("eulerian", "recursion")},
    ("powersum", "bernoulli"): {("powersum", "bernoulli", 6, 5), ("bernoulli-poly", 7),
                                ("bernoulli", "egf-triangular")},
    ("eulerian-at", "direct"): {("eulerian-at", "direct", 6), ("eulerian", "recursion")},
    ("eulerian-at", "bernoulli"): {("eulerian-at", "bernoulli", 6), ("bernoulli", "egf-triangular")},
}

#: The two sides of each check that compares two routes, built small.
CHECK_SIDES = {
    "thm-2.3-poly-recursion": (lambda: eulerian_table(8, "gf-recursion"),
                               lambda: eulerian_table(8, "recursion")),
    "thm-2.4-at-minus-one": (lambda: eulerian_at_minus_one(6, "direct"),
                             lambda: eulerian_at_minus_one(6, "bernoulli")),
    "cor-2.5-alternating-sum": (lambda: eulerian_table(6),
                                lambda: eulerian_at_minus_one(6, "bernoulli")),
    "thm-2.6-recursion": (lambda: eulerian_table(8, "explicit"),
                          lambda: eulerian_table(8, "recursion")),
    "thm-2.7-worpitzky": (lambda: worpitzky_lhs(6),
                          lambda: falling_factorial_degenerate(X, 6)),
    "thm-2.8-stirling2-from-eulerian": (
        lambda: [stirling2_from_eulerian(6, k) for k in range(7)],
        lambda: [stirling2_degenerate(6, k) for k in range(7)]),
    "eq-19-coefficient-relation": (lambda: eulerian_table(6),
                                   lambda: [falling_factorial_degenerate(k + 1, 6) for k in range(9)]),
    "eq-38-stirling2-binomial-expansion": (
        lambda: [stirling2_degenerate(6, k) for k in range(7)],
        lambda: falling_factorial_degenerate(X, 6)),
    "thm-2.9-power-sum-eulerian": (lambda: power_sum(5, 6, "direct"),
                                   lambda: power_sum(5, 6, "eulerian")),
    "eq-43-power-sum-bernoulli": (lambda: power_sum(5, 6, "direct"),
                                  lambda: power_sum(5, 6, "bernoulli")),
    "thm-2.10-power-sum-routes": (lambda: power_sum(5, 6, "eulerian"),
                                  lambda: power_sum(5, 6, "bernoulli")),
    "thm-2.11-eulerian-from-stirling2": (
        lambda: [eulerian_from_stirling2(8, k) for k in range(1, 9)],
        lambda: eulerian_table(8, "explicit")),
}

#: Memos that both sides of a check read, by check. The two explicit
#: routes carry their own falling factorials in the packed kernel, so
#: thm-2.11 reads no memo of the other side either.
SHARED_INPUTS = {}


def _footprint(build):
    """The store keys ``build()`` creates from an empty store, the falling
    factorials of every int base as one key and those of x as another."""
    sequences._clear_memos()
    build()
    return {key[:1] if key[0] == "falling" and key[1] != "x" else key for key in algebra._MEMOS}


def _build_route(family, route):
    if family == "powersum":
        return power_sum(5, 6, route)
    if family == "eulerian-at":
        return eulerian_at_minus_one(6, route)
    return route_rows(family, 8, route)


def test_each_route_builds_only_its_declared_memos():
    assert set(ROUTE_FOOTPRINTS) == {(family, route) for family in ROUTES for route in ROUTES[family]}
    for (family, route), keys in ROUTE_FOOTPRINTS.items():
        assert _footprint(lambda: _build_route(family, route)) == keys, (family, route)


def test_checks_share_only_the_declared_inputs():
    assert set(SHARED_INPUTS) <= set(CHECK_SIDES) <= set(verify.check_ids())
    for check, (build_a, build_b) in CHECK_SIDES.items():
        shared = _footprint(build_a) & _footprint(build_b)
        assert shared == SHARED_INPUTS.get(check, set()), check


def _run_checks(*ids):
    for check_id in ids:
        assert verify.run_check(verify.get_check(check_id)).status == "pass", check_id


def test_the_route_comparison_reads_the_power_sums_the_suite_built(monkeypatch):
    # thm-2.9 and eq-43 build every power sum thm-2.10 compares, so it
    # creates no store key and sums nothing
    _run_checks("thm-2.9-power-sum-eulerian", "eq-43-power-sum-bernoulli")
    before, terms, step = set(algebra._MEMOS), [], sequences._add_linear
    monkeypatch.setattr(sequences, "_add_linear", lambda *args: terms.append(args) or step(*args))
    _run_checks("thm-2.10-power-sum-routes")
    assert set(algebra._MEMOS) == before
    assert terms == []


def test_the_route_comparison_alone_builds_both_routes():
    _run_checks("thm-2.10-power-sum-routes")
    ranges = verify.get_check("thm-2.10-power-sum-routes").default_ranges
    for route in ("eulerian", "bernoulli"):
        keys = {key for key in algebra._MEMOS if key[:2] == ("powersum", route)}
        assert keys == {("powersum", route, n, m) for n in range(1, ranges["n_max"] + 1)
                        for m in range(1, ranges["m_max"] + 1)}, route


def test_lambda_degree_and_row_sums():
    table = eulerian_table(10)
    for n in range(11):
        row = table.row(n)
        total = LambdaPoly()
        for entry in row:
            assert entry.degree <= n - 1 or (n == 0 and entry.degree == 0)
            total = total + entry
        assert total == LambdaPoly((factorial(n),))
        if n >= 1:
            assert row[n].is_zero


# ---------------------------------------------------------------------------
# Eulerian polynomials
# ---------------------------------------------------------------------------


def test_poly_assembly():
    assert eulerian_poly(0) == XLPoly.constant(1)
    assert eulerian_poly(2) == XLPoly(ROW2[:2])
    assert eulerian_poly(3) == XLPoly(ROW3[:3])
    assert eulerian_poly(3).eval_x(1) == 6  # row sum 3!


def test_poly_routes_agree():
    for n in range(9):
        polys = {eulerian_poly(n, route) for route in ROUTES["eulerian"]}
        assert len(polys) == 1, n
    with pytest.raises(ValueError):
        eulerian_poly(2, route="fastest")


def test_poly_degree_bound():
    for n in range(1, 10):
        p = eulerian_poly(n)
        assert p.x_degree <= n - 1
        assert p.lambda_degree <= n - 1


# ---------------------------------------------------------------------------
# value at x = -1
# ---------------------------------------------------------------------------


def test_at_minus_one_small_values():
    assert eulerian_at_minus_one(0) == 1
    assert eulerian_at_minus_one(1) == 1
    assert eulerian_at_minus_one(2) == LambdaPoly((0, -2))
    assert eulerian_at_minus_one(1, "bernoulli") == 1
    assert eulerian_at_minus_one(0, "bernoulli") == 1


def test_at_minus_one_routes_agree():
    for n in range(11):
        assert eulerian_at_minus_one(n, "direct") == eulerian_at_minus_one(n, "bernoulli"), n
    with pytest.raises(ValueError):
        eulerian_at_minus_one(2, "magic")


def test_at_minus_one_is_memoized_per_route_and_n(monkeypatch):
    taps = []
    monkeypatch.setattr(sequences, "bernoulli_taps",
                        lambda order: taps.append(order) or bernoulli_taps(order))
    first = eulerian_at_minus_one(6, "bernoulli")
    assert eulerian_at_minus_one(6, "bernoulli") is first and taps == [7]
    direct = eulerian_at_minus_one(6, "direct")
    assert direct == first and direct is not first
    assert [key for key in algebra._MEMOS if key[0] == "eulerian-at"] == [
        ("eulerian-at", "bernoulli", 6), ("eulerian-at", "direct", 6)]


# ---------------------------------------------------------------------------
# Bernoulli polynomials
# ---------------------------------------------------------------------------


def test_the_bernoulli_table_holds_the_very_taps_the_checks_compare():
    # ``table bernoulli`` prints the ``egf-triangular`` rows: one store, not
    # a copy, whichever of the two is asked first
    for n in range(13):
        for warm_taps in (False, True):
            sequences._clear_memos()
            if warm_taps:
                bernoulli_taps(16)
            rows = route_rows("bernoulli", n, "egf-triangular")
            taps = bernoulli_taps(n)
            assert len(rows) == len(taps) == n + 1
            for k in range(n + 1):
                assert rows[k][0] is taps[k], (n, k, warm_taps)


def test_bernoulli_polynomial_small():
    assert bernoulli_polynomial(0) == XLPoly.constant(1)
    assert bernoulli_polynomial(1) == X + XLPoly.constant(LambdaPoly((F(-1, 2), F(1, 2))))
    b2 = bernoulli_polynomial(2)
    assert b2.eval_x(0) == bernoulli_taps(2)[2] == LambdaPoly((F(1, 6), 0, F(-1, 6)))


def test_bernoulli_polynomial_is_memoized_per_n():
    sequences._clear_memos()
    first = bernoulli_polynomial(6)
    assert bernoulli_polynomial(6) is first
    sequences._clear_memos()
    rebuilt = bernoulli_polynomial(6)
    assert rebuilt is not first
    assert rebuilt == first


def test_bernoulli_polynomial_at_zero_gives_numbers():
    beta = bernoulli_taps(8)
    for n in range(9):
        assert bernoulli_polynomial(n).eval_x(0) == beta[n], n


# ---------------------------------------------------------------------------
# Stirling families
# ---------------------------------------------------------------------------


def test_stirling2_small_values():
    assert stirling2_degenerate(2, 1) == LambdaPoly((1, -1))
    assert stirling2_degenerate(2, 1) == falling_factorial_degenerate(1, 2)
    assert stirling2_degenerate(2, 2) == 1
    assert stirling2_degenerate(3, 4).is_zero
    assert stirling2_degenerate(0, 0) == 1
    for n in range(1, 8):
        assert stirling2_degenerate(n, 0).is_zero
        assert stirling2_degenerate(n, n) == 1


def test_stirling2_from_eulerian_matches():
    assert stirling2_from_eulerian(1, 1) == 1
    assert stirling2_from_eulerian(2, 1) == LambdaPoly((1, -1))
    assert stirling2_from_eulerian(3, 3) == stirling2_degenerate(3, 3) == 1
    for n in range(9):
        for k in range(n + 1):
            assert stirling2_from_eulerian(n, k) == stirling2_degenerate(n, k), (n, k)
    with pytest.raises(ValueError):
        stirling2_from_eulerian(2, 3)


def test_stirling1_small_values():
    assert stirling1_row(1) == [LambdaPoly(), 1]
    assert stirling1_row(2) == [LambdaPoly(), LambdaPoly((-1, 1)), 1]
    for n in range(9):
        assert stirling1_row(n)[n] == 1


def test_stirling1_reconstructs_classical_falling_factorial():
    # definition: (x)_n = Σ_k S1(n,k)·(x)_{k,λ}
    for n in range(9):
        acc = XLPoly()
        for k, entry in enumerate(stirling1_row(n)):
            acc = acc + falling_factorial_degenerate(X, k) * entry
        assert acc == falling_factorial_classical(n), n


def _stirling1_by_elimination(n):
    """Reference model: S1(n,0)..S1(n,n) by triangular elimination with the
    ring operators. (x)_{k,λ} is monic of x-degree k, so peeling the leading
    x-coefficient off the remainder is exact and ends at zero."""
    rem = falling_factorial_classical(n)
    out = [LambdaPoly() for _ in range(n + 1)]
    for k in range(n, -1, -1):
        out[k] = rem.coeff(k)
        rem = rem - falling_factorial_degenerate(X, k) * out[k]
    assert rem.is_zero, n
    return out


def test_stirling1_row_matches_ring_elimination():
    # no registered check reads first-kind numbers at general λ, so this
    # reference guards the Newton division of the basis-conversion route
    for n in range(25):
        assert stirling1_row(n) == _stirling1_by_elimination(n), n


def test_stirling1_row_is_memoized_per_n(monkeypatch):
    # one Newton division per row and process, across CLI commands too:
    # the rows 0..n stay in the route's row memo
    calls = []
    step = sequences._add_linear
    monkeypatch.setattr(sequences, "_add_linear", lambda *args: calls.append(args) or step(*args))
    first = stirling1_row(6)
    rows = algebra._MEMOS["stirling1", "basis-conversion"]
    assert calls and len(rows) == 7 and first == list(rows[6])
    calls.clear()
    second = stirling1_row(6)
    assert stirling1_row(3) == list(rows[3])
    assert calls == []
    assert second == first and second is not first
    second.append(LambdaPoly())  # a caller's list is its own
    assert stirling1_row(6) == first

    argv = ["table", "stirling1", "--n-max", "8"]
    counts, outputs = [], []
    for _ in range(2):
        calls.clear()
        sink = io.StringIO()
        assert main(argv, sink) == 0
        counts.append(len(calls))
        outputs.append(sink.getvalue())
    assert counts[0] > 0 and counts[1] == 0 and len(rows) == 9
    assert outputs[0] == outputs[1]


def test_eulerian_from_stirling2_small():
    assert eulerian_from_stirling2(1, 1) == 1
    assert eulerian_from_stirling2(2, 1) == LambdaPoly((1, -1))
    assert eulerian_from_stirling2(3, 2) == LambdaPoly((4, 0, -4))
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert eulerian_from_stirling2(n, k) == eulerian_explicit(n, k - 1), (n, k)
    with pytest.raises(ValueError):
        eulerian_from_stirling2(3, 0)
    with pytest.raises(ValueError):
        eulerian_from_stirling2(3, 4)


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


def test_power_sum_hand_values():
    assert power_sum(2, 2) == LambdaPoly((5, -3))
    # eulerian route by hand: (1+λ)·C(3,3) + (1-λ)·C(4,3)
    assert power_sum(2, 2, "eulerian") == LambdaPoly((1, 1)) + 4 * LambdaPoly((1, -1))
    assert power_sum(1, 1) == 1
    for route in ("direct", "eulerian", "bernoulli"):
        assert power_sum(1, 1, route) == 1


def test_power_sum_routes_agree():
    for n in range(1, 7):
        for m in range(1, 9):
            direct = power_sum(m, n, "direct")
            assert direct == power_sum(m, n, "eulerian"), (m, n)
            assert direct == power_sum(m, n, "bernoulli"), (m, n)


def test_power_sum_is_memoized_per_route_n_and_m():
    firsts = {route: power_sum(7, 4, route) for route in ROUTES["powersum"]}
    for route, first in firsts.items():
        assert power_sum(7, 4, route) is first, route
        assert power_sum(8, 4, route) is not first, route
    sequences._clear_memos()
    for route, first in firsts.items():
        assert power_sum(7, 4, route) is not first, route


def test_power_sum_validation():
    with pytest.raises(ValueError):
        power_sum(0, 2)
    with pytest.raises(ValueError):
        power_sum(2, 0)
    with pytest.raises(ValueError):
        power_sum(2, 2, "microwave")


def test_an_unhashable_route_is_an_unknown_route():
    calls = {
        "powersum": lambda: power_sum(2, 2, ["direct"]),
        "eulerian-at": lambda: eulerian_at_minus_one(2, ["direct"]),
        "eulerian": lambda: route_rows("eulerian", 2, ["direct"]),
    }
    for family, call in calls.items():
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"unknown route ['direct'], expected one of {tuple(ROUTES[family])}"


def test_direct_power_sum_column_extends_and_is_read(monkeypatch):
    # one column of running sums per n: a larger m extends it by one term
    # per new m, a smaller one is read from it
    n, terms, step = 7, [], sequences._add_linear
    monkeypatch.setattr(sequences, "_add_linear", lambda *args: terms.append(args) or step(*args))
    for m, new_terms in ((20, 20), (5, 0), (24, 4)):
        terms.clear()
        literal = LambdaPoly()
        for k in range(1, m + 1):
            literal = literal + _ring_falling(k, n)
        assert _stored(power_sum(m, n, "direct")) == _stored(literal), m
        assert len(terms) == new_terms, m
    assert [key for key in algebra._MEMOS if key[0] == "powersum"] == [("powersum", "direct", n)]
    assert len(algebra._MEMOS["powersum", "direct", n]) == 25


# ---------------------------------------------------------------------------
# integer kernels against the plain ring
# ---------------------------------------------------------------------------


def _stored(p):
    return p._num, p._den


def _xl_stored(p):
    return tuple(_stored(c) for c in p.coeffs)


@functools.cache
def _ring_falling(base: int, n: int) -> LambdaPoly:
    """(base)_{n,λ} by ring products of the factors base - iλ."""
    return LambdaPoly((1,)) if n == 0 else _ring_falling(base, n - 1) * LambdaPoly((base, 1 - n))


def test_recursion_kernel_matches_the_ring():
    rows = [(LambdaPoly((1,)),)]
    for n in range(1, 21):
        prev, row = rows[-1], []
        for k in range(n + 1):
            acc = LambdaPoly()
            if k >= 1:
                acc = acc + LambdaPoly((n - k, n - 1)) * prev[k - 1]
            if k <= n - 1:
                acc = acc + LambdaPoly((k + 1, -(n - 1))) * prev[k]
            row.append(acc)
        rows.append(tuple(row))
    sequences._clear_memos()
    table = eulerian_table(20, "recursion")
    for n in range(21):
        assert [_stored(p) for p in table.row(n)] == [_stored(p) for p in rows[n]], n


def _recursion_by_add_linear(max_n: int):
    """Reference model: rows 0..max_n of the ``recursion`` route as it was
    built before each cell became one pass, with two ``_add_linear`` steps
    per cell, one per parent."""
    rows = [(LambdaPoly((1,)),)]
    for n in range(1, max_n + 1):
        prev, row = rows[-1], []
        for k in range(n + 1):
            acc = []
            if k >= 1:  # A(n-1,k-1)
                algebra._add_linear(acc, prev[k - 1]._num, n - k, n - 1)
            if k <= n - 1:  # A(n-1,k)
                algebra._add_linear(acc, prev[k]._num, k + 1, 1 - n)
            row.append(algebra._make(acc, 1))
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("steps", [(24,), (0, 1, 2, 5, 11, 12, 24), tuple(range(25))])
def test_recursion_route_matches_the_two_step_model(steps):
    # in one call or continued from the rows of earlier calls
    model = [[_stored(p) for p in row] for row in _recursion_by_add_linear(24)]
    sequences._clear_memos()
    for max_n in steps:
        rows = route_rows("eulerian", max_n, "recursion")
        assert [[_stored(p) for p in row] for row in rows] == model[: max_n + 1], max_n


def test_gf_recursion_kernel_matches_the_ring():
    # the ring Horner scheme in (x-1): acc <- acc·(x-1) + C(n,i)·(1)_{n-i,-λ}·A_i(x)
    zero = LambdaPoly()
    ones = [_ring_falling(1, m).scale_lambda(-1) for m in range(25)]
    rows = [(LambdaPoly((1,)),)]
    for n in range(1, 25):
        acc = []
        for i in range(n):
            acc = [a - b for a, b in zip([zero] + acc, acc + [zero])]
            scalar = comb(n, i) * ones[n - i]
            acc = [a + scalar * c for a, c in zip(acc, rows[i])]
        rows.append(tuple(acc) + (zero,))
    sequences._clear_memos()
    table = eulerian_table(24, "gf-recursion")
    for n in range(25):
        assert [_stored(p) for p in table.row(n)] == [_stored(p) for p in rows[n]], n


def test_explicit_sum_kernels_match_the_ring():
    sequences._clear_memos()
    for n in range(11):
        for k in range(n + 3):
            acc = LambdaPoly()
            for i in range(k + 1):
                term = comb(n + 1, i) * _ring_falling(k - i + 1, n)
                acc = acc + (term if i % 2 == 0 else -term)
            assert _stored(eulerian_explicit(n, k)) == _stored(acc), (n, k)
            acc = LambdaPoly()
            for j in range(k + 1):
                term = comb(k, j) * _ring_falling(j, n)
                acc = acc + (term if (k - j) % 2 == 0 else -term)
            assert _stored(stirling2_degenerate(n, k)) == _stored(acc * F(1, factorial(k))), (n, k)


def test_direct_power_sum_kernel_matches_the_ring():
    for m in range(1, 7):
        for n in range(1, 7):
            acc = LambdaPoly()
            for k in range(1, m + 1):
                acc = acc + _ring_falling(k, n)
            assert _stored(power_sum(m, n, "direct")) == _stored(acc), (m, n)


def test_lambda_negated_sums_match_the_ring():
    # each sum over A_{-λ}(n,j) against the ring code with scale_lambda(-1)
    sequences._clear_memos()
    for n in range(13):
        row = eulerian_table(n).row(n)
        for k in range(n + 1):
            acc = LambdaPoly()
            for j in range(n + 1):
                c = comb(j, n - k)
                if c:
                    acc = acc + c * row[j].scale_lambda(-1)
            ring = acc * F(1, factorial(k))
            assert _stored(stirling2_from_eulerian(n, k)) == _stored(ring), (n, k)
        acc = XLPoly()
        for k in range(n + 1):
            if not row[k].is_zero:
                acc = acc + binomial_poly(k, n) * row[k].scale_lambda(-1)
        assert _xl_stored(worpitzky_lhs(n)) == _xl_stored(acc), n


def test_eulerian_from_stirling2_kernel_matches_the_ring():
    for n in range(1, 13):
        for k in range(1, n + 1):
            acc = LambdaPoly()
            for j in range(k + 1):
                term = comb(n - j, n - k) * factorial(j) * stirling2_degenerate(n, j)
                acc = acc + (term if (k - j) % 2 == 0 else -term)
            assert _stored(eulerian_from_stirling2(n, k)) == _stored(acc), (n, k)


def _ring_eval_x(p: XLPoly, v) -> LambdaPoly:
    """p at x = v by a Horner scheme on the LambdaPoly ring operators."""
    acc = LambdaPoly()
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def test_power_sum_kernels_match_the_ring():
    sequences._clear_memos()
    for n in range(1, 13):
        row = eulerian_table(n).row(n)
        poly = bernoulli_polynomial(n + 1)
        for m in range(1, 21):
            acc = LambdaPoly()
            for j in range(n + 1):
                acc = acc + comb(m + j + 1, n + 1) * row[j].scale_lambda(-1)
            assert _stored(power_sum(m, n, "eulerian")) == _stored(acc), (m, n)
            ring = (_ring_eval_x(poly, m + 1) - _ring_eval_x(poly, 0)) * F(1, n + 1)
            assert _stored(power_sum(m, n, "bernoulli")) == _stored(ring), (m, n)


def test_bernoulli_polynomial_kernel_matches_the_ring():
    # Σ_k C(n,k)·β_k·(x)_{n-k,λ} as an XLPoly ring sum, the falling
    # factorials of x multiplied out factor by factor
    falling = [XLPoly.constant(1)]
    for i in range(24):
        falling.append(falling[-1] * (X - i * LAM))
    sequences._clear_memos()
    beta = bernoulli_taps(24)
    for n in range(25):
        ring = XLPoly()
        for k in range(n + 1):
            ring = ring + falling[n - k] * (comb(n, k) * beta[k])
        assert _xl_stored(bernoulli_polynomial(n)) == _xl_stored(ring), n


def test_verify_sum_kernels_match_the_ring():
    # the left sides the eq-19, eq-38, row-sum and alternating-sum checks yield
    table = eulerian_table(12)
    for (params, lhs, _), (n, k) in zip(
        verify._cases_coefficient_relation({"n_max": 12, "k_max": 15}),
        ((n, k) for n in range(13) for k in range(16)),
        strict=True,
    ):
        acc = LambdaPoly()
        for i in range(min(k, n) + 1):
            acc = acc + comb(n + k - i, n) * table.entry(n, i)
        assert params == {"n": n, "k": k} and _stored(lhs) == _stored(acc), (n, k)
    cases = list(verify._cases_stirling2_binomial_expansion({"n_max": 12}))
    assert len(cases) == 13
    for n, (params, lhs, _) in enumerate(cases):
        acc = XLPoly()
        for k in range(n + 1):
            acc = acc + binomial_poly(0, k) * (factorial(k) * stirling2_degenerate(n, k))
        assert params == {"n": n} and _xl_stored(lhs) == _xl_stored(acc), n
    rows = verify._cases_row_sum({"n_max": 12})
    alternating = verify._cases_alternating_sum({"n_max": 12})
    for n, ((_, row_sum, _), (_, alt_sum, _)) in enumerate(zip(rows, alternating, strict=True)):
        total, signed = LambdaPoly(), LambdaPoly()
        for k, entry in enumerate(table.row(n)):
            total = total + entry
            signed = signed + (entry if k % 2 == 0 else -entry)
        assert _stored(row_sum) == _stored(total), n
        assert _stored(alt_sum) == _stored(signed), n


def test_lambda_degree_tail_matches_the_ring():
    table = eulerian_table(12)
    cases = verify._cases_lambda_degree({"n_max": 12})
    expected = ((n, k) for n in range(1, 13) for k in range(n + 1))
    for (params, tail, _), (n, k) in zip(cases, expected, strict=True):
        ring = LambdaPoly(table.entry(n, k).coeffs[n:])
        assert params == {"n": n, "k": k} and _stored(tail) == _stored(ring), (n, k)


@given(st.lists(st.integers(-10**6, 10**6), max_size=8), st.integers(2, 720))
def test_negate_lambda_is_scale_lambda_minus_one(nums, den):
    p = LambdaPoly([F(c, den) for c in nums])
    assume(p._den != 1)
    negated = p.scale_lambda(-1)
    assert _negate_lambda(p._num) == list(negated._num) and negated._den == p._den


# ---------------------------------------------------------------------------
# Worpitzky expansion and coefficient identities
# ---------------------------------------------------------------------------


def test_worpitzky_hand_cases():
    assert worpitzky_lhs(0) == XLPoly.constant(1)
    assert worpitzky_lhs(1) == X
    assert worpitzky_lhs(2) == X * X - XLPoly.constant(LambdaPoly((0, 1))) * X


def test_worpitzky_matches_falling_factorial():
    for n in range(10):
        assert worpitzky_lhs(n) == falling_factorial_degenerate(X, n), n


def test_geometric_coefficient_relation():
    # Σ_i A(n,i)·C(n+k-i, n) = (k+1)_{n,λ}
    table = eulerian_table(6)
    for n in range(7):
        for k in range(9):
            acc = LambdaPoly()
            for i in range(min(k, n) + 1):
                acc = acc + comb(n + k - i, n) * table.entry(n, i)
            assert acc == falling_factorial_degenerate(k + 1, n), (n, k)


def test_stirling2_binomial_expansion():
    # (x)_{n,λ} = Σ_k k!·{n k}·C(x,k)
    for n in range(9):
        acc = XLPoly()
        for k in range(n + 1):
            acc = acc + binomial_poly(0, k) * (factorial(k) * stirling2_degenerate(n, k))
        assert acc == falling_factorial_degenerate(X, n), n
