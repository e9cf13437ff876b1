"""Registry of every identity as an executable, named check.

Each check scans a parameter range in lexicographic order and compares two
independently computed values by exact equality of polynomials over Q[λ]
(or Q[λ][x]), never by sampling λ. It passes over its whole range, fails
with the smallest counterexample (parameters plus both sides as polynomial
text), or errors with the exception a case raised.

A check may declare the largest ranges it supports (the permutation
enumerations stop at n = MAX_ENUMERATION_N) and the smallest ones that
still scan a case (checks whose cases start at n = 1 need n_max >= 1, the
power-sum checks also m_max >= 1; no range goes below 0). An override
outside them raises RangeOverrideError, and run_suite raises it before
running any check.

Checks share the memoized builders of ``algebra``, ``egf`` and
``sequences`` (each triangle is built once per route and process, then
sliced or extended), but they are still pure
and independent of each other: a memo only ever returns what its route computes from scratch, so
running any selection in any order yields identical per-check results.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import comb, factorial
from types import MappingProxyType

from .algebra import (
    LambdaPoly,
    X,
    XLPoly,
    _add_linear,
    _make,
    _x_falling,
    _xl,
    falling_factorial_degenerate,
)
from .egf import bernoulli_taps, gf_residual
from .oracles import (
    MAX_ENUMERATION_N,
    classical_triangles,
    descent_distribution,
    excedance_distribution,
)
from .sequences import (
    _explicit_sums,
    eulerian_at_minus_one,
    eulerian_from_stirling2,
    eulerian_table,
    power_sum,
    route_rows,
    stirling1_row,
    stirling2_from_eulerian,
    worpitzky_lhs,
)

__all__ = [
    "Check",
    "CheckSpec",
    "Counterexample",
    "RangeOverrideError",
    "UnknownCheckError",
    "check_ids",
    "get_check",
    "run_check",
    "run_suite",
]

#: The smallest failing case: its parameters (dict[str, int]) and both
#: sides as polynomial text (str).
Counterexample = namedtuple("Counterexample", ("parameters", "lhs", "rhs"))


class CheckSpec(namedtuple("CheckSpec", ("id", "statement", "ranges", "status", "counterexample", "error"),
                           defaults=(None, None))):
    """A named check's outcome once run: "pass", "fail" with the smallest
    counterexample, or "error" with what its cases raised, as "Type: message"."""

    __slots__ = ()


#: A case is (parameters, lhs, rhs); lhs/rhs are ring elements or rationals.
Cases = Iterator[tuple[dict[str, int], object, object]]

#: A named identity: ``cases`` maps the ranges (dict[str, int]) to its
#: Cases; ``max_ranges`` and ``min_ranges`` (read-only mappings, empty by
#: default) bound what an override may ask for.
Check = namedtuple("Check", ("id", "statement", "default_ranges", "cases", "max_ranges", "min_ranges"),
                   defaults=(MappingProxyType({}), MappingProxyType({})))


class UnknownCheckError(ValueError):
    """Raised for a check id that is not in the registry."""

    def __init__(self, unknown: Iterable[str], valid: Iterable[str]):
        self.unknown = tuple(unknown)
        self.valid = tuple(valid)
        names = ", ".join(self.unknown)
        super().__init__(
            f"unknown check id(s): {names}; valid ids are: {', '.join(self.valid)}"
        )


class RangeOverrideError(ValueError):
    """Raised for a range override outside what a check supports."""


def _effective_ranges(check: Check, ranges: dict[str, int] | None) -> dict[str, int]:
    effective = dict(check.default_ranges)
    for key, value in (ranges or {}).items():
        if key in effective:
            limit = check.max_ranges.get(key)
            if limit is not None and value > limit:
                raise RangeOverrideError(
                    f"{check.id} supports {key} <= {limit}, got {key}={value}"
                )
            lowest = check.min_ranges.get(key, 0)
            if value < lowest:
                raise RangeOverrideError(
                    f"{check.id} supports {key} >= {lowest}, got {key}={value}"
                )
            effective[key] = value
    return effective


def _agree(lhs, rhs) -> bool:
    return lhs == rhs


def run_check(check: Check, ranges: dict[str, int] | None = None) -> CheckSpec:
    """Run one check over its (possibly overridden) ranges and return its
    finished spec: "fail" with the first (smallest) disagreeing case as the
    counterexample, "error" if computing a case raised, else "pass"."""
    effective = _effective_ranges(check, ranges)
    try:
        for params, lhs, rhs in check.cases(effective):
            if not _agree(lhs, rhs):
                counterexample = Counterexample(dict(params), str(lhs), str(rhs))
                return CheckSpec(check.id, check.statement, effective, "fail", counterexample)
    except Exception as exc:
        return CheckSpec(check.id, check.statement, effective, "error", error=f"{type(exc).__name__}: {exc}")
    return CheckSpec(check.id, check.statement, effective, "pass")


# ---------------------------------------------------------------------------
# case generators (all iterate in lexicographic (n, k, m) order)
# ---------------------------------------------------------------------------


def _cases_gf_residual(r) -> Cases:
    residual = gf_residual(r["n_max"])
    zero = XLPoly()
    for n in range(r["n_max"] + 1):
        yield {"n": n}, residual[n], zero


def _cases_vanishing(r) -> Cases:
    zero = LambdaPoly()
    sums = _explicit_sums(0, [range(n + 1, n + 4) for n in range(r["n_max"] + 1)])
    for n, row in enumerate(sums):
        for k, num in enumerate(row, n + 1):
            yield {"n": n, "k": k}, _make(num, 1), zero


def _cases_number_recursion(r) -> Cases:
    explicit = eulerian_table(r["n_max"], "explicit")
    recursive = eulerian_table(r["n_max"], "recursion")
    for n in range(r["n_max"] + 1):
        for k in range(n + 1):
            yield {"n": n, "k": k}, explicit.entry(n, k), recursive.entry(n, k)


def _cases_poly_recursion(r) -> Cases:
    direct = eulerian_table(r["n_max"], "gf-recursion")
    assembled = eulerian_table(r["n_max"], "recursion")
    for n in range(r["n_max"] + 1):
        yield {"n": n}, XLPoly(assembled.row(n)), XLPoly(direct.row(n))


def _cases_at_minus_one(r) -> Cases:
    for n in range(r["n_max"] + 1):
        lhs = eulerian_at_minus_one(n, "direct")
        rhs = eulerian_at_minus_one(n, "bernoulli")
        yield {"n": n}, lhs, rhs


def _cases_alternating_sum(r) -> Cases:
    table = eulerian_table(r["n_max"])
    for n in range(r["n_max"] + 1):
        acc = []
        for k, entry in enumerate(table.row(n)):
            _add_linear(acc, entry._num, -1 if k % 2 else 1)
        yield {"n": n}, _make(acc, 1), eulerian_at_minus_one(n, "bernoulli")


def _cases_worpitzky(r) -> Cases:
    for n in range(r["n_max"] + 1):
        yield {"n": n}, worpitzky_lhs(n), falling_factorial_degenerate(X, n)


def _cases_stirling2_from_eulerian(r) -> Cases:
    explicit = route_rows("stirling2", r["n_max"], "explicit")
    for n in range(r["n_max"] + 1):
        for k in range(n + 1):
            yield {"n": n, "k": k}, stirling2_from_eulerian(n, k), explicit[n][k]


def _cases_power_sum(route_a: str, route_b: str):
    def cases(r) -> Cases:
        for n in range(1, r["n_max"] + 1):
            for m in range(1, r["m_max"] + 1):
                yield {"n": n, "m": m}, power_sum(m, n, route_a), power_sum(m, n, route_b)

    return cases


def _cases_eulerian_from_stirling2(r) -> Cases:
    explicit = eulerian_table(r["n_max"], "explicit")
    route_rows("stirling2", r["n_max"], "explicit")  # the rows the left side sums, in one call
    for n in range(1, r["n_max"] + 1):
        for k in range(1, n + 1):
            yield {"n": n, "k": k}, eulerian_from_stirling2(n, k), explicit.entry(n, k - 1)


def _cases_coefficient_relation(r) -> Cases:
    # expansion of A_n(x)/(1-x)^{n+1}: Σ_i A(n,i)·C(n+k-i, n) = (k+1)_{n,λ}
    table = eulerian_table(r["n_max"])
    for n in range(r["n_max"] + 1):
        for k in range(r["k_max"] + 1):
            acc = []
            for i in range(min(k, n) + 1):
                _add_linear(acc, table.entry(n, i)._num, comb(n + k - i, n))
            yield {"n": n, "k": k}, _make(acc, 1), falling_factorial_degenerate(k + 1, n)


def _cases_stirling2_binomial_expansion(r) -> Cases:
    # (x)_{n,λ} = Σ_k k!·{n k}·C(x,k) = Σ_k {n k}·(x)_k, summed over n!
    explicit = route_rows("stirling2", r["n_max"], "explicit")
    x_falling = [_x_falling(0, k) for k in range(r["n_max"] + 1)]
    for n in range(r["n_max"] + 1):
        den = factorial(n)
        accs = [[] for _ in range(n + 1)]
        for k, value in enumerate(explicit[n]):
            scale = den // value._den
            for acc, c in zip(accs, x_falling[k]):
                _add_linear(acc, value._num, scale * c)
        yield {"n": n}, _xl([_make(acc, den) for acc in accs]), falling_factorial_degenerate(X, n)


def _cases_lambda0_eulerian(r) -> Cases:
    table = eulerian_table(r["n_max"])
    classical = classical_triangles(r["n_max"])
    for n in range(r["n_max"] + 1):
        for k in range(n + 1):
            lhs = table.entry(n, k).eval(0)
            yield {"n": n, "k": k}, lhs, Fraction(classical.eulerian[n][k])


def _cases_lambda0_stirling(r) -> Cases:
    classical = classical_triangles(r["n_max"])
    explicit = route_rows("stirling2", r["n_max"], "explicit")
    for n in range(r["n_max"] + 1):
        row1 = stirling1_row(n)
        for k in range(n + 1):
            yield {"n": n, "k": k, "kind": 1}, row1[k].eval(0), Fraction(classical.stirling1[n][k])
        for k in range(n + 1):
            lhs = explicit[n][k].eval(0)
            yield {"n": n, "k": k, "kind": 2}, lhs, Fraction(classical.stirling2[n][k])


def _cases_lambda0_bernoulli(r) -> Cases:
    taps = bernoulli_taps(r["n_max"])
    classical = classical_triangles(r["n_max"])
    for n in range(r["n_max"] + 1):
        yield {"n": n}, taps[n].eval(0), classical.bernoulli[n]


def _cases_descent_oracle(r) -> Cases:
    table = eulerian_table(r["n_max"])
    for n in range(1, r["n_max"] + 1):
        counts = descent_distribution(n).counts
        for k in range(n):
            yield {"n": n, "k": k}, table.entry(n, k).eval(0), Fraction(counts[k])


def _cases_excedance_oracle(r) -> Cases:
    for n in range(1, r["n_max"] + 1):
        descents = descent_distribution(n).counts
        excedances = excedance_distribution(n).counts
        for k in range(n):
            yield {"n": n, "k": k}, Fraction(descents[k]), Fraction(excedances[k])


def _cases_lambda1_bernoulli(r) -> Cases:
    taps = bernoulli_taps(r["n_max"])
    for n in range(1, r["n_max"] + 1):
        yield {"n": n}, taps[n].eval(1), Fraction(0)


def _cases_row_sum(r) -> Cases:
    table = eulerian_table(r["n_max"])
    for n in range(r["n_max"] + 1):
        acc = []
        for entry in table.row(n):
            _add_linear(acc, entry._num, 1)
        yield {"n": n}, _make(acc, 1), LambdaPoly((factorial(n),))


def _cases_top_entry(r) -> Cases:
    # the explicit rows: there A(n,n) is a full alternating sum, where the
    # recursion's top cell is (n-1)λ·A(n-1,n-1), zero from A(1,1) = 0·λ on
    table = eulerian_table(r["n_max"], "explicit")
    zero = LambdaPoly()
    for n in range(1, r["n_max"] + 1):
        yield {"n": n}, table.entry(n, n), zero


def _cases_lambda_degree(r) -> Cases:
    table = eulerian_table(r["n_max"])
    zero = LambdaPoly()
    for n in range(1, r["n_max"] + 1):
        for k in range(n + 1):
            # coefficients of λ^n and above must all vanish
            entry = table.entry(n, k)
            tail = _make(list(entry._num[n:]), entry._den)
            yield {"n": n, "k": k}, tail, zero


REGISTRY: tuple[Check, ...] = (
    Check(
        "prop-2.1-gf-residual",
        "S(t)·(x - e_{-λ}((x-1)t)) = x - 1 for the Eulerian polynomial EGF, tap by tap",
        {"n_max": 12},
        _cases_gf_residual,
    ),
    Check(
        "thm-2.2-vanishing",
        "the explicit alternating sum for A(n,k) vanishes identically for k > n",
        {"n_max": 15},
        _cases_vanishing,
    ),
    Check(
        "thm-2.3-poly-recursion",
        "assembled A_n(x) equals the generating-function recursion route",
        {"n_max": 20},
        _cases_poly_recursion,
    ),
    Check(
        "thm-2.4-at-minus-one",
        "A_n(-1) equals 2^{n+1}(2^{n+1}β_{n+1,λ/2} - β_{n+1,λ})/(n+1)",
        {"n_max": 15},
        _cases_at_minus_one,
    ),
    Check(
        "cor-2.5-alternating-sum",
        "Σ_k (-1)^k A(n,k) equals the Bernoulli closed form for A_n(-1)",
        {"n_max": 15},
        _cases_alternating_sum,
    ),
    Check(
        "thm-2.6-recursion",
        "explicit-sum route equals the two-term recursion over the triangle",
        {"n_max": 20},
        _cases_number_recursion,
    ),
    Check(
        "thm-2.7-worpitzky",
        "Σ_k C(x+k,n)·A_{-λ}(n,k) = (x)_{n,λ} as a bivariate identity",
        {"n_max": 15},
        _cases_worpitzky,
    ),
    Check(
        "thm-2.8-stirling2-from-eulerian",
        "{n k} = (1/k!)·Σ_j A_{-λ}(n,j)·C(j,n-k) matches the explicit sum",
        {"n_max": 15},
        _cases_stirling2_from_eulerian,
    ),
    Check(
        "thm-2.9-power-sum-eulerian",
        "Σ_{k≤m}(k)_{n,λ} equals Σ_j A_{-λ}(n,j)·C(m+j+1,n+1)",
        {"n_max": 10, "m_max": 20},
        _cases_power_sum("direct", "eulerian"),
        min_ranges={"n_max": 1, "m_max": 1},
    ),
    Check(
        "eq-43-power-sum-bernoulli",
        "Σ_{k≤m}(k)_{n,λ} equals (β_{n+1}(m+1) - β_{n+1})/(n+1)",
        {"n_max": 10, "m_max": 20},
        _cases_power_sum("direct", "bernoulli"),
        min_ranges={"n_max": 1, "m_max": 1},
    ),
    Check(
        "thm-2.10-power-sum-routes",
        "the Eulerian and Bernoulli power-sum expressions agree with each other",
        {"n_max": 10, "m_max": 20},
        _cases_power_sum("eulerian", "bernoulli"),
        min_ranges={"n_max": 1, "m_max": 1},
    ),
    Check(
        "thm-2.11-eulerian-from-stirling2",
        "A(n,k-1) = (-1)^k·Σ_j (-1)^j·C(n-j,n-k)·j!·{n j} matches the explicit sum",
        {"n_max": 15},
        _cases_eulerian_from_stirling2,
        min_ranges={"n_max": 1},
    ),
    Check(
        "eq-19-coefficient-relation",
        "Σ_i A(n,i)·C(n+k-i,n) = (k+1)_{n,λ} (expansion of A_n(x)/(1-x)^{n+1})",
        {"n_max": 10, "k_max": 15},
        _cases_coefficient_relation,
    ),
    Check(
        "eq-38-stirling2-binomial-expansion",
        "(x)_{n,λ} = Σ_k k!·{n k}·C(x,k) as a bivariate identity",
        {"n_max": 12},
        _cases_stirling2_binomial_expansion,
    ),
    Check(
        "lambda0-eulerian-triangle",
        "the λ=0 Eulerian triangle matches the classical recursion triangle",
        {"n_max": 12},
        _cases_lambda0_eulerian,
    ),
    Check(
        "lambda0-stirling-triangles",
        "the λ=0 Stirling numbers of both kinds match the classical triangles",
        {"n_max": 12},
        _cases_lambda0_stirling,
    ),
    Check(
        "lambda0-bernoulli",
        "the λ=0 Bernoulli numbers match the classical triangular solve",
        {"n_max": 12},
        _cases_lambda0_bernoulli,
    ),
    Check(
        "lambda0-descent-oracle",
        "the λ=0 Eulerian row equals the brute-force descent distribution",
        {"n_max": 7},
        _cases_descent_oracle,
        {"n_max": MAX_ENUMERATION_N},
        min_ranges={"n_max": 1},
    ),
    Check(
        "lambda0-excedance-oracle",
        "descents and excedances are equidistributed over S_n",
        {"n_max": 7},
        _cases_excedance_oracle,
        {"n_max": MAX_ENUMERATION_N},
        min_ranges={"n_max": 1},
    ),
    Check(
        "lambda1-bernoulli-vanishing",
        "β_{n,λ} vanishes at λ=1 for all n ≥ 1",
        {"n_max": 12},
        _cases_lambda1_bernoulli,
        min_ranges={"n_max": 1},
    ),
    Check(
        "eulerian-row-sum",
        "Σ_k A(n,k) = n! as a constant polynomial in λ",
        {"n_max": 15},
        _cases_row_sum,
    ),
    Check(
        "eulerian-top-entry",
        "A(n,n) = 0 for n ≥ 1",
        {"n_max": 20},
        _cases_top_entry,
        min_ranges={"n_max": 1},
    ),
    Check(
        "eulerian-lambda-degree",
        "A(n,k) has λ-degree at most n-1 for n ≥ 1",
        {"n_max": 15},
        _cases_lambda_degree,
        min_ranges={"n_max": 1},
    ),
)

_BY_ID = {check.id: check for check in REGISTRY}


def check_ids() -> list[str]:
    """All registered check ids, in registry order."""
    return [check.id for check in REGISTRY]


def get_check(check_id: str) -> Check:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise UnknownCheckError([check_id], check_ids()) from None


def run_suite(
    selection: Iterable[str] | None = None,
    ranges: dict[str, int] | None = None,
) -> list[CheckSpec]:
    """Run a selection of checks (default: all) and return their results.

    Results come back in registry order regardless of selection order, so
    identical selections always produce identical reports. Every override
    is checked against every selected check before the first one runs.
    """
    if selection is None or selection == "all":
        selected = list(REGISTRY)
    else:
        wanted = list(selection)
        unknown = [cid for cid in wanted if cid not in _BY_ID]
        if unknown:
            raise UnknownCheckError(unknown, check_ids())
        chosen = set(wanted)
        selected = [check for check in REGISTRY if check.id in chosen]
    for check in selected:
        _effective_ranges(check, ranges)
    return [run_check(check, ranges) for check in selected]
