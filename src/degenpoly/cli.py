"""Command-line front end: sequence tables, exact evaluation, identity suite.

Output is machine-readable and byte-deterministic: polynomials serialize
as coefficient arrays of canonical rational strings ("-1/2", never "2/-4"
or "0.5"), lowest power first, with bivariate polynomials as nested
arrays indexed by x-power. JSON documents validate against the schema
shipped as ``degenpoly/output-schema.json``; CSV uses the fixed header
``family,n,k,value``. A separate --human flag renders readable math text
instead of the machine formats.

``table`` runs in three steps. Every family is built as rows of
λ-polynomial cells: a triangle row, the x-coefficients of A_n(x), or the
single cell β_n. A rational λ is substituted into each cell once. One
short block per format then writes the rows.

λ (and any other rational argument) is either the word "symbolic" or an
exact rational token; float literals are rejected so results stay exact
end to end.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import islice
from typing import Dict, List, Optional, Sequence, Union

from . import __version__
from .algebra import LambdaPoly, XLPoly
from .egf import bernoulli_taps
from .sequences import (
    AT_MINUS_ONE_ROUTES,
    BERNOULLI_ROUTES,
    EULERIAN_ROUTES,
    POWER_SUM_ROUTES,
    STIRLING1_ROUTES,
    STIRLING2_ROUTES,
    eulerian_at_minus_one,
    eulerian_poly,
    eulerian_table,
    power_sum,
    stirling1_row,
    stirling2_degenerate,
    stirling2_from_eulerian,
)
from .verify import RangeOverrideError, UnknownCheckError, run_suite

DEFAULT_N_CAP = 64
N_CAP_ENV = "DEGENPOLY_MAX_N"

TABLE_FAMILIES = ("eulerian-number", "eulerian-poly", "bernoulli", "stirling1", "stirling2")
#: Routes per family, default first (the library's own route tuples).
FAMILY_ROUTES = {
    "eulerian-number": EULERIAN_ROUTES,
    "eulerian-poly": EULERIAN_ROUTES,
    "bernoulli": BERNOULLI_ROUTES,
    "stirling1": STIRLING1_ROUTES,
    "stirling2": STIRLING2_ROUTES,
    "powersum": POWER_SUM_ROUTES,
    "eulerian-at": AT_MINUS_ONE_ROUTES,
}

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

#: Tokens argparse reads as values rather than options: its own negative
#: numbers ("-3", "-0.5") plus negative rationals ("-2/3").
_NEGATIVE_VALUE_RE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class UsageError(Exception):
    """Invalid invocation; reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# exact serialization (round-trip: parse(render(p)) == p)
# ---------------------------------------------------------------------------


def parse_rational(token: str) -> Fraction:
    """Parse an exact rational token; floats are rejected, not rounded."""
    if not _RATIONAL_RE.match(token):
        raise UsageError(
            f"invalid rational {token!r}: expected an exact value like -3 or 1/2 "
            "(float literals are not accepted)"
        )
    return Fraction(token)


def render_rational(value) -> str:
    return str(Fraction(value))


def render_lambda_poly(p: LambdaPoly) -> List[str]:
    """Coefficient array of a λ-polynomial, lowest power first."""
    if p._den == 1:  # str(n) is str(Fraction(n)), without the reduction
        return [str(c) for c in p._num]
    return [str(c) for c in p.coeffs]


def parse_lambda_poly(values: Sequence[str]) -> LambdaPoly:
    return LambdaPoly(parse_rational(v) for v in values)


def render_xl_poly(p: XLPoly) -> List[List[str]]:
    """Nested coefficient array: outer index x-power, inner index λ-power."""
    return [render_lambda_poly(c) for c in p.coeffs]


def parse_xl_poly(values: Sequence[Sequence[str]]) -> XLPoly:
    return XLPoly(parse_lambda_poly(v) for v in values)


def output_schema() -> dict:
    """The JSON schema all CLI JSON documents validate against."""
    from importlib import resources  # on demand: no command reads the schema

    with resources.files(__package__).joinpath("output-schema.json").open("rb") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _n_cap() -> int:
    raw = os.environ.get(N_CAP_ENV)
    if raw is None:
        return DEFAULT_N_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"{N_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise UsageError(f"{N_CAP_ENV} must be >= 0, got {cap}")
    return cap


def _check_cap(name: str, value: int):
    cap = _n_cap()
    if value > cap:
        raise UsageError(
            f"{name}={value} exceeds the hard cap {cap} (override with {N_CAP_ENV})"
        )
    if value < 0:
        raise UsageError(f"{name} must be >= 0, got {value}")


def _metadata(route: Optional[str] = None, mode: Optional[str] = None, timestamp: bool = False) -> dict:
    meta = {"tool": "degenpoly", "version": __version__}
    if route is not None:
        meta["route"] = route
    if mode is not None:
        meta["mode"] = mode
    if timestamp:
        from datetime import datetime, timezone  # on demand: only --timestamp needs it

        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


#: Every JSON document's layout: sorted keys, two-space indent, UTF-8 text.
_JSON = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)


def _emit_json(doc: dict, out) -> None:
    # Written in batches of encoder chunks: json.dump writes every chunk
    # (hundreds for one eval document) through ``out``, while one json.dumps
    # string would hold a second copy of a table document (up to ~0.7 MB).
    chunks = _JSON.iterencode(doc)
    while batch := "".join(islice(chunks, 512)):
        out.write(batch)
    out.write("\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _resolve_route(family: str, requested: Optional[str]) -> str:
    routes = FAMILY_ROUTES[family]
    if requested is None:
        return routes[0]
    if requested not in routes:
        raise UsageError(
            f"route {requested!r} is not available for {family}; choose from: "
            + ", ".join(routes)
        )
    return requested


def _table_rows(family: str, n_max: int, route: str) -> List[List[LambdaPoly]]:
    """Rows of λ-polynomial cells: a triangle row, the trimmed x-coefficients
    of A_n(x) for eulerian-poly, or [β_n] for bernoulli."""
    if family == "eulerian-number":
        return [list(row) for row in eulerian_table(n_max, route).rows]
    if family == "eulerian-poly":
        return [list(XLPoly(row).coeffs) for row in eulerian_table(n_max, route).rows]
    if family == "bernoulli":
        return [[b] for b in bernoulli_taps(n_max)]
    if family == "stirling1":
        return [stirling1_row(n) for n in range(n_max + 1)]
    fn = stirling2_degenerate if route == "explicit" else stirling2_from_eulerian
    return [[fn(n, k) for k in range(n + 1)] for n in range(n_max + 1)]


def cmd_table(args, out) -> int:
    family, lam = args.family, args.lam
    _check_cap("--n-max", args.n_max)
    route = _resolve_route(family, args.route)
    rows = _table_rows(family, args.n_max, route)
    symbolic = lam == "symbolic"
    if not symbolic:
        rows = [[c.eval(lam) for c in row] for row in rows]
        if family == "eulerian-poly":  # a value can zero the leading coefficient
            rows = [[c.coeff(0) for c in XLPoly(row).coeffs] for row in rows]
    flat = family == "bernoulli"  # one cell per n, written without k

    if args.human:
        for n, row in enumerate(rows):
            if family == "eulerian-poly":
                out.write(f"{family}[{n}] = {XLPoly(row)}\n")
            elif flat:
                out.write(f"{family}[{n}] = {row[0]}\n")
            else:
                out.writelines(f"{family}[{n}][{k}] = {cell}\n" for k, cell in enumerate(row))
        return 0

    render = render_lambda_poly if symbolic else render_rational
    values = [[render(cell) for cell in row] for row in rows]
    if args.format == "json":
        doc = {
            "family": family,
            "parameters": {
                "n_max": args.n_max,
                "lambda": "symbolic" if symbolic else render_rational(lam),
                "route": route,
            },
            "values": [row[0] for row in values] if flat else values,
            "metadata": _metadata(route=route, timestamp=args.timestamp),
        }
        _emit_json(doc, out)
        return 0

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "n", "k", "value"])
    for n, row in enumerate(values):
        for k, cell in enumerate(row):
            writer.writerow([family, n, "" if flat else k, ";".join(cell) if symbolic else cell])
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args, out) -> int:
    lam = args.lam
    if args.expr == "powersum":
        if args.m is None or args.n is None:
            raise UsageError("powersum requires --m and --n")
        if args.m < 1 or args.n < 1:
            raise UsageError("powersum requires m >= 1 and n >= 1")
        _check_cap("--n", args.n)
        route = _resolve_route(args.expr, args.route)
        value = power_sum(args.m, args.n, route).eval(lam)
        parameters = {
            "m": args.m,
            "n": args.n,
            "lambda": render_rational(lam),
            "route": route,
        }
        human = f"powersum(m={args.m}, n={args.n}, λ={render_rational(lam)}) = {render_rational(value)}"
    else:  # eulerian-at
        if args.x is None or args.n is None:
            raise UsageError("eulerian-at requires --x and --n")
        _check_cap("--n", args.n)
        route = _resolve_route(args.expr, args.route)
        if route == "bernoulli":
            if args.x != Fraction(-1):
                raise UsageError("the bernoulli route only applies at x = -1")
            value = eulerian_at_minus_one(args.n, "bernoulli").eval(lam)
        else:
            value = eulerian_poly(args.n).eval_x(args.x).eval(lam)
        parameters = {
            "x": render_rational(args.x),
            "n": args.n,
            "lambda": render_rational(lam),
            "route": route,
        }
        human = (
            f"eulerian-poly(n={args.n})(x={render_rational(args.x)}, "
            f"λ={render_rational(lam)}) = {render_rational(value)}"
        )

    if args.human:
        out.write(human + "\n")
        return 0
    doc = {
        "family": args.expr,
        "parameters": parameters,
        "value": render_rational(value),
        "metadata": _metadata(route=route, timestamp=args.timestamp),
    }
    _emit_json(doc, out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args, out) -> int:
    selection = args.check if args.check else None
    if args.suite and args.check:
        raise UsageError("use either --suite all or --check, not both")
    ranges: Dict[str, int] = {}
    for key in ("n_max", "m_max", "k_max"):
        value = getattr(args, key)
        if value is not None:
            _check_cap("--" + key.replace("_", "-"), value)
            ranges[key] = value
    try:
        results = run_suite(selection, ranges or None)
    except (UnknownCheckError, RangeOverrideError) as exc:
        raise UsageError(str(exc)) from None

    failed = [spec for spec in results if spec.status == "fail"]
    if args.format == "json":
        doc = {
            "checks": [
                {**spec._asdict(), "counterexample": spec.counterexample and spec.counterexample._asdict()}
                for spec in results
            ],
            "summary": {
                "total": len(results),
                "passed": len(results) - len(failed),
                "failed": len(failed),
                "mode": "exact",
            },
            "metadata": _metadata(mode="exact", timestamp=args.timestamp),
        }
        _emit_json(doc, out)
    else:
        for spec in results:
            bounds = ", ".join(f"{k}={v}" for k, v in sorted(spec.ranges.items()))
            out.write(f"{spec.status.upper():4s} {spec.id} ({bounds})\n")
            if spec.counterexample is not None:
                ce = spec.counterexample
                at = ", ".join(f"{k}={v}" for k, v in ce.parameters.items())
                out.write(f"     counterexample at {at}:\n")
                out.write(f"       lhs = {ce.lhs}\n")
                out.write(f"       rhs = {ce.rhs}\n")
        out.write(
            f"{len(results)} checks: {len(results) - len(failed)} passed, "
            f"{len(failed)} failed (mode: exact)\n"
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _rational_arg(*words: str):
    """argparse type: an exact rational token, or one of ``words`` as given."""

    def convert(token: str) -> Union[str, Fraction]:
        if token in words:
            return token
        try:
            return parse_rational(token)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes "--lambda -2/3" as a value, like "--n -3"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE_RE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degenpoly",
        description="Exact tables, evaluation and identity checks for the "
        "degenerate Eulerian, Bernoulli and Stirling families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a sequence family as JSON or CSV")
    p_table.add_argument("family", choices=TABLE_FAMILIES)
    p_table.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_table.add_argument("--route", default=None, help="computation route (family-specific)")
    p_table.add_argument(
        "--lambda",
        dest="lam",
        type=_rational_arg("symbolic"),
        default="symbolic",
        help='"symbolic" (default) or an exact rational like 1/2',
    )
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--human", action="store_true", help="readable math text instead of machine output")
    p_table.add_argument("--timestamp", action="store_true", help="include a UTC timestamp in metadata")
    p_table.set_defaults(func=cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate one quantity at exact rational arguments")
    p_eval.add_argument("expr", choices=("powersum", "eulerian-at"))
    p_eval.add_argument("--m", type=int, default=None)
    p_eval.add_argument("--n", type=int, default=None, required=True)
    p_eval.add_argument("--x", type=_rational_arg(), default=None)
    p_eval.add_argument("--lambda", dest="lam", type=_rational_arg(), required=True)
    p_eval.add_argument("--route", default=None)
    p_eval.add_argument("--human", action="store_true")
    p_eval.add_argument("--timestamp", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--suite", choices=("all",), default=None)
    p_verify.add_argument("--check", action="append", default=None, help="check id (repeatable)")
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.add_argument("--m-max", type=int, default=None, dest="m_max")
    p_verify.add_argument("--k-max", type=int, default=None, dest="k_max")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timestamp", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first command and shared by the later ones in
    the process; parse_args leaves it unchanged and returns a new namespace."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    # The builder memos live as long as the process, so a command reuses the
    # rows, taps and products that earlier commands built.
    try:
        return args.func(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
