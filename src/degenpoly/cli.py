"""Command-line front end: sequence tables, exact evaluation, identity suite.

Output is machine-readable and byte-deterministic: polynomials serialize
as coefficient arrays of canonical rational strings ("-1/2", never "2/-4"
or "0.5"), lowest power first, with bivariate polynomials as nested
arrays indexed by x-power. JSON documents validate against the schema
shipped as ``degenpoly/output-schema.json``; CSV uses the fixed header
``family,n,k,value``. A separate --human flag renders readable math text
instead of the machine formats.

``table`` runs in three steps. Every family is read from the memo of its
route (``sequences.route_rows``) as rows of λ-polynomial cells: a
triangle row, or the single cell β_n. A rational λ is substituted into
each cell once, and eulerian-poly keeps the trimmed x-coefficients of
A_n(x). One short block per format then writes the rows.

λ (and any other rational argument) is either the word "symbolic" or an
exact rational token; float literals are rejected so results stay exact
end to end.

Each command's arguments are declared once, as data (``_COMMANDS``).
``build_parser`` adds them to argparse, which runs only for usage, help
and errors and is imported there, on that first use; a command in plain
forms (exact option strings and their values, ``--opt=value`` taken as it
stands, flags, the positional) is read against the same table in one
pass, without argparse.

Importing this module loads only what ``table`` and ``eval`` run: no
``argparse`` (nor the ``gettext`` it loads) and no ``typing``. JSON
is written by ``_emit_json`` with the C string quoting of ``_json``; a
document holds only strings, ints, None, lists, dicts with string keys
and LambdaPoly cells, and any other value raises TypeError. A cell is
written as its coefficient array (``render_lambda_poly``), joined in
one string: digits, "-" and "/" need no escaping. So a symbolic
``table`` hands its rows of cells to the writer as they are. The
``json`` package is imported only by ``output_schema()``. No CSV field
can hold a comma, a quote or a line break, so rows are written directly,
without the ``csv`` module. ``cmd_verify`` imports ``verify``, and with
it ``oracles``, when it runs.

Exit codes: 0 success, 1 verification failure, 2 usage error or output
that could not be written.
"""

from __future__ import annotations

import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

from . import __version__
from .algebra import LambdaPoly, XLPoly, _trim
from .sequences import ROUTES, eulerian_at_minus_one, eulerian_poly, power_sum, route_rows

try:  # the C string quoting that json.encoder re-exports, without loading json
    from _json import encode_basestring as _quote
except ImportError:
    from json.encoder import encode_basestring as _quote

DEFAULT_N_CAP = 64
N_CAP_ENV = "DEGENPOLY_MAX_N"

TABLE_FAMILIES = ("eulerian-number", "eulerian-poly", "bernoulli", "stirling1", "stirling2")
#: The library family of each CLI family name that is not one itself.
_FAMILY = {"eulerian-number": "eulerian", "eulerian-poly": "eulerian"}

#: An exact rational in ASCII digits, matched against the whole token, so
#: neither another script's digits nor a line break after it pass.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")

#: Tokens argparse reads as values rather than options: its own negative
#: numbers ("-3", "-0.5") plus negative rationals ("-2/3"). argparse calls
#: ``match``, so each branch ends at the end of the token.
_NEGATIVE_VALUE_RE = re.compile(r"-[0-9]+(/[0-9]+)?\Z|-[0-9]*\.[0-9]+\Z")


class UsageError(Exception):
    """Invalid invocation; reported on stderr with exit status 2."""


# ---------------------------------------------------------------------------
# exact serialization (round-trip: parse(render(p)) == p)
# ---------------------------------------------------------------------------


def parse_rational(token: str) -> Fraction:
    """Parse an exact rational token; floats are rejected, not rounded."""
    match = _RATIONAL_RE.fullmatch(token)
    if not match:
        raise UsageError(
            f"invalid rational {token!r}: expected an exact value like -3 or 1/2 "
            "(float literals are not accepted)"
        )
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


def render_rational(value) -> str:
    if type(value) is int or type(value) is Fraction:  # already in lowest terms
        return str(value)
    return str(Fraction(value))


def render_lambda_poly(p: LambdaPoly) -> list[str]:
    """Coefficient array of a λ-polynomial, lowest power first."""
    if p._den == 1:  # str(n) is str(Fraction(n)), without the reduction
        return list(map(str, p._num))
    return list(map(str, p.coeffs))


def parse_lambda_poly(values: Sequence[str]) -> LambdaPoly:
    return LambdaPoly(parse_rational(v) for v in values)


def render_xl_poly(p: XLPoly) -> list[list[str]]:
    """Nested coefficient array: outer index x-power, inner index λ-power."""
    return [render_lambda_poly(c) for c in p.coeffs]


def parse_xl_poly(values: Sequence[Sequence[str]]) -> XLPoly:
    return XLPoly(parse_lambda_poly(v) for v in values)


def output_schema() -> dict:
    """The JSON schema all CLI JSON documents validate against."""
    import json  # on demand, as no command reads the schema
    from importlib import resources

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


def _check_caps(*named: tuple[str, int]) -> None:
    """Each (option, value) in turn against the cap, read once per command
    and only when there is a value to check."""
    if not named:
        return
    cap = _n_cap()
    for name, value in named:
        if value > cap:
            raise UsageError(
                f"{name}={value} exceeds the hard cap {cap} (override with {N_CAP_ENV})"
            )
        if value < 0:
            raise UsageError(f"{name} must be >= 0, got {value}")


def _metadata(route: str | None = None, mode: str | None = None, timestamp: bool = False) -> dict:
    meta = {"tool": "degenpoly", "version": __version__}
    if route is not None:
        meta["route"] = route
    if mode is not None:
        meta["mode"] = mode
    if timestamp:
        from datetime import datetime, timezone  # on demand: only --timestamp needs it

        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


#: Parts held before they are written out.
_BATCH = 32


def _emit_json(doc: dict, out) -> None:
    # The layout of json.JSONEncoder(sort_keys=True, indent=2,
    # ensure_ascii=False), which below Python 3.13 has no C path with an
    # indent: each key, list and string would be a pure-Python generator
    # step. The parts go out in small batches, since one string would hold
    # a second copy of a table document (~7 MB at the n = 64 cap).
    parts: list[str] = []
    _write_json(doc, "\n", parts, out)
    parts.append("\n")
    out.write("".join(parts))


def _write_json(value, newline: str, parts: list[str], out) -> None:
    """Append ``value`` in the document layout to ``parts``; ``newline`` is
    a line break followed by the indent of the line ``value`` starts on.
    A value that no document holds raises TypeError."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is LambdaPoly:  # its coefficient array: digits, "-" and "/" need no escaping
        coeffs = render_lambda_poly(value)
        if not coeffs:
            parts.append("[]")
            return
        inner = newline + "  "
        glue = '",' + inner + '"'
        parts.append(f'[{inner}"{glue.join(coeffs)}"{newline}]')
    elif kind is list:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        try:  # all strings, such as a λ-coefficient array or a table row: one join
            parts.append(f"[{inner}{sep.join(map(_quote, value))}{newline}]")
            return
        except TypeError:  # not all strings: item by item
            pass
        head = "[" + inner
        for item in value:
            parts.append(head)
            _write_json(item, inner, parts, out)
            if len(parts) >= _BATCH:
                out.write("".join(parts))
                parts.clear()
            head = sep
        parts.append(newline + "]")
    elif kind is dict:
        for key in value:
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        head = "{" + inner
        for key, item in sorted(value.items()):
            if type(item) is str:
                parts.append(f"{head}{_quote(key)}: {_quote(item)}")
            else:
                parts.append(f"{head}{_quote(key)}: ")
                _write_json(item, inner, parts, out)
            head = sep
        parts.append(newline + "}")
    elif value is None:
        parts.append("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _resolve_route(family: str, requested: str | None) -> str:
    routes = tuple(ROUTES[_FAMILY.get(family, family)])
    if requested is None:
        return routes[0]
    if requested not in routes:
        raise UsageError(
            f"route {requested!r} is not available for {family}; choose from: "
            + ", ".join(routes)
        )
    return requested


def cmd_table(args, out) -> int:
    family, lam = args.family, args.lam
    _check_caps(("--n-max", args.n_max))
    route = _resolve_route(family, args.route)
    # rows of λ-polynomial cells: a triangle row, or the single cell β_n
    rows = route_rows(_FAMILY.get(family, family), args.n_max, route)
    symbolic = lam == "symbolic"
    if not symbolic:
        rows = [[c.eval(lam) for c in row] for row in rows]
    if family == "eulerian-poly":  # A_n(x)'s x-coefficients, trimmed after λ: a value can zero the top one
        rows = [_trim(list(row)) for row in rows]
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

    if args.format == "json":
        # symbolic cells go to the writer as they are, each written as its coefficient array
        values = [list(row) if symbolic else [render_rational(cell) for cell in row] for row in rows]
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

    render = render_lambda_poly if symbolic else render_rational
    values = [[render(cell) for cell in row] for row in rows]
    # No field can hold a comma, a quote or a line break, so each row is
    # written as csv.writer would write it, unquoted.
    out.write("family,n,k,value\n")
    out.writelines(
        f"{family},{n},{'' if flat else k},{';'.join(cell) if symbolic else cell}\n"
        for n, row in enumerate(values)
        for k, cell in enumerate(row)
    )
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args, out) -> int:
    lam = render_rational(args.lam)
    if args.expr == "powersum":
        if args.m is None:
            raise UsageError("powersum requires --m and --n")
        if args.m < 1 or args.n < 1:
            raise UsageError("powersum requires m >= 1 and n >= 1")
        _check_caps(("--m", args.m), ("--n", args.n))
        route = _resolve_route(args.expr, args.route)
        value = power_sum(args.m, args.n, route).eval(args.lam)
        parameters = {"m": args.m, "n": args.n, "lambda": lam, "route": route}
    else:  # eulerian-at
        if args.x is None:
            raise UsageError("eulerian-at requires --x and --n")
        _check_caps(("--n", args.n))
        route = _resolve_route(args.expr, args.route)
        if args.x == -1:
            value = eulerian_at_minus_one(args.n, route).eval(args.lam)
        elif route == "bernoulli":
            raise UsageError("the bernoulli route only applies at x = -1")
        else:
            value = eulerian_poly(args.n).eval_x(args.x).eval(args.lam)
        parameters = {"x": render_rational(args.x), "n": args.n, "lambda": lam, "route": route}
    value = render_rational(value)

    if args.human:
        if args.expr == "powersum":
            out.write(f"powersum(m={args.m}, n={args.n}, λ={lam}) = {value}\n")
        else:
            out.write(f"eulerian-poly(n={args.n})(x={parameters['x']}, λ={lam}) = {value}\n")
        return 0
    doc = {
        "family": args.expr,
        "parameters": parameters,
        "value": value,
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
    ranges = {key: getattr(args, key) for key in ("n_max", "m_max", "k_max")
              if getattr(args, key) is not None}
    _check_caps(*(("--" + key.replace("_", "-"), value) for key, value in ranges.items()))
    # on demand: only verify loads the identity suite and the oracles
    from .verify import RangeOverrideError, UnknownCheckError, run_suite

    try:
        results = run_suite(selection, ranges or None)
    except (UnknownCheckError, RangeOverrideError) as exc:
        raise UsageError(str(exc)) from None

    failed = [spec for spec in results if spec.status != "pass"]
    if args.format == "json":
        checks = [{**spec._asdict(), "counterexample": spec.counterexample and spec.counterexample._asdict()}
                  for spec in results]
        for check in checks:
            if check["error"] is None:  # the key appears only on an errored check
                del check["error"]
        doc = {
            "checks": checks,
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
            if spec.error is not None:
                out.write(f"     error: {spec.error}\n")
        out.write(
            f"{len(results)} checks: {len(results) - len(failed)} passed, "
            f"{len(failed)} failed (mode: exact)\n"
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _rational_arg(*words: str):
    """Argument type: an exact rational token, or one of ``words`` as given.
    A malformed token raises UsageError; build_parser hands argparse the
    same message as its own type error."""

    def convert(token: str) -> str | Fraction:
        return token if token in words else parse_rational(token)

    return convert


#: Each command's function, by name (looked up per namespace, so a wrapper
#: bound over the module attribute is the one called), its help line and
#: its arguments, each declared once: a flag or positional name and its
#: ``add_argument`` keywords. build_parser and the one-pass reader read it.
_COMMANDS = {
    "table": ("cmd_table", "emit a sequence family as JSON or CSV", (
        ("family", {"choices": TABLE_FAMILIES}),
        ("--n-max", {"type": int, "required": True}),
        ("--route", {"help": "computation route (family-specific)"}),
        ("--lambda", {"dest": "lam", "type": _rational_arg("symbolic"), "default": "symbolic",
                      "help": '"symbolic" (default) or an exact rational like 1/2'}),
        ("--format", {"choices": ("json", "csv"), "default": "json"}),
        ("--human", {"action": "store_true", "help": "readable math text instead of machine output"}),
        ("--timestamp", {"action": "store_true", "help": "include a UTC timestamp in metadata"}),
    )),
    "eval": ("cmd_eval", "evaluate one quantity at exact rational arguments", (
        ("expr", {"choices": ("powersum", "eulerian-at")}),
        ("--m", {"type": int}),
        ("--n", {"type": int, "required": True}),
        ("--x", {"type": _rational_arg()}),
        ("--lambda", {"dest": "lam", "type": _rational_arg(), "required": True}),
        ("--route", {}),
        ("--human", {"action": "store_true"}),
        ("--timestamp", {"action": "store_true"}),
    )),
    "verify": ("cmd_verify", "run the identity suite", (
        ("--suite", {"choices": ("all",)}),
        ("--check", {"action": "append", "help": "check id (repeatable)"}),
        ("--n-max", {"type": int}),
        ("--m-max", {"type": int}),
        ("--k-max", {"type": int}),
        ("--format", {"choices": ("text", "json"), "default": "text"}),
        ("--timestamp", {"action": "store_true"}),
    )),
}


def build_parser():
    """The full ``argparse.ArgumentParser``. argparse runs only for usage,
    help and errors, so it is imported here, on that first use."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """ArgumentParser that takes "--lambda -2/3" as a value, like "--n -3"."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_VALUE_RE

        def _print_message(self, message, file=None):
            # argparse drops an OSError of the write; one to stdout (the help or
            # usage) is run()'s to report, so a help that cannot be written exits 2
            if file is not sys.stdout:
                return super()._print_message(message, file)
            file.write(message)

    def argument_type(convert):
        """``convert`` with a UsageError raised as argparse's type error, and
        with its name, which argparse reports as in "invalid int value"."""

        def checked(token):
            try:
                return convert(token)
            except UsageError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        checked.__name__ = convert.__name__
        return checked

    parser = _Parser(
        prog="degenpoly",
        description="Exact tables, evaluation and identity checks for the "
        "degenerate Eulerian, Bernoulli and Stirling families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, arguments) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_line)
        for flag, keywords in arguments:
            if "type" in keywords:
                keywords = {**keywords, "type": argument_type(keywords["type"])}
            p_command.add_argument(flag, **keywords)
        p_command.set_defaults(func=globals()[func])
    return parser


@cache
def _parser():
    """The parser, built on first use and shared by the later commands in the
    process; parse_args leaves it unchanged and returns a new namespace."""
    return build_parser()


@cache
def _command_forms(command: str):
    """``command``'s declared arguments as _read_plain reads them: option
    string -> (dest, type, choices), type None for a ``store_true`` flag; the
    positional likewise; each dest's default (a string one through its type,
    as argparse converts it); the dests that must be given. Any other option
    (``append``) is left out, so argparse reads it when given."""
    options, positional, defaults, required = {}, None, {}, set()
    for flag, keywords in _COMMANDS[command][2]:
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        action = keywords.get("action", "store")
        convert = keywords.get("type", str)
        default = keywords.get("default", False if action == "store_true" else None)
        defaults[dest] = convert(default) if isinstance(default, str) else default
        form = (dest, None if action == "store_true" else convert, keywords.get("choices"))
        if flag[0] != "-" or keywords.get("required"):
            required.add(dest)
        if flag[0] != "-":
            positional = form
        elif action in ("store", "store_true"):
            options[flag] = form
    return options, positional, defaults, frozenset(required)


class _Namespace(SimpleNamespace):
    """A command's arguments as _read_plain reads them: equal to the
    ``argparse.Namespace`` that holds the same attributes."""

    def __eq__(self, other):
        return vars(self) == vars(other) if hasattr(other, "__dict__") else NotImplemented


def _read_plain(command: str, args: Sequence[str]) -> _Namespace | None:
    """The namespace ``parse_args`` makes of ``args`` under ``command``,
    read in one pass; None where ``args`` hold anything but exact option
    strings with their values, ``--opt=value``, flags and the one
    positional, or where a value fails its type or choices or a required
    argument is missing. A separate value that starts with "-" must look
    like a negative number; a value after "=" is taken as it stands."""
    options, positional, defaults, required = _command_forms(command)
    values = {**defaults, "command": command, "func": globals()[_COMMANDS[command][0]]}
    seen = set()
    tokens = iter(args)
    for token in tokens:
        if token[:1] != "-" or _NEGATIVE_VALUE_RE.match(token):
            if positional is None or positional[0] in seen:
                return None
            (dest, convert, choices), value = positional, token
        else:
            option, explicit, value = token.partition("=")
            if option not in options:
                return None
            dest, convert, choices = options[option]
            if convert is None:  # a store_true flag, which takes no value
                if explicit:
                    return None
                values[dest] = True
                continue
            if not explicit:
                value = next(tokens, None)
                if value is None or value[:1] == "-" and not _NEGATIVE_VALUE_RE.match(value):
                    return None
        try:
            value = convert(value)
        except (UsageError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    return _Namespace(**values) if required <= seen else None


def _parse_args(argv: list[str]):
    """The namespace the full parser makes of ``argv``: read in one pass by
    _read_plain when ``argv`` is a known command in plain forms. Anything
    else (no command or an unknown one, -h, --, ``--check``, an abbreviated
    or unknown option, a flag given a value, a missing value or required
    option, a value that fails its type or choices) goes through the full
    parser, built on that first use, so every usage message, help text and
    exit status stays argparse's own."""
    if argv and argv[0] in _COMMANDS:
        args = _read_plain(argv[0], argv[1:])
        if args is not None:
            return args
    return _parser().parse_args(argv)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # The builder memos live as long as the process, so a command reuses the
    # rows, taps and products that earlier commands built.
    try:
        return args.func(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The console entry: ``main`` on the process's argv and stdout. Output
    that cannot be written (a closed pipe, a full disk, an encoding such as
    ASCII that has no λ) exits 2 with one error line, not a traceback."""
    try:
        try:
            status = main()
        finally:  # a short report, or the help argparse exits after, fails only here
            sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        # Python flushes stdout again at exit; from the Note on SIGPIPE in
        # the signal module's docs: point it at devnull so that cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: could not write the output: {reason}", file=sys.stderr)
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    run()
