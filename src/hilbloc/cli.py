"""Command-line front end.

Every subcommand prints deterministic JSON (schema 1) with exact
rationals serialized as "p/q" strings, or CSV with --csv.  Exit codes:
0 success, 2 invalid arguments, 3 internal inconsistency detected;
`verify` exits 1 when one of its checks fails.

Every command but `verify` returns its fields, its CSV header and its CSV
rows; `main` alone forms the envelope {"schema": 1, "command": <name>,
**fields} and prints it, or the rows, through `_emit`.  Both keep their
names: the benchmark tracer (`perfbench/tracer.py`) wraps them by name.
Only the first two paragraphs above are the `--help` description.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .genera import (
    betti_hilb_model,
    chi_y_hilb,
    genus_hilb_series,
    phi_nk_genus,
    signature_genus,
    todd_genus,
    total_chern_genus,
)
from .localization import ConsistencyError, chern_numbers_hilb, chi_via_RR
from .partitions import partition_key
from .rings import Poly, format_fraction
from .series import fg_identities
from .toric import build_model, line_bundle, o_bundle, p1xp1, p2
from .universal import FitError, fit_AB, universal_chern_poly

LONG_N_MAX = 7
SHORT_N_MAX = 5
TWIST_ORDER_MAX = 10  # twist-series --order 10 --long: about 0.25 s of CPU time, also with a 40-digit --r
SERIES_ORDER_MAX = 60  # series-id: about 0.23 s of CPU time at --order 60 --a 100 with a 40-digit p/q
SERIES_A_MAX = 100
DIGITS_MAX = 40  # digits of --r, of each --k/--bundle entry, of N and k in --genus phi:N:k, and of p and q in series-id --y
BLOWUP_DEPTH_MAX = 3  # nested blowup: levels in --surface
SURFACE_HELP = (
    f"p2, p1xp1 or blowup:<surface>:<chart>, at most {BLOWUP_DEPTH_MAX} blowup: levels "
    "(--n 7 --long on three blowups of p1xp1: chern about 0.85 s, chi about 0.12 s, genus about 0.09 s)"
)


def _poly_json(poly) -> dict:
    """Serialize a Poly in c1sq/c2 (or any variables) as {monomial: "p/q"}."""
    out = {}
    for mono, c in sorted(Poly.coerce(poly).terms.items()):
        key = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono) or "1"
        out[key] = format_fraction(c)
    return out


def _coeff_json(c):
    """Serialize a series coefficient: a "p/q" string, or {exponent: "p/q"} for a
    non-constant Poly in one variable, in the order of its terms."""
    if isinstance(c, Poly):
        if c.is_constant():
            return format_fraction(c.constant_term())
        name = c.variables()[0]
        return {str(e): format_fraction(v) for e, v in c.coefficient_map(name).items()}
    return format_fraction(c)


def _emit(payload: dict, csv_header, csv_rows, use_csv):
    if use_csv:
        import csv  # only --csv writes CSV, and no default output does

        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(csv_header)
        out.writerows(csv_rows)
    else:
        print(json.dumps(payload, indent=2, sort_keys=False))


def _check_n(n: int, long_mode: bool, parser: argparse.ArgumentParser):
    if n < 0:
        parser.error("n must be non-negative")
    if n > LONG_N_MAX:
        parser.error(f"n > {LONG_N_MAX} is not supported")
    if n > SHORT_N_MAX and not long_mode:
        parser.error(f"n > {SHORT_N_MAX} requires --long")


# number of --k degrees each named model takes: O(k) on P2, O(k1,k2) on P1xP1
_K_DEGREES = {"p2": 1, "p1xp1": 2}

# the surfaces that `betti --model` and `genus --genus chi_y --model` take
_MODELS = {"P2": p2, "P1xP1": p1xp1}


def _surface(spec: str, parser):
    # counted before parsing: build_model recurses once per level
    if spec.count("blowup:") > BLOWUP_DEPTH_MAX:
        parser.error(f"--surface nests at most {BLOWUP_DEPTH_MAX} blowup: levels")
    try:
        model = build_model(spec)
    except ValueError as exc:
        parser.error(f"--surface {spec}: {exc}")
    if model.name != spec:  # build_model reads a chart index "00" as 0
        parser.error(f"--surface {spec} must be spelled {model.name}")
    return model


# int() and Fraction() also take blanks, "1_0" and non-ASCII digits; the CLI does not
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?([0-9]+(/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def integer(text: str) -> int:
    """The argparse type of --n, --order and --a: an optional sign and ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _parse_int(text: str, flag: str, parser) -> int:
    if not _INTEGER.fullmatch(text):
        parser.error(f"{flag} must be an integer, got {text!r}")
    if len(text.lstrip("+-")) > DIGITS_MAX:  # before int(), which refuses strings past 4300 digits
        parser.error(f"{flag} must have at most {DIGITS_MAX} digits")
    return int(text)


def _int_list(text: str, flag: str, parser) -> list:
    return [_parse_int(c, f"each {flag} entry", parser) for c in text.split(",")]


def _bundle_from_args(model, args, parser):
    if args.bundle is not None:
        coeffs = _int_list(args.bundle, "--bundle", parser)
        if len(coeffs) != len(model.rays):
            parser.error(f"--bundle needs one coefficient per ray, {len(model.rays)} on {model.name}")
        return line_bundle(model, coeffs)
    if args.k is not None:
        degrees = _int_list(args.k, "--k", parser)
        if len(degrees) != _K_DEGREES.get(model.name):
            parser.error(
                "--k takes one degree on p2 and a bidegree k1,k2 on p1xp1; "
                "use --bundle with one coefficient per ray for other bundles or surfaces"
            )
        return o_bundle(model, *degrees)
    parser.error("provide --k or --bundle")


def cmd_chern(args, parser):
    model = _surface(args.surface, parser)
    _check_n(args.n, args.long, parser)
    if model.euler_number == 4:
        # every smooth toric surface of four rays has (c1^2, c2) = (8, 4), so by the main theorem its
        # Chern numbers are those of P1xP1, whose central symmetry halves the fixed points summed
        model = p1xp1()
    vec = chern_numbers_hilb(model, args.n, args.ladder)
    rows = [(partition_key(la), format_fraction(v)) for la, v in vec.numbers]
    fields = {"surface": args.surface, "n": args.n, "dim": vec.dim, "numbers": dict(rows)}
    return fields, ("partition", "value"), rows


def cmd_universal(args, parser):
    _check_n(args.n, args.long, parser)
    tab = universal_chern_poly(args.n)
    table = {partition_key(la): _poly_json(poly) for la, poly in tab.numbers}
    rows = ((la, mono, c) for la, poly in table.items() for mono, c in poly.items())
    return {"n": args.n, "polynomials": table}, ("partition", "monomial", "coefficient"), rows


def cmd_betti(args, parser):
    if args.model not in _MODELS:
        parser.error("model must be P2 or P1xP1")
    _check_n(args.n, args.long, parser)
    rows = [(2 * p, v) for p, v in enumerate(betti_hilb_model(_MODELS[args.model](), args.n))]
    return {"model": args.model, "n": args.n, "betti": {str(d): v for d, v in rows}}, ("degree", "b"), rows


def cmd_chi(args, parser):
    model = _surface(args.surface, parser)
    _check_n(args.n, args.long, parser)
    r = _parse_int(args.r, "--r", parser)
    L = _bundle_from_args(model, args, parser)
    chi = format_fraction(chi_via_RR(model, args.n, L, r, ladder=args.ladder))
    fields = {"surface": args.surface, "n": args.n, "bundle": list(L.coeffs), "r": r, "chi": chi}
    return fields, ("n", "r", "chi"), [(args.n, r, chi)]


def cmd_twist_series(args, parser):
    if args.order < 2:
        parser.error("order must be >= 2")
    if args.order > TWIST_ORDER_MAX:
        parser.error(f"order > {TWIST_ORDER_MAX} is not supported")
    if args.order > LONG_N_MAX and not args.long:
        parser.error(f"order > {LONG_N_MAX} requires --long")
    r = _parse_int(args.r, "--r", parser)
    pair = fit_AB(r, args.order)
    log_a = [format_fraction(c) for c in pair.log_a.coeffs]
    b = [format_fraction(c) for c in pair.b.coeffs]
    fields = {"r": r, "order": args.order, "logA": log_a, "B": b}
    if args.order > 5:
        # published tables stop at z^5; higher orders are derived only
        fields["unverified_orders"] = list(range(6, args.order + 1))
    return fields, ("order", "logA", "B"), zip(range(args.order + 1), log_a, b)


def _genus_by_name(name: str, degree: int, parser):
    if name == "todd":
        return todd_genus(degree)
    if name == "euler":
        return total_chern_genus(degree)
    if name == "signature":
        return signature_genus(degree)
    if name.startswith("phi:"):
        try:
            _, nn, kk = name.split(":")
            level = _parse_int(nn, "N in --genus phi:N:k", parser)
            k = _parse_int(kk, "k in --genus phi:N:k", parser)
        except ValueError:
            parser.error("phi genus spec must be phi:N:k")
        if name != f"phi:{level}:{k}":  # after the digit bound: no "+", no leading zero
            parser.error(f"--genus {name} must be spelled phi:{level}:{k}")
        return phi_nk_genus(level, k, degree)
    parser.error(f"unknown genus {name!r} (todd, euler, signature, phi:N:k, chi_y)")


def cmd_genus(args, parser):
    _check_n(args.n, args.long, parser)
    if args.genus == "chi_y":
        if args.model not in _MODELS:
            parser.error("chi_y tables need --model P2 or P1xP1")
        series = chi_y_hilb(_MODELS[args.model](), args.n, "product")
        values = [_coeff_json(c) for c in series.coeffs]
        cells = map(json.dumps, values)  # a CSV cell holds the JSON of a Poly coefficient
    else:
        genus = _genus_by_name(args.genus, 2 * args.n, parser)
        if args.surface is None and not args.k3:
            parser.error(f"--genus {args.genus} needs --surface or --k3; --model is only for --genus chi_y")
        # (c1^2, c2) is (0, 24) on K3, and (12 - e, e) on a smooth toric surface: it is rational, chi(O) = 1
        e = 24 if args.k3 else _surface(args.surface, parser).euler_number
        series = genus_hilb_series(genus, 0 if args.k3 else 12 - e, e, args.n)
        cells = values = [format_fraction(v) for v in series.coeffs]
    fields = {"genus": args.genus, "values": [{"n": m, "value": v} for m, v in enumerate(values)]}
    return fields, ("n", "value"), enumerate(cells)


def cmd_series_id(args, parser):
    """Check the f/g series identities for one (a, y) at the given order."""
    if not 0 <= args.a <= SERIES_A_MAX:
        parser.error(f"--a must be in 0..{SERIES_A_MAX}")
    if not 1 <= args.order <= SERIES_ORDER_MAX:
        parser.error(f"--order must be in 1..{SERIES_ORDER_MAX}")
    try:
        if not _RATIONAL.fullmatch(args.y):  # no exponent: Fraction("1e999999999") builds 10**999999999
            raise ValueError
        y = Fraction(args.y)
    except (ValueError, ZeroDivisionError):
        parser.error(f"--y must be a rational number p, p/q or a decimal without exponent, got {args.y!r}")
    if max(abs(y.numerator), y.denominator) >= 10**DIGITS_MAX:
        parser.error(f"--y numerator and denominator must have at most {DIGITS_MAX} digits")
    a, order = args.a, args.order
    checks = fg_identities(a, (y,), order)[0]
    if not all(checks.values()):
        raise ConsistencyError(f"series identities failed: {checks}")
    fields = {"a": a, "y": format_fraction(y), "order": order, "holds": True}
    fields["checks"] = {k: bool(ok) for k, ok in checks.items()}
    return fields, ("identity", "holds"), checks.items()


def cmd_verify(args, parser):
    from .verify import run_all

    results = run_all(args.profile, emit=print)
    if not all(r.passed for r in results):
        sys.exit(1)


def _common(sp, ladder=False):
    sp.add_argument("--n", type=integer, required=True)
    sp.add_argument("--long", action="store_true", help="enable n = 6, 7")
    sp.add_argument("--csv", action="store_true")
    if ladder:
        sp.add_argument("--ladder", choices=("xi", "eta"), default="xi", help="1-PS ladder of the residue sum")


def _chern_args(sp):
    sp.add_argument("--surface", required=True, help=SURFACE_HELP)
    _common(sp, ladder=True)


def _betti_args(sp):
    sp.add_argument("--model", required=True)
    _common(sp)


def _chi_args(sp):
    sp.add_argument("--surface", required=True, help=SURFACE_HELP)
    bundle = sp.add_mutually_exclusive_group()
    bundle.add_argument(
        "--k", type=str, default=None, help=f"degree(s) of O(k) / O(k1,k2), at most {DIGITS_MAX} digits each"
    )
    bundle.add_argument(
        "--bundle", type=str, default=None, help=f"comma-separated ray coefficients, at most {DIGITS_MAX} digits each"
    )
    sp.add_argument("--r", default="0", help=f"at most {DIGITS_MAX} digits")
    _common(sp, ladder=True)


def _twist_series_args(sp):
    sp.add_argument("--r", required=True, help=f"at most {DIGITS_MAX} digits")
    sp.add_argument(
        "--order", type=integer, required=True,
        help=f"2..{TWIST_ORDER_MAX}; above {LONG_N_MAX} needs --long (order {TWIST_ORDER_MAX}: about 0.25 s)",
    )
    sp.add_argument("--long", action="store_true", help=f"enable order {LONG_N_MAX + 1}..{TWIST_ORDER_MAX}")
    sp.add_argument("--csv", action="store_true")


def _genus_args(sp):
    sp.add_argument(
        "--genus", required=True,
        help=f"todd | euler | signature | phi:N:k | chi_y; phi:N:k needs 0 <= k <= N and N >= 1, "
        f"N and k of at most {DIGITS_MAX} digits each, without a sign or a leading zero",
    )
    where = sp.add_mutually_exclusive_group()
    where.add_argument("--surface", default=None, help=SURFACE_HELP)
    where.add_argument("--model", default=None, help="P2 | P1xP1 (for chi_y)")
    where.add_argument("--k3", action="store_true", help="use the K3 cobordism class")
    _common(sp)


def _series_id_args(sp):
    sp.add_argument("--a", type=integer, required=True, help=f"0..{SERIES_A_MAX}")
    sp.add_argument("--y", default="1", help=f"p or p/q, at most {DIGITS_MAX} digits each; a negative p/q is written --y=-1/2")
    sp.add_argument("--order", type=integer, default=30, help=f"1..{SERIES_ORDER_MAX}")
    sp.add_argument("--csv", action="store_true")


def _verify_args(sp):
    sp.add_argument("--profile", choices=("quick", "standard", "long"), default="quick")


# name -> (help, the function that adds its arguments, the command), in the order of --help
_COMMANDS = {
    "chern": ("Chern numbers of Hilb^n over a toric model", _chern_args, cmd_chern),
    "universal": ("universal polynomials P_la(c1^2, c2)", _common, cmd_universal),
    "betti": ("Betti numbers of Hilb^n for the two models", _betti_args, cmd_betti),
    "chi": ("chi(L_n (x) E^r) by localization", _chi_args, cmd_chi),
    "twist-series": ("fitted log A_r and B_r", _twist_series_args, cmd_twist_series),
    "genus": ("genus values of Hilb^n terms", _genus_args, cmd_genus),
    "series-id": ("verify the f/g power-series identities", _series_id_args, cmd_series_id),
    "verify": ("run the acceptance suite (exit 1 if a check fails)", _verify_args, cmd_verify),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv.  When argv starts with a command, only that
    command's subparser is built, under a metavar that keeps the top-level
    usage of the full parser: every later argument goes to the subparser,
    so only that usage and the subparser's own texts can be printed.
    Otherwise (no command, --help or an unknown name) every subparser is."""
    parser = argparse.ArgumentParser(prog="hilbloc", description="\n\n".join(__doc__.split("\n\n")[:2]))
    if argv[:1] and argv[0] in _COMMANDS:
        names = argv[:1]
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        # no metavar here: argparse names the positional by it in its errors
        names = _COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        text, add_arguments, fn = _COMMANDS[name]
        sp = sub.add_parser(name, help=text)
        add_arguments(sp)
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        output = args.fn(args, parser)
    except (ConsistencyError, FitError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    if output is not None:  # `verify` prints its own report
        fields, csv_header, csv_rows = output
        _emit({"schema": 1, "command": args.command, **fields}, csv_header, csv_rows, args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
