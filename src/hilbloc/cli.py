"""Command-line front end.

Every subcommand prints deterministic JSON (schema 1) with exact
rationals serialized as "p/q" strings, or CSV with --csv.  Exit codes:
0 success, 2 invalid arguments, 3 internal inconsistency detected;
`verify` exits 1 when one of its checks fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .cobordism import hilb_series
from .genera import (
    betti_hilb_model,
    chi_y_hilb,
    genus_series,
    phi_nk_genus,
    signature_genus,
    todd_genus,
    total_chern_genus,
)
from .localization import ConsistencyError, chern_numbers_hilb, chi_via_RR, hilb_cobordism_series
from .partitions import partition_key
from .rings import Poly, format_fraction
from .series import coeff_to_json, fg_identities
from .toric import build_model, line_bundle, o_bundle, p1xp1, p2
from .universal import FitError, fit_AB, universal_chern_poly

LONG_N_MAX = 7
SHORT_N_MAX = 5
TWIST_ORDER_MAX = 10  # twist-series --order 10 --long: about 0.5 s of CPU time, also with a 40-digit --r
SERIES_ORDER_MAX = 60  # series-id: about 0.23 s of CPU time at --order 60 --a 100 with a 40-digit p/q
SERIES_A_MAX = 100
DIGITS_MAX = 40  # digits of --r, of each --k/--bundle entry, of N and k in --genus phi:N:k, and of p and q in series-id --y
BLOWUP_DEPTH_MAX = 3  # nested blowup: levels in --surface
SURFACE_HELP = (
    f"p2, p1xp1 or blowup:<surface>:<chart>, at most {BLOWUP_DEPTH_MAX} blowup: levels "
    "(--n 7 --long on three blowups of p1xp1: chern about 1.4 s, chi about 0.2 s, genus about 2.0 s)"
)


def _poly_json(poly) -> dict:
    """Serialize a Poly in c1sq/c2 (or any variables) as {monomial: "p/q"}."""
    out = {}
    for mono, c in sorted(Poly.coerce(poly).terms.items()):
        key = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono) or "1"
        out[key] = format_fraction(c)
    return out


def _emit(payload: dict, csv_rows, csv_header, use_csv):
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
    return build_model(spec)


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
    vec = chern_numbers_hilb(model, args.n, args.ladder)
    rows = [(partition_key(la), format_fraction(v)) for la, v in vec.numbers]
    _emit(
        {
            "schema": 1,
            "command": "chern",
            "surface": args.surface,
            "n": args.n,
            "dim": vec.dim,
            "numbers": dict(rows),
        },
        csv_rows=rows,
        csv_header=("partition", "value"),
        use_csv=args.csv,
    )


def cmd_universal(args, parser):
    _check_n(args.n, args.long, parser)
    tab = universal_chern_poly(args.n)
    table = {partition_key(la): _poly_json(poly) for la, poly in tab.numbers}
    rows = [(la, mono, c) for la, poly in table.items() for mono, c in poly.items()] if args.csv else None
    _emit(
        {"schema": 1, "command": "universal", "n": args.n, "polynomials": table},
        csv_rows=rows,
        csv_header=("partition", "monomial", "coefficient"),
        use_csv=args.csv,
    )


def cmd_betti(args, parser):
    if args.model not in _MODELS:
        parser.error("model must be P2 or P1xP1")
    _check_n(args.n, args.long, parser)
    b = betti_hilb_model(_MODELS[args.model](), args.n)
    rows = [(2 * p, v) for p, v in enumerate(b)]
    _emit(
        {
            "schema": 1,
            "command": "betti",
            "model": args.model,
            "n": args.n,
            "betti": {str(2 * p): v for p, v in enumerate(b)},
        },
        csv_rows=rows,
        csv_header=("degree", "b"),
        use_csv=args.csv,
    )


def cmd_chi(args, parser):
    model = _surface(args.surface, parser)
    _check_n(args.n, args.long, parser)
    r = _parse_int(args.r, "--r", parser)
    L = _bundle_from_args(model, args, parser)
    val = chi_via_RR(model, args.n, L, r, ladder=args.ladder)
    _emit(
        {
            "schema": 1,
            "command": "chi",
            "surface": args.surface,
            "n": args.n,
            "bundle": list(L.coeffs),
            "r": r,
            "chi": format_fraction(val),
        },
        csv_rows=[(args.n, r, format_fraction(val))],
        csv_header=("n", "r", "chi"),
        use_csv=args.csv,
    )


def cmd_twist_series(args, parser):
    if args.order < 2:
        parser.error("order must be >= 2")
    if args.order > TWIST_ORDER_MAX:
        parser.error(f"order > {TWIST_ORDER_MAX} is not supported")
    if args.order > LONG_N_MAX and not args.long:
        parser.error(f"order > {LONG_N_MAX} requires --long")
    r = _parse_int(args.r, "--r", parser)
    pair = fit_AB(r, args.order)
    payload = {
        "schema": 1,
        "command": "twist-series",
        "r": r,
        "order": args.order,
        "logA": [format_fraction(c) for c in pair.log_a.coeffs],
        "B": [format_fraction(c) for c in pair.b.coeffs],
    }
    if args.order > 5:
        # published tables stop at z^5; higher orders are derived only
        payload["unverified_orders"] = list(range(6, args.order + 1))
    rows = [
        (m, format_fraction(pair.log_a[m]), format_fraction(pair.b[m]))
        for m in range(args.order + 1)
    ]
    _emit(payload, csv_rows=rows, csv_header=("order", "logA", "B"), use_csv=args.csv)


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
        values = [{"n": m, "value": coeff_to_json(series[m])} for m in range(args.n + 1)]
        rows = [(m, json.dumps(coeff_to_json(series[m]))) for m in range(args.n + 1)]
    else:
        genus = _genus_by_name(args.genus, 2 * args.n, parser)
        if args.surface is not None:
            h = hilb_cobordism_series(_surface(args.surface, parser), args.n)
        elif args.k3:
            h = hilb_series(0, 24, args.n)
        else:
            parser.error("provide --surface, --k3, or --model for chi_y")
        values = [{"n": m, "value": format_fraction(v)} for m, v in enumerate(genus_series(genus, h).coeffs)]
        rows = [(v["n"], v["value"]) for v in values]
    _emit(
        {"schema": 1, "command": "genus", "genus": args.genus, "values": values},
        csv_rows=rows,
        csv_header=("n", "value"),
        use_csv=args.csv,
    )


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
    _emit(
        {
            "schema": 1,
            "command": "series-id",
            "a": a,
            "y": format_fraction(y),
            "order": order,
            "holds": True,
            "checks": {k: bool(ok) for k, ok in checks.items()},
        },
        csv_rows=[(k, ok) for k, ok in checks.items()],
        csv_header=("identity", "holds"),
        use_csv=args.csv,
    )


def cmd_verify(args, parser):
    from .verify import run_all

    results = run_all(args.profile, emit=print)
    if not all(r.passed for r in results):
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hilbloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, ladder=False):
        sp.add_argument("--n", type=integer, required=True)
        sp.add_argument("--long", action="store_true", help="enable n = 6, 7")
        sp.add_argument("--csv", action="store_true")
        if ladder:
            sp.add_argument("--ladder", choices=("xi", "eta"), default="xi", help="1-PS ladder of the residue sum")

    sp = sub.add_parser("chern", help="Chern numbers of Hilb^n over a toric model")
    sp.add_argument("--surface", required=True, help=SURFACE_HELP)
    common(sp, ladder=True)
    sp.set_defaults(fn=cmd_chern)

    sp = sub.add_parser("universal", help="universal polynomials P_la(c1^2, c2)")
    common(sp)
    sp.set_defaults(fn=cmd_universal)

    sp = sub.add_parser("betti", help="Betti numbers of Hilb^n for the two models")
    sp.add_argument("--model", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_betti)

    sp = sub.add_parser("chi", help="chi(L_n (x) E^r) by localization")
    sp.add_argument("--surface", required=True, help=SURFACE_HELP)
    bundle = sp.add_mutually_exclusive_group()
    bundle.add_argument(
        "--k", type=str, default=None, help=f"degree(s) of O(k) / O(k1,k2), at most {DIGITS_MAX} digits each"
    )
    bundle.add_argument(
        "--bundle", type=str, default=None, help=f"comma-separated ray coefficients, at most {DIGITS_MAX} digits each"
    )
    sp.add_argument("--r", default="0", help=f"at most {DIGITS_MAX} digits")
    common(sp, ladder=True)
    sp.set_defaults(fn=cmd_chi)

    sp = sub.add_parser("twist-series", help="fitted log A_r and B_r")
    sp.add_argument("--r", required=True, help=f"at most {DIGITS_MAX} digits")
    sp.add_argument(
        "--order", type=integer, required=True,
        help=f"2..{TWIST_ORDER_MAX}; above {LONG_N_MAX} needs --long (order {TWIST_ORDER_MAX}: about 0.5 s)",
    )
    sp.add_argument("--long", action="store_true", help=f"enable order {LONG_N_MAX + 1}..{TWIST_ORDER_MAX}")
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(fn=cmd_twist_series)

    sp = sub.add_parser("genus", help="genus values of Hilb^n terms")
    sp.add_argument(
        "--genus", required=True,
        help=f"todd | euler | signature | phi:N:k | chi_y; phi:N:k needs 0 <= k <= N and N >= 1, "
        f"N and k of at most {DIGITS_MAX} digits each, without a sign or a leading zero",
    )
    where = sp.add_mutually_exclusive_group()
    where.add_argument("--surface", default=None, help=SURFACE_HELP)
    where.add_argument("--model", default=None, help="P2 | P1xP1 (for chi_y)")
    where.add_argument("--k3", action="store_true", help="use the K3 cobordism class")
    common(sp)
    sp.set_defaults(fn=cmd_genus)

    sp = sub.add_parser("series-id", help="verify the f/g power-series identities")
    sp.add_argument("--a", type=integer, required=True, help=f"0..{SERIES_A_MAX}")
    sp.add_argument("--y", default="1", help=f"p or p/q, at most {DIGITS_MAX} digits each")
    sp.add_argument("--order", type=integer, default=30, help=f"1..{SERIES_ORDER_MAX}")
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(fn=cmd_series_id)

    sp = sub.add_parser("verify", help="run the acceptance suite (exit 1 if a check fails)")
    sp.add_argument("--profile", choices=("quick", "standard", "long"), default="quick")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args, parser)
    except (ConsistencyError, FitError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
