"""The acceptance suite: ten numbered checks with tiered profiles.

A check body states each gate as `_require(ok, detail)` and returns its
PASS detail; `_check(number, name)` turns it into `p -> CheckResult`.
`run_all` executes the checks in order.  All comparisons are literal
equality of exact rationals.  The same functions back `hilbloc verify`
and the test suite.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .cobordism import from_beta, hilb_series
from .genera import (
    chi_y_hilb,
    genus_eval,
    genus_series,
    phi_nk_closed_form,
    phi_nk_genus,
)
from .localization import (
    Integrand,
    TautClass,
    chern_numbers_hilb,
    chern_residue_sums,
    chi_series,
    chi_via_RR,
    enumerate_fixed_points,
    hilb_cobordism_series,
    integrate,
)
from .partitions import enumerate_partitions
from .records import Record
from .rings import Poly, binomial
from .series import fg_identities, todd_series
from .toric import blowup, o_bundle, p2, p1xp1
from .universal import chi_from_genfun, chi_taut, cohomology_genfun, fit_AB, universal_chern_poly


class CheckResult(Record):
    """The outcome of one check; unhashable, since `warnings` is a list."""

    def __init__(self, number: int, name: str, passed: bool, detail: str = "", warnings: list | None = None):
        self._freeze(number, name, passed, detail, [] if warnings is None else warnings)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.number:2d} {self.name}: {self.detail}"
        for w in self.warnings:
            out += f"\n      WARN {w}"
        return out


class Profile(Record):
    """The sizes a profile gives the checks: small_n is the largest n of
    checks 2, 4, 8 and 10, order the series order of checks 1 and 6, thm1_n
    and euler_n the largest n of checks 3 and 9, and univ_warn_n the n of
    check 10's warning pass (0 disables it)."""

    def __init__(self, name: str, small_n: int, order: int, thm1_n: int, euler_n: int, univ_warn_n: int):
        self._freeze(name, small_n, order, thm1_n, euler_n, univ_warn_n)


PROFILES = {
    "quick": Profile("quick", 3, 3, 3, 3, 0),
    "standard": Profile("standard", 4, 5, 4, 5, 5),
    "long": Profile("long", 4, 5, 8, 7, 5),
}


# -- ground truth frozen from the published order <= 5 tables -----------------------


def _evaluate_reference(table, r, order: int) -> list:
    """The coefficients z^0..z^min(order, 5) of a frozen table at r: entry m
    lists the terms (c, e) of the polynomial sum c r^e."""
    r = Fraction(r)
    return [sum((c * r**e for c, e in table[m]), Fraction(0)) for m in range(min(order, 5) + 1)]


def log_a_reference(r, order: int) -> list:
    table = [
        [],
        [],
        [(Fraction(1, 6), 1), (Fraction(-1, 6), 3)],
        [(Fraction(1, 5), 1), (Fraction(-5, 8), 3), (Fraction(17, 40), 5)],
        [
            (Fraction(29, 140), 1),
            (Fraction(-209, 180), 3),
            (Fraction(88, 45), 5),
            (Fraction(-631, 630), 7),
        ],
        [
            (Fraction(13, 63), 1),
            (Fraction(-31259, 18144), 3),
            (Fraction(16979, 3456), 5),
            (Fraction(-69619, 12096), 7),
            (Fraction(171215, 72576), 9),
        ],
    ]
    return _evaluate_reference(table, r, order)


def b_reference(r, order: int) -> list:
    table = [
        [(Fraction(1), 0)],
        [],
        [(Fraction(1, 24), 2), (Fraction(-1, 24), 4)],
        [(Fraction(29, 360), 2), (Fraction(-31, 144), 4), (Fraction(97, 720), 6)],
        [
            (Fraction(139, 1260), 2),
            (Fraction(-3053, 5760), 4),
            (Fraction(2273, 2880), 6),
            (Fraction(-14899, 40320), 8),
        ],
        [
            (Fraction(187, 1400), 2),
            (Fraction(-6257, 6480), 4),
            (Fraction(421267, 172800), 6),
            (Fraction(-311701, 120960), 8),
            (Fraction(503377, 518400), 10),
        ],
    ]
    return _evaluate_reference(table, r, order)


K3_CHERN = {
    2: {(4,): 324, (2, 2): 828},
    3: {(6,): 3200, (4, 2): 14720, (2, 2, 2): 36800},
    4: {
        (8,): 25650,
        (6, 2): 182340,
        (4, 4): 332730,
        (4, 2, 2): 813240,
        (2, 2, 2, 2): 1992240,
    },
}


# -- the ten checks ------------------------------------------------------------------


class _Failed(Exception):
    """A gate of a check failed; the message is the FAIL detail."""


def _require(ok, detail: str) -> None:
    if not ok:
        raise _Failed(detail)


def _check(number: int, name: str):
    """Turn a check body into `p -> CheckResult`: FAIL with the detail of the
    first `_require` that fails, PASS with the detail the body returns, or
    with the (detail, warnings) pair it returns."""

    def wrap(body):
        @functools.wraps(body)
        def check(p: Profile) -> CheckResult:
            try:
                out = body(p)
            except _Failed as exc:
                return CheckResult(number, name, False, str(exc))
            detail, warnings = out if isinstance(out, tuple) else (out, None)
            return CheckResult(number, name, True, detail, warnings)

        return check

    return wrap


@_check(1, "twist series")
def check_twist_series(p: Profile) -> str:
    pairs = {}
    for r in range(-3, 4):
        pair = fit_AB(r, p.order)
        log_a, b = log_a_reference(r, p.order), b_reference(r, p.order)
        for m in range(p.order + 1):
            _require(pair.log_a[m] == log_a[m], f"log A_{r} wrong at z^{m}")
            _require(pair.b[m] == b[m], f"B_{r} wrong at z^{m}")
        pairs[r] = pair
    # symmetry relations on the fitted values
    for r in (2, 3):
        _require(all(c == 0 for c in (pairs[r].log_a + pairs[-r].log_a).coeffs), f"A_{-r} != 1/A_{r}")
        _require(pairs[r].b == pairs[-r].b, f"B_{-r} != B_{r}")
    for r in (-1, 0, 1):
        ones = all(c == 0 for c in pairs[r].log_a.coeffs) and all(
            c == (1 if m == 0 else 0) for m, c in enumerate(pairs[r].b.coeffs)
        )
        _require(ones, f"A_{r} or B_{r} != 1")
    return f"log A_r, B_r match printed tables to z^{p.order}, r in -3..3"


@_check(2, "K3 Chern numbers")
def check_k3_chern(p: Profile) -> str:
    k3 = hilb_series(0, 24, p.small_n)
    checked = 0
    for n, table in K3_CHERN.items():
        if n > p.small_n:
            continue
        term = from_beta(2 * n, k3[n]).as_dict()
        for la, v in table.items():
            _require(term[la] == v, f"n={n}, {la}: {term[la]} != {v}")
            checked += 1
    return f"{checked} published values exact, n <= {p.small_n}"


@_check(3, "Theorem 1 (blowup vs P1xP1)")
def check_theorem1(p: Profile) -> str:
    bl, q = blowup(p2(), 0), p1xp1()
    for n in range(p.thm1_n + 1):
        _require(chern_numbers_hilb(bl, n).as_dict() == chern_numbers_hilb(q, n).as_dict(), f"differ at n={n}")
    return f"all Chern numbers equal, n <= {p.thm1_n}"


@_check(4, "chi(L_n x E^r) lemma")
def check_chi_ln(p: Profile) -> str:
    m = p2()
    bundles = [o_bundle(m, k) for k in range(0, 6)]
    rows0 = chi_series(m, p.small_n, bundles, 0)
    rows1 = chi_series(m, p.small_n, bundles, 1)
    for n in range(1, p.small_n + 1):
        for k, (row0, row1) in enumerate(zip(rows0, rows1)):
            chi = (k + 1) * (k + 2) // 2
            _require(row0[n] == binomial(chi + n - 1, n) and row1[n] == binomial(chi, n), f"n={n}, k={k}")
    return f"binomial values exact, n <= {p.small_n}, k <= 5, r in 0,1"


@_check(5, "chi_-y generating series")
def check_chi_y(p: Profile) -> str:
    order = 6
    for model in (p2(), p1xp1()):
        a, b, c = (chi_y_hilb(model, order, route) for route in ("product", "exp", "betti"))
        _require(a == b and b == c, f"routes differ for {model.name}")
    want = sum(c * Poly.var("y", e) for e, c in enumerate((1, 2, 3, 2, 1)))
    _require(chi_y_hilb(p2(), 2, "product")[2] == want, "P2 z^2 coefficient wrong")
    return f"three routes identical to z^{order}, both models"


@_check(6, "phi_N,k generating series")
def check_phi_nk(p: Profile) -> str:
    classes = {
        "P2": hilb_cobordism_series(p2(), p.order),
        "P1xP1": hilb_cobordism_series(p1xp1(), p.order),
        "K3": hilb_series(0, 24, p.order),
    }
    for nk in ((1, 0), (2, 1), (3, 1)):
        genus = phi_nk_genus(nk[0], nk[1], 2 * p.order)
        for name, h in classes.items():
            series = genus_series(genus, h)
            _require(series == phi_nk_closed_form(genus_eval(genus, h[1]), p.order), f"{nk} on {name}")
    return f"(1-t)^-phi(S) exact to t^{p.order}, 3 genera x 3 classes"


@_check(7, "power-series lemma")
def check_powseries(p: Profile) -> str:
    ys = (Fraction(1), Fraction(2), Fraction(-1), Fraction(5, 2))
    for a in range(0, 9):
        for y, holds in zip(ys, fg_identities(a, ys, 30)):
            _require(holds["f0_closed_form"], f"f_0,{a} closed form")
            _require(holds["g_is_g1_pow_y"], f"g_{y},{a} != g_1^y")
            _require(holds["f_is_g1_pow_y_times_f0"], f"f_{y},{a} != g_1^y f_0")
            _require(holds["g_prime"], f"g'_{y},{a}")
    return "three identities + closed form exact to z^30, a in 0..8"


@_check(8, "tautological chi")
def check_taut_chi(p: Profile) -> str:
    m = p2()
    for n in range(1, p.small_n + 1):
        for k in range(0, 4):
            x = TautClass(((o_bundle(m, k), 1),))
            val = integrate(m, n, Integrand.chern_character(x, n, todd_series("x", 2 * n)))
            _require(val == (k + 1) * (k + 2) // 2, f"n={n}, k={k}")
    rng = random.Random(20260823)
    for _ in range(20):
        hf = tuple(rng.randint(0, 9) for _ in range(3))
        ho = (rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3))
        gf = cohomology_genfun(hf, ho, 6)
        chif = hf[0] - hf[1] + hf[2]
        chio = ho[0] - ho[1] + ho[2]
        for n in range(1, 7):
            _require(chi_from_genfun(gf, n) == chi_taut(chif, chio, n), f"genfun u=-1 at {hf},{ho},n={n}")
    return f"chi(O(k)^[n]) = chi(O(k)) n <= {p.small_n}; 20 random genfun inputs"


@_check(9, "engine self-consistency")
def check_engine(p: Profile) -> str:
    models = (p2(), p1xp1(), blowup(p2(), 0))
    # ladder independence on Chern numbers and a chi sample; on the three models the
    # swap (1, B) <-> (B, 1) maps one ladder's weights to the other's, on the 5-ray fan not
    for model in (*models, blowup(blowup(p2(), 0), 1)):
        for n in range(min(3, p.euler_n) + 1):
            same = chern_numbers_hilb(model, n) == chern_numbers_hilb(model, n, "eta")  # xi: check 3's cache key
            _require(same, f"ladders differ: {model.name}, n={n}")
    m = p2()
    for n in (1, 2, 3):
        same = chi_via_RR(m, n, o_bundle(m, 2), 1, ladder="xi") == chi_via_RR(m, n, o_bundle(m, 2), 1, ladder="eta")
        _require(same, f"chi ladders differ at n={n}")
    # dimension axiom: the residue sums of Chern monomials of degree 2n - 1
    for n in (1, 2, 3):
        lams = enumerate_partitions(2 * n - 1)
        for la, value in zip(lams, chern_residue_sums(m, n, lams)):
            _require(value == 0, f"dim axiom fails: n={n}, {la}")
    # Euler numbers
    for model in models:
        for n in range(p.euler_n + 1):
            [e] = chern_residue_sums(model, n, ((2 * n,) if n else (),))
            _require(e == len(enumerate_fixed_points(model, n)), f"Euler != #fp: {model.name}, n={n}")
    return f"ladders, dimension axiom, Euler = #fixed points (n <= {p.euler_n})"


@_check(10, "universal polynomial nonnegativity")
def check_universal_nonneg(p: Profile) -> tuple:
    for n in range(1, p.small_n + 1):
        for la, poly in universal_chern_poly(n).numbers:
            _require(all(c >= 0 for c in Poly.coerce(poly).terms.values()), f"negative coefficient in P_{la}, n={n}")
    warnings = [
        f"P_{la} has a negative coefficient at n={p.univ_warn_n}"
        for la, poly in (universal_chern_poly(p.univ_warn_n).numbers if p.univ_warn_n else ())
        if any(c < 0 for c in Poly.coerce(poly).terms.values())
    ]
    return f"all P_la coefficients >= 0 for n <= {p.small_n}", warnings


CHECKS = (
    check_twist_series,
    check_k3_chern,
    check_theorem1,
    check_chi_ln,
    check_chi_y,
    check_phi_nk,
    check_powseries,
    check_taut_chi,
    check_engine,
    check_universal_nonneg,
)


def run_all(profile: str = "quick", emit=None) -> list:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    p = PROFILES[profile]
    results = []
    for fn in CHECKS:
        res = fn(p)
        results.append(res)
        if emit is not None:
            emit(res.line())
    return results
