"""The acceptance suite: ten numbered checks with tiered profiles.

Each check returns a CheckResult; `run_all` executes them in order.  All
comparisons are literal equality of exact rationals.  The same functions
back `hilbloc verify` and the test suite.
"""

from __future__ import annotations

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
    """The outcome of one check; mutable (unlike other records) and so unhashable."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, number: int, name: str, passed: bool, detail: str = "", warnings: list | None = None):
        self.number = number
        self.name = name
        self.passed = passed
        self.detail = detail
        self.warnings = [] if warnings is None else warnings

    @property
    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status}  {self.number:2d} {self.name}: {self.detail}"
        for w in self.warnings:
            out += f"\n      WARN {w}"
        return out


class Profile(Record):
    def __init__(
        self,
        name: str,
        twist_order: int,
        k3_n: int,
        thm1_n: int,
        chiv_n: int,
        phi_n: int,
        chifn_n: int,
        euler_n: int,
        univ_n: int,
        univ_warn_n: int,  # 0 disables the n=5 warning pass
    ):
        self._freeze(name, twist_order, k3_n, thm1_n, chiv_n, phi_n, chifn_n, euler_n, univ_n, univ_warn_n)


PROFILES = {
    "quick": Profile("quick", 3, 3, 3, 3, 3, 3, 3, 3, 0),
    "standard": Profile("standard", 5, 4, 4, 4, 5, 4, 5, 4, 5),
    "long": Profile("long", 5, 4, 6, 4, 5, 4, 7, 4, 5),
}


# -- ground truth frozen from the published order <= 5 tables -----------------------


def log_a_reference(r, order: int) -> list:
    r = Fraction(r)
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
    out = []
    for m in range(min(order, 5) + 1):
        out.append(sum((c * r ** e for c, e in table[m]), Fraction(0)))
    return out


def b_reference(r, order: int) -> list:
    r = Fraction(r)
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
    out = []
    for m in range(min(order, 5) + 1):
        out.append(sum((c * r ** e for c, e in table[m]), Fraction(0)))
    return out


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


def check_twist_series(p: Profile) -> CheckResult:
    order = p.twist_order
    pairs = {}
    for r in range(-3, 4):
        pair = fit_AB(r, order)
        for m in range(order + 1):
            if pair.log_a[m] != log_a_reference(r, order)[m]:
                return CheckResult(1, "twist series", False, f"log A_{r} wrong at z^{m}")
            if pair.b[m] != b_reference(r, order)[m]:
                return CheckResult(1, "twist series", False, f"B_{r} wrong at z^{m}")
        pairs[r] = pair
    # symmetry relations on the fitted values
    for r in (2, 3):
        prod = (pairs[r].log_a + pairs[-r].log_a).coeffs
        if any(c != 0 for c in prod):
            return CheckResult(1, "twist series", False, f"A_{-r} != 1/A_{r}")
        if pairs[r].b != pairs[-r].b:
            return CheckResult(1, "twist series", False, f"B_{-r} != B_{r}")
    for r in (-1, 0, 1):
        if any(c != 0 for c in pairs[r].log_a.coeffs) or any(
            c != (1 if m == 0 else 0) for m, c in enumerate(pairs[r].b.coeffs)
        ):
            return CheckResult(1, "twist series", False, f"A_{r} or B_{r} != 1")
    return CheckResult(
        1, "twist series", True, f"log A_r, B_r match printed tables to z^{order}, r in -3..3"
    )


def check_k3_chern(p: Profile) -> CheckResult:
    order = p.k3_n
    k3 = hilb_series(0, 24, order)
    checked = 0
    for n, table in K3_CHERN.items():
        if n > order:
            continue
        term = from_beta(2 * n, k3[n]).as_dict()
        for la, v in table.items():
            if term[la] != v:
                return CheckResult(2, "K3 Chern numbers", False, f"n={n}, {la}: {term[la]} != {v}")
            checked += 1
    return CheckResult(2, "K3 Chern numbers", True, f"{checked} published values exact, n <= {order}")


def check_theorem1(p: Profile) -> CheckResult:
    bl = blowup(p2(), 0)
    q = p1xp1()
    for n in range(p.thm1_n + 1):
        a = chern_numbers_hilb(bl, n).as_dict()
        b = chern_numbers_hilb(q, n).as_dict()
        if a != b:
            return CheckResult(3, "Theorem 1 (blowup vs P1xP1)", False, f"differ at n={n}")
    return CheckResult(
        3, "Theorem 1 (blowup vs P1xP1)", True, f"all Chern numbers equal, n <= {p.thm1_n}"
    )


def check_chi_ln(p: Profile) -> CheckResult:
    m = p2()
    bundles = [o_bundle(m, k) for k in range(0, 6)]
    rows0 = chi_series(m, p.chiv_n, bundles, 0)
    rows1 = chi_series(m, p.chiv_n, bundles, 1)
    for n in range(1, p.chiv_n + 1):
        for k, row0, row1 in zip(range(0, 6), rows0, rows1):
            chi = (k + 1) * (k + 2) // 2
            if row0[n] != binomial(chi + n - 1, n) or row1[n] != binomial(chi, n):
                return CheckResult(4, "chi(L_n x E^r) lemma", False, f"n={n}, k={k}")
    return CheckResult(
        4, "chi(L_n x E^r) lemma", True, f"binomial values exact, n <= {p.chiv_n}, k <= 5, r in 0,1"
    )


def check_chi_y(p: Profile) -> CheckResult:
    order = 6
    for model in (p2(), p1xp1()):
        a = chi_y_hilb(model, order, "product")
        b = chi_y_hilb(model, order, "exp")
        c = chi_y_hilb(model, order, "betti")
        if not (a == b and b == c):
            return CheckResult(5, "chi_-y generating series", False, f"routes differ for {model.name}")
    want = (
        1
        + 2 * Poly.var("y")
        + 3 * Poly.var("y", 2)
        + 2 * Poly.var("y", 3)
        + Poly.var("y", 4)
    )
    if chi_y_hilb(p2(), 2, "product")[2] != want:
        return CheckResult(5, "chi_-y generating series", False, "P2 z^2 coefficient wrong")
    return CheckResult(
        5, "chi_-y generating series", True, f"three routes identical to z^{order}, both models"
    )


def check_phi_nk(p: Profile) -> CheckResult:
    order = p.phi_n
    classes = {
        "P2": hilb_cobordism_series(p2(), order),
        "P1xP1": hilb_cobordism_series(p1xp1(), order),
        "K3": hilb_series(0, 24, order),
    }
    for nk in ((1, 0), (2, 1), (3, 1)):
        genus = phi_nk_genus(nk[0], nk[1], 2 * order)
        for name, h in classes.items():
            series = genus_series(genus, h)
            phi_s = genus_eval(genus, h[1])
            if series != phi_nk_closed_form(phi_s, order):
                return CheckResult(6, "phi_N,k generating series", False, f"{nk} on {name}")
    return CheckResult(
        6, "phi_N,k generating series", True, f"(1-t)^-phi(S) exact to t^{order}, 3 genera x 3 classes"
    )


def check_powseries(p: Profile) -> CheckResult:
    ys = (Fraction(1), Fraction(2), Fraction(-1), Fraction(5, 2))
    for a in range(0, 9):
        for y, holds in zip(ys, fg_identities(a, ys, 30)):
            if not holds["f0_closed_form"]:
                return CheckResult(7, "power-series lemma", False, f"f_0,{a} closed form")
            if not holds["g_is_g1_pow_y"]:
                return CheckResult(7, "power-series lemma", False, f"g_{y},{a} != g_1^y")
            if not holds["f_is_g1_pow_y_times_f0"]:
                return CheckResult(7, "power-series lemma", False, f"f_{y},{a} != g_1^y f_0")
            if not holds["g_prime"]:
                return CheckResult(7, "power-series lemma", False, f"g'_{y},{a}")
    return CheckResult(
        7, "power-series lemma", True, "three identities + closed form exact to z^30, a in 0..8"
    )


def check_taut_chi(p: Profile) -> CheckResult:
    m = p2()
    for n in range(1, p.chifn_n + 1):
        for k in range(0, 4):
            x = TautClass(((o_bundle(m, k), 1),))
            val = integrate(m, n, Integrand.chern_character(x, n, todd_series("x", 2 * n)))
            if val != (k + 1) * (k + 2) // 2:
                return CheckResult(8, "tautological chi", False, f"n={n}, k={k}")
    rng = random.Random(20260823)
    for _ in range(20):
        hf = tuple(rng.randint(0, 9) for _ in range(3))
        ho = (rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3))
        gf = cohomology_genfun(hf, ho, 6)
        chif = hf[0] - hf[1] + hf[2]
        chio = ho[0] - ho[1] + ho[2]
        for n in range(1, 7):
            if chi_from_genfun(gf, n) != chi_taut(chif, chio, n):
                return CheckResult(8, "tautological chi", False, f"genfun u=-1 at {hf},{ho},n={n}")
    return CheckResult(
        8, "tautological chi", True, f"chi(O(k)^[n]) = chi(O(k)) n <= {p.chifn_n}; 20 random genfun inputs"
    )


def check_engine(p: Profile) -> CheckResult:
    models = (p2(), p1xp1(), blowup(p2(), 0))
    # ladder independence on Chern numbers and a chi sample
    for model in models:
        for n in range(min(3, p.euler_n) + 1):
            if chern_numbers_hilb(model, n, "xi") != chern_numbers_hilb(model, n, "eta"):
                return CheckResult(9, "engine self-consistency", False, f"ladders differ: {model.name}, n={n}")
    m = p2()
    for n in (1, 2, 3):
        if chi_via_RR(m, n, o_bundle(m, 2), 1, ladder="xi") != chi_via_RR(
            m, n, o_bundle(m, 2), 1, ladder="eta"
        ):
            return CheckResult(9, "engine self-consistency", False, f"chi ladders differ at n={n}")
    # dimension axiom
    for n in (1, 2, 3):
        for la in enumerate_partitions(2 * n - 1):
            if integrate(m, n, Integrand.chern_monomial(la)) != 0:
                return CheckResult(9, "engine self-consistency", False, f"dim axiom fails: n={n}, {la}")
    # Euler numbers
    for model in models:
        for n in range(p.euler_n + 1):
            e = integrate(model, n, Integrand.chern_monomial((2 * n,) if n else ()))
            if e != len(enumerate_fixed_points(model, n)):
                return CheckResult(9, "engine self-consistency", False, f"Euler != #fp: {model.name}, n={n}")
    return CheckResult(
        9, "engine self-consistency", True, f"ladders, dimension axiom, Euler = #fixed points (n <= {p.euler_n})"
    )


def check_universal_nonneg(p: Profile) -> CheckResult:
    warnings = []
    for n in range(1, p.univ_n + 1):
        for la, poly in universal_chern_poly(n).numbers:
            if any(c < 0 for c in Poly.coerce(poly).terms.values()):
                return CheckResult(
                    10, "universal polynomial nonnegativity", False, f"negative coefficient in P_{la}, n={n}"
                )
    if p.univ_warn_n:
        for la, poly in universal_chern_poly(p.univ_warn_n).numbers:
            if any(c < 0 for c in Poly.coerce(poly).terms.values()):
                warnings.append(f"P_{la} has a negative coefficient at n={p.univ_warn_n}")
    return CheckResult(
        10,
        "universal polynomial nonnegativity",
        True,
        f"all P_la coefficients >= 0 for n <= {p.univ_n}",
        warnings,
    )


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
