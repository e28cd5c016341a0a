"""Extraction of the universal objects: P_la(c1^2, c2), the twist series
A_r/B_r, the five-series decomposition, and the closed Euler-characteristic
formulas for tautological sheaves.

P_la is term n of `cobordism.hilb_series` at symbolic (c1^2, c2).  The
twist-series and five-series fits share `_fit`, in which every row beyond
the solved ones (a third k, a sixth class) is a hard consistency gate.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cobordism import ChernVector, from_beta, hilb_series
from .localization import Integrand, TautClass, chi_series, integrate, surface_number
from .records import Record
from .rings import Poly, binomial, gauss_solve
from .series import TruncSeries, fg_series
from .toric import TLineBundle, line_bundle, o_bundle, p2, p1xp1


class FitError(RuntimeError):
    """An overdetermined fit failed its consistency check."""


# -- universal Chern polynomials ---------------------------------------------------


def universal_chern_poly(n: int) -> ChernVector:
    """The Chern numbers of Hilb^n as polynomials P_la in (c1sq, c2), with
    c_la(Hilb^n(S)) = P_la(c1^2(S), c2(S)): term n of the Hilbert series
    of the symbolic surface class (c1sq, c2), read back by Newton's
    identities.
    """
    return from_beta(2 * n, hilb_series(Poly.var("c1sq"), Poly.var("c2"), n)[n])


# -- twist series A_r, B_r ----------------------------------------------------------


class TwistSeriesPair(Record):
    def __init__(self, r: int, log_a: TruncSeries, b: TruncSeries):
        self._freeze(r, log_a, b)


def _fit(rows, logs, order: int, gates) -> list:
    """The series x_1..x_d, d = len(rows[0]), with row . x = log at orders
    1..order for every (row, log) pair: the first d rows are solved, and each
    further row is a gate that raises FitError(gate.format(m=m)) at an
    order m where it disagrees.
    """
    d = len(rows[0])
    coeffs = [[Fraction(0)] * (order + 1) for _ in range(d)]
    for m in range(1, order + 1):
        sol = gauss_solve(rows[:d], [log[m] for log in logs[:d]])
        for row, log, gate in zip(rows[d:], logs[d:], gates):
            if sum(g * x for g, x in zip(row, sol)) != log[m]:
                raise FitError(gate.format(m=m))
        for i, x in enumerate(sol):
            coeffs[i][m] = x
    return [TruncSeries("z", order, c) for c in coeffs]


def chi_twist_series(ks, r: int, order: int) -> dict:
    """k -> sum_n chi((kH)_n (x) E^r) z^n on P2 for each k in ks, by
    localization: one chart product for every n and k."""
    model = p2()
    rows = chi_series(model, order, [o_bundle(model, k) for k in ks], r)
    return {k: TruncSeries("z", order, row) for k, row in zip(ks, rows)}


def fit_AB(r: int, order: int) -> TwistSeriesPair:
    """Solve for log A_r and log B_r from P2 twist data.

    The z-series of chi((kH)_n (x) E^r) for k = 0, 1 fix the two series,
    and k = 2 is a redundancy check (a failure is a hard error: it
    falsifies the ansatz or the localization engine).
    On P2: chi(O_S) = 1, K^2 = 9, KL = -3k, chi(O(k)) = (k+1)(k+2)/2, and
    log chi = chi(L) log g + log f / 2 + (KL - K^2/2) log A + K^2 log B.
    """
    chi_data = chi_twist_series((0, 1, 2), r, order)
    ks = sorted(chi_data)
    a_param = r * r - 1
    log_g = fg_series("g", 1, a_param, order).log()
    log_f = fg_series("f", 0, a_param, order).log()
    residuals = [
        chi_data[k].log() - log_g * Fraction((k + 1) * (k + 2), 2) - log_f * Fraction(1, 2) for k in ks
    ]
    rows = [(Fraction(-3 * k) - Fraction(9, 2), 9) for k in ks]
    gates = [f"twist-series fit inconsistent at order {{m}} for k={k}" for k in ks[2:]]
    log_a, log_b = _fit(rows, residuals, order, gates)
    return TwistSeriesPair(r, log_a, log_b.exp())


def chi_Ln_Er(inv, n: int, r: int, pair: TwistSeriesPair | None = None,
              surface: str = "general") -> Fraction:
    """chi(L_n (x) E^r) from surface invariants.

    surface 'general' evaluates the universal product
    g_{1,r^2-1}^{chi(L)} f_{0,r^2-1}^{chi(O)/2} A_r^{KL-K^2/2} B_r^{K^2};
    'k3' and 'abelian' use the closed binomial forms (K = 0 there, so the
    A, B factors drop out).
    """
    a_param = r * r - 1
    chi_l = Fraction(inv.chi_L)
    if surface == "k3":
        return binomial(chi_l - a_param * (n - 1), n)
    if surface == "abelian":
        if n < 1:
            raise ValueError("abelian closed form needs n >= 1")
        return binomial(chi_l - a_param * n - 1, n - 1) * chi_l / n
    if surface != "general":
        raise ValueError(f"unknown surface type {surface!r}")
    if pair is None:
        pair = fit_AB(r, n)
    if pair.r != r:
        raise ValueError("twist series pair fitted for a different r")
    order = n
    g = fg_series("g", 1, a_param, order)
    f = fg_series("f", 0, a_param, order)
    total = (
        g.pow(chi_l)
        * f.pow(Fraction(inv.chi_O) / 2)
        * (pair.log_a * (Fraction(inv.KL) - Fraction(inv.K2) / 2)).exp()
        * pair.b.pow(Fraction(inv.K2))
    )
    return total[n]


# -- tautological-sheaf Euler characteristics ----------------------------------------


def chi_taut(chi_f, chi_o, n: int):
    """chi(F^[n]) = chi(F) * C(chi(O_S) + n - 2, n - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return chi_f * binomial(Fraction(chi_o) + n - 2, n - 1)


def cohomology_genfun(h_f, h_o, order_t: int) -> list:
    """Row n - 1 lists h^i(Hilb^n, F^[n]), i = 0 .. len(h_f) + 2n - 3, for n = 1 ..
    order_t + 1: the u^i of [t^{n-1}] (sum_j h^j(F) u^j) (1+ut)^{h1} / ((1-t)^{h0}
    (1-u^2 t)^{h2}), (h0, h1, h2) = h*(O_S), summed over a + b + c = n - 1 as
    C(h1, a) u^a C(h0 + b - 1, b) C(h2 + c - 1, c) u^{2c}."""
    h0, h1, h2 = (int(v) for v in h_o)
    h_f = [int(v) for v in h_f]
    if min(h0, h1, h2, *h_f) < 0:
        raise ValueError("cohomology dimensions must be non-negative")

    def sym(h, k):  # dim S^k of an h-dimensional space; 1 at k = 0 also for h = 0
        return comb(h + k - 1, k) if k else 1

    rows = []
    for m in range(order_t + 1):
        row = [0] * (len(h_f) + 2 * m)
        for a in range(m + 1):
            for c in range(m - a + 1):
                w = comb(h1, a) * sym(h0, m - a - c) * sym(h2, c)
                for j, hj in enumerate(h_f):
                    row[a + 2 * c + j] += w * hj
        rows.append(row)
    return rows


def chi_from_genfun(rows: list, n: int) -> int:
    """chi(F^[n]): the alternating sum of row n - 1 (u = -1)."""
    return sum(-h if i % 2 else h for i, h in enumerate(rows[n - 1]))


# -- the five universal series of the Psi/Phi decomposition ----------------------------


#: gamma(S, x) = (c1^2(x), c2(x), c1(x)c1(S), c1^2(S), c2(S)) for the five
#: reference pairs (P2, r.1), (P2, O(1)+(r-1).1), (P2, O(2)+(r-1).1),
#: (P2, 2 O(1)+(r-2).1), (P1xP1, r.1).
_REFERENCE_GAMMAS = (
    (0, 0, 0, 9, 3),
    (1, 0, 3, 9, 3),
    (4, 0, 6, 9, 3),
    (4, 1, 6, 9, 3),
    (0, 0, 0, 8, 4),
)


def _reference_classes(r: int):
    m, q = p2(), p1xp1()
    o1, o2 = o_bundle(m, 1), o_bundle(m, 2)
    return (
        (m, TautClass((), r)),
        (m, TautClass(((o1, 1),), r - 1)),
        (m, TautClass(((o2, 1),), r - 1)),
        (m, TautClass(((o1, 2),), r - 2)),
        (q, TautClass((), r)),
    )


def gamma_vector(model, x: TautClass):
    """(c1^2(x), c2(x), c1(x).c1(S), c1^2(S), c2(S)): the n = 1 integrals of
    monomials in the Chern classes of X = x and T = T_S, from one residue pass."""
    monomials = ((("X", 1), ("X", 1)), (("X", 2),), (("X", 1), ("T", 1)), (("T", 1), ("T", 1)), (("T", 2),))
    bundles = (("X", x), ("T", "tangent"))
    return surface_number(model, monomials, bundles)


class SurfaceInvariants(Record):
    def __init__(self, L2: Fraction, KL: Fraction, K2: Fraction, e: int, chi_O: Fraction, chi_L: Fraction):
        self._freeze(L2, KL, K2, e, chi_O, chi_L)


def invariants(model, L: TLineBundle) -> SurfaceInvariants:
    """L^2, KL = -c1(L).c1(S), K^2 and e from gamma; chi(O_S) by Noether, chi(L) by Riemann-Roch."""
    l2, _, l_c1s, k2, e = gamma_vector(model, TautClass(((L, 1),)))
    kl, chi_o = Fraction(-l_c1s), Fraction(k2 + e, 12)
    return SurfaceInvariants(Fraction(l2), kl, Fraction(k2), e, chi_o, Fraction(l2) / 2 - kl / 2 + chi_o)


def h_psi_phi(model, x: TautClass, psi: str, phi_q: TruncSeries, order: int) -> TruncSeries:
    """H_{Psi,Phi}(S, x) = sum_n integral Psi(x^[n]) Phi(Hilb^n) z^n.  Psi =
    exp(c1) is the chart product of chi(L_n (x) E^r) with Phi in place of
    Todd, L = det x and r = rank x, by det(x^[n]) = det(x)_n (x) E^{rank x}."""
    if psi not in ("chern", "segre", "expdet"):
        raise ValueError("psi must be 'chern', 'segre' or 'expdet'")
    if psi == "expdet":
        det = line_bundle(model, [sum(m * L.coeffs[i] for L, m in x.line_bundles) for i in range(len(model.rays))])
        return TruncSeries("z", order, chi_series(model, order, (det,), x.rank, q=phi_q)[0])
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(integrate(model, n, _psi_phi_integrand(x, psi, phi_q, n)))
    return TruncSeries("z", order, coeffs)


def _psi_phi_integrand(x: TautClass, psi: str, phi_q: TruncSeries, n: int):
    """Psi(X) Phi(T) on Hilb^n with X = x^[n], Psi the total Chern class
    sum_d c_d(X), or the Segre class as the Chern class of -X (c(-X) = s(X))."""
    if psi == "segre":
        x = TautClass(tuple((b, -m) for b, m in x.line_bundles), -x.trivial)
    poly = tuple((Fraction(1), (("X", d),) if d else ()) for d in range(2 * n + 1))
    return Integrand(poly=poly, bundles=(("X", x),), tangent_class=phi_q)


def fit_five_series(psi: str, phi_q: TruncSeries, r: int, order: int):
    """Fit the five universal series with log H = gamma . (A1..A5).

    Returns the five exponent series (each with zero constant term).  A
    sixth evaluation point (P2, O(3)+(r-1).1) is checked against the fit;
    failure is a hard error.
    """
    m = p2()
    classes = _reference_classes(r) + ((m, TautClass(((o_bundle(m, 3), 1),), r - 1)),)
    gammas = [gamma_vector(model, x) for model, x in classes]
    for measured, gamma in zip(gammas, _REFERENCE_GAMMAS):
        if measured != gamma:
            raise FitError(f"reference gamma mismatch: {measured} != {gamma}")
    logs = [h_psi_phi(model, x, psi, phi_q, order).log() for model, x in classes]
    return _fit(gammas, logs, order, ["sixth-point consistency failed at order {m}"])
