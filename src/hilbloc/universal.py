"""Extraction of the universal objects: P_la(c1^2, c2), the twist series
A_r/B_r, the five-series decomposition, and the closed Euler-characteristic
formulas for tautological sheaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cobordism import ChernVector, from_beta, hilb_series
from .localization import Integrand, TautClass, chi_via_RR_family, hilb_cobordism_series, integrate
from .rings import Poly, binomial, gauss_solve
from .series import TruncSeries, fg_series
from .toric import TLineBundle, intersection, o_bundle, p2, p1xp1


class FitError(RuntimeError):
    """An overdetermined fit failed its consistency check."""


# -- universal Chern polynomials ---------------------------------------------------


def universal_chern_poly(n: int) -> ChernVector:
    """The Chern numbers of Hilb^n as polynomials P_la in (c1sq, c2), with
    c_la(Hilb^n(S)) = P_la(c1^2(S), c2(S)).

    Produced through the cobordism route: write [S] = a [P2] + b [P1xP1]
    with (c1^2, c2) = (9a+8b, 3a+4b), expand term n of the two-parameter
    Hilbert series symbolically in (a, b) and substitute back
    a = (c1^2 - 2 c2)/3, b = (3 c2 - c1^2)/4.
    """
    z1, z2 = Poly.var("c1sq"), Poly.var("c2")
    a = (z1 - 2 * z2) / 3
    b = (3 * z2 - z1) / 4
    h = hilb_series(a, b, n, hilb_cobordism_series(p2(), n), hilb_cobordism_series(p1xp1(), n))
    return from_beta(2 * n, h[n])


# -- twist series A_r, B_r ----------------------------------------------------------


@dataclass(frozen=True)
class TwistSeriesPair:
    r: int
    log_a: TruncSeries
    b: TruncSeries

    @property
    def a(self) -> TruncSeries:
        return self.log_a.exp()


def chi_twist_series(ks, r: int, order: int, ladder: str = "xi") -> dict:
    """k -> sum_n chi((kH)_n (x) E^r) z^n on P2 for each k in ks, by
    localization, with one pass over the fixed points per n for all k."""
    model = p2()
    bundles = [o_bundle(model, k) for k in ks]
    cols = [chi_via_RR_family(model, n, bundles, r, ladder) for n in range(order + 1)]
    return {k: TruncSeries("z", order, [col[i] for col in cols]) for i, k in enumerate(ks)}


def fit_AB(r: int, order: int, chi_data: dict | None = None, ladder: str = "xi") -> TwistSeriesPair:
    """Solve for log A_r and log B_r from P2 twist data.

    chi_data maps k -> the z-series of chi((kH)_n (x) E^r); at least two k
    are required, any extra k is used as a redundancy check (a failure is
    a hard error: it falsifies the ansatz or the localization engine).
    On P2: chi(O_S) = 1, K^2 = 9, KL = -3k, chi(O(k)) = (k+1)(k+2)/2.
    """
    if chi_data is None:
        chi_data = chi_twist_series((0, 1, 2), r, order, ladder)
    ks = sorted(chi_data)
    if len(ks) < 2:
        raise ValueError("need at least two k values")
    a_param = r * r - 1
    log_g = fg_series("g", 1, a_param, order).log()
    log_f = fg_series("f", 0, a_param, order).log()
    residual = {}
    for k in ks:
        chi_l = Fraction((k + 1) * (k + 2), 2)
        residual[k] = chi_data[k].log() - log_g * chi_l - log_f * Fraction(1, 2)
    log_a = [Fraction(0)] * (order + 1)
    log_b = [Fraction(0)] * (order + 1)
    k0, k1 = ks[0], ks[1]
    for m in range(1, order + 1):
        mat = [
            [Fraction(-3 * k0) - Fraction(9, 2), Fraction(9)],
            [Fraction(-3 * k1) - Fraction(9, 2), Fraction(9)],
        ]
        la, lb = gauss_solve(mat, [residual[k0][m], residual[k1][m]])
        log_a[m], log_b[m] = la, lb
        for k in ks[2:]:
            expect = (Fraction(-3 * k) - Fraction(9, 2)) * la + 9 * lb
            if residual[k][m] != expect:
                raise FitError(
                    f"twist-series fit inconsistent at order {m} for k={k}"
                )
    return TwistSeriesPair(
        r, TruncSeries("z", order, log_a), TruncSeries("z", order, log_b).exp()
    )


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


def cohomology_genfun(h_f, h_o, order_t: int) -> TruncSeries:
    """sum_{n,i} h^i(Hilb^n, F^[n]) u^i t^{n-1}, n >= 1.

    Equals (sum_j h^j(F) u^j) * (1+ut)^{h1} / ((1-t)^{h0} (1-u^2 t)^{h2})
    with (h0, h1, h2) = h*(O_S).  Returned as a t-series with Poly-in-u
    coefficients; coefficient of t^{n-1} collects the h^i(F^[n]) u^i.
    """
    h0, h1, h2 = (int(v) for v in h_o)
    if min(h0, h1, h2) < 0:
        raise ValueError("cohomology dimensions must be non-negative")
    u = Poly.var("u")
    front = Poly.const(0)
    for j, hj in enumerate(h_f):
        if hj:
            front = front + int(hj) * Poly.var("u", j)
    num = TruncSeries("t", order_t, [1, u])
    den1 = TruncSeries("t", order_t, [1, -1])
    den2 = TruncSeries("t", order_t, [1, -(u * u)])
    series = TruncSeries.one("t", order_t)
    for _ in range(h1):
        series = series * num
    for _ in range(h0):
        series = series / den1
    for _ in range(h2):
        series = series / den2
    return series * front


def chi_from_genfun(genfun: TruncSeries, n: int) -> Fraction:
    """Specialize u = -1 in the t^{n-1} coefficient: chi(F^[n])."""
    c = genfun[n - 1]
    if isinstance(c, Poly):
        return c.substitute({"u": Fraction(-1)}).as_fraction()
    return Fraction(c)


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
    """(c1^2(x), c2(x), c1(x).c1(S), c1^2(S), c2(S)) as intersection numbers."""
    n_rays = len(model.rays)
    c1 = [0] * n_rays
    for bundle, mult in x.line_bundles:
        for i, c in enumerate(bundle.coeffs):
            c1[i] += mult * c
    c1_bundle = TLineBundle(model, tuple(c1))
    k = model.canonical_bundle()
    c1sq = intersection(c1_bundle, c1_bundle)
    # c2 of a sum of line bundles: second elementary symmetric function
    c2 = 0
    lbs = [(b, m) for b, m in x.line_bundles]
    for i, (b1, m1) in enumerate(lbs):
        for j, (b2, m2) in enumerate(lbs):
            if j > i:
                c2 += m1 * m2 * intersection(b1, b2)
            elif j == i and m1 > 1:
                c2 += m1 * (m1 - 1) // 2 * intersection(b1, b1)
    neg_k = TLineBundle(model, tuple(-c for c in k.coeffs))
    c1_c1s = intersection(c1_bundle, neg_k)
    return (c1sq, c2, c1_c1s, intersection(k, k), model.euler_number)


def h_psi_phi(model, x: TautClass, psi: str, phi_q: TruncSeries, order: int,
              ladder: str = "xi") -> TruncSeries:
    """H_{Psi,Phi}(S, x) = sum_n integral Psi(x^[n]) Phi(Hilb^n) z^n."""
    if psi not in ("chern", "segre", "expdet"):
        raise ValueError("psi must be 'chern', 'segre' or 'expdet'")
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        integrand = _psi_phi_integrand(model, x, psi, phi_q, n)
        coeffs.append(integrate(model, n, integrand, ladder))
    return TruncSeries("z", order, coeffs)


def _psi_phi_integrand(model, x: TautClass, psi: str, phi_q: TruncSeries, n: int):
    if psi == "expdet":
        det_l = [0] * len(model.rays)
        for bundle, mult in x.line_bundles:
            for i, c in enumerate(bundle.coeffs):
                det_l[i] += mult * c
        return Integrand(
            exp_det=(TLineBundle(model, tuple(det_l)), x.rank),
            tangent_class=phi_q,
        )
    # the total Chern class of x^[n], or of -x^[n] for the Segre class: c(-X) = s(X)
    if psi == "segre":
        x = TautClass(tuple((b, -m) for b, m in x.line_bundles), -x.trivial)
    poly = tuple((Fraction(1), (("X", d),) if d else ()) for d in range(2 * n + 1))
    return Integrand(poly=poly, bundles=(("X", x),), tangent_class=phi_q)


def fit_five_series(psi: str, phi_q: TruncSeries, r: int, order: int,
                    check_sixth: bool = True, ladder: str = "xi"):
    """Fit the five universal series with log H = gamma . (A1..A5).

    Returns the five exponent series (each with zero constant term).  A
    sixth evaluation point (P2, O(3)+(r-1).1) is checked against the fit;
    failure is a hard error.
    """
    refs = _reference_classes(r)
    logs = []
    for (model, x), gamma in zip(refs, _REFERENCE_GAMMAS):
        measured = gamma_vector(model, x)
        if measured != gamma:
            raise FitError(f"reference gamma mismatch: {measured} != {gamma}")
        logs.append(h_psi_phi(model, x, psi, phi_q, order, ladder).log())
    mat = [[Fraction(g) for g in gamma] for gamma in _REFERENCE_GAMMAS]
    series = [[Fraction(0)] * (order + 1) for _ in range(5)]
    for m in range(1, order + 1):
        sol = gauss_solve(mat, [l[m] for l in logs])
        for i in range(5):
            series[i][m] = sol[i]
    out = [TruncSeries("z", order, c) for c in series]
    if check_sixth:
        model = p2()
        x6 = TautClass(((o_bundle(model, 3), 1),), r - 1)
        gamma6 = gamma_vector(model, x6)
        log6 = h_psi_phi(model, x6, psi, phi_q, order, ladder).log()
        for m in range(1, order + 1):
            expect = sum(Fraction(g) * out[i][m] for i, g in enumerate(gamma6))
            if log6[m] != expect:
                raise FitError(f"sixth-point consistency failed at order {m}")
    return out
