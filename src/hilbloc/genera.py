"""Genera as ring homomorphisms from the cobordism ring.

A genus is given by its characteristic power series Q(x) with Q(0) = 1.
With log Q(x) = sum_k s_k x^k, the genus of a class is its power-sum
polynomial (see `cobordism`) at beta_k = s_k, and the multiplicative
sequence is the genus of the classes with a single nonzero Chern number;
no root-finding is involved.  Coefficients may be polynomials in
parameters (y).  The genus of Hilb^n(S) has one route, `genus_hilb_series`:
the chart product with Q on P2 and P1xP1 (`localization.chi_series`),
combined by the main theorem.

Betti numbers and chi_{-y} of Hilb^n(S) depend only on b(S), which is
(1, e(S) - 2, 1) on a toric surface; the Betti numbers are also counted
at the fixed points of a generic 1-PS (Bialynicki-Birula), at both 1-PS of
a ladder, and the two counts must agree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

from .cobordism import ChernVector, beta_degree, beta_var, surface_series, to_beta
from .localization import _agreed, chart_specializations, chi_series, one_ps_ladder
from .partitions import enumerate_partitions
from .records import Record
from .rings import Poly, linear_combination
from .series import TruncSeries, exp_series, geometric, partition_product, todd_series
from .toric import ToricSurface, o_bundle


class GenusSpec(Record):
    """A genus: characteristic series Q (constant term 1) up to degree D."""

    def __init__(self, name: str, q: TruncSeries):
        if q.coeffs[0] != 1:
            raise ValueError("characteristic series must have Q(0) = 1")
        self._freeze(name, q)

    @property
    def degree(self) -> int:
        return self.q.order

    @cached_property
    def log_coeffs(self) -> tuple:
        """(s_0, s_1, ..., s_D) with log Q(x) = sum_k s_k x^k."""
        return self.q.log().coeffs


# -- standard characteristic series ------------------------------------------------


def todd_genus(degree: int) -> GenusSpec:
    return GenusSpec("todd", todd_series("x", degree))


def total_chern_genus(degree: int) -> GenusSpec:
    """Q = 1 + x: evaluates to the Euler number (top Chern class)."""
    return GenusSpec("euler", TruncSeries("x", degree, [1, 1]))


def signature_genus(degree: int) -> GenusSpec:
    """Q = x / tanh x."""
    cosh = TruncSeries(
        "x", degree, [Fraction(1, factorial(k)) if k % 2 == 0 else 0 for k in range(degree + 1)]
    )
    sinh_over_x = TruncSeries(
        "x", degree, [Fraction(1, factorial(k + 1)) if k % 2 == 0 else 0 for k in range(degree + 1)]
    )
    return GenusSpec("signature", cosh / sinh_over_x)


def chi_y_genus(degree: int) -> GenusSpec:
    """The chi_{-y} genus: Q(x) = x(1 + y e^{-x(1+y)}) / (1 - e^{-x(1+y)}).

    Expanded through the equivalent form x(1+y)/(1 - e^{-x(1+y)}) - x*y so
    that every coefficient is an honest polynomial in y.  The paper only
    cites Hirzebruch for this series, so the implementation is validated
    against the Betti-sum route on the toric models (see tests) before it
    is used anywhere else.
    """
    td = todd_series("x", degree)  # u/(1-e^{-u})
    ypoly = Poly.var("y")
    one_plus_y = 1 + ypoly
    # substitute u -> x(1+y): coefficient k picks up (1+y)^k
    coeffs = [td.coeffs[k] * one_plus_y ** k for k in range(degree + 1)]
    q = TruncSeries("x", degree, coeffs)
    xy = TruncSeries("x", degree, [0, ypoly])
    return GenusSpec("chi_y", q - xy)


def phi_nk_genus(n_level: int, k: int, degree: int) -> GenusSpec:
    """Q(x) = x e^{-(k/N) x} / (1 - e^{-x}), for 0 <= k <= N and N >= 1."""
    if not 0 <= k <= n_level or n_level < 1:
        raise ValueError(f"require 0 <= k <= N and N >= 1, got k={k}, N={n_level}")
    td = todd_series("x", degree)
    return GenusSpec(
        f"phi_{n_level}_{k}", td * exp_series("x", degree, Fraction(-k, n_level))
    )


# -- multiplicative sequences and genus values ----------------------------------------


@lru_cache(maxsize=None)
def multiplicative_sequence(genus: GenusSpec, d: int):
    """Coefficients K_la with (prod_i Q(x_i))_{deg d} = sum_la K_la c_la.

    The genus is linear in the Chern numbers, so K_la is the genus of the
    class with c_la = 1 and every other Chern number 0.  Returned as a dict
    over partitions of d; values are Fractions or Polys in the genus
    parameters.
    """
    lams = enumerate_partitions(d)
    return {
        la: genus_eval(genus, to_beta(ChernVector.from_dict(d, {nu: int(nu == la) for nu in lams})))
        for la in lams
    }


def genus_eval(genus: GenusSpec, b):
    """The genus of a cobordism class: its power-sum polynomial b at beta_k = s_k."""
    if beta_degree(b) > genus.degree:
        raise ValueError("genus characteristic series truncated below d")
    s = genus.log_coeffs
    return Poly.coerce(b)(**{beta_var(k): s[k] for k in range(1, genus.degree + 1)})


def genus_series(genus: GenusSpec, h: TruncSeries) -> TruncSeries:
    """Apply a genus termwise to a series of classes: a series in t."""
    return TruncSeries("t", h.order, [genus_eval(genus, c) for c in h.coeffs])


def genus_hilb_series(genus: GenusSpec, c1sq, c2, order: int) -> TruncSeries:
    """The genus of Hilb^n(S), n <= order, for c1^2(S) = c1sq and c2(S) = c2 as a series in t:
    the chart products of Q on P2 and P1xP1 (L = O, r = 0), combined by `surface_series`, which
    skips the model whose coefficient is 0 (P1xP1 for (9, 3), P2 for (8, 4))."""

    def model_series(model):
        return TruncSeries("t", order, chi_series(model, order, (o_bundle(model),), 0, q=genus.q)[0])

    return surface_series(c1sq, c2, model_series, "t", order)


# -- Betti numbers and the chi_y generating series ----------------------------------


def betti_hilb_model(model: ToricSurface, n: int) -> list:
    """Even Betti numbers b_0, b_2, ..., b_{4n} of Hilb^n(S), S toric; odd ones vanish."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _betti_rows(model, n)[n]


def _betti_rows(model: ToricSurface, order: int) -> list:
    """[b_0, b_2, ..., b_{4n}] of Hilb^n(S) for every n <= order, from one chart product per 1-PS.

    Bialynicki-Birula: b_2k counts the fixed points with k positive tangent
    weights at a generic 1-PS, here each of the 'xi' ladder of order, which
    is generic for every n <= order; the two counts must agree
    (`localization._agreed`).  A point's weights are the union of its
    charts', so sum_k b_2k y^k is
    [z^n] prod_charts sum_{|la| <= order} z^{|la|} y^{pos(chart, la)}."""
    specs = one_ps_ladder(model, order, "xi")
    counts = []
    for spec in specs:
        total = Counter({(0, 0): 1})  # (size, positive weights) -> fixed points over the charts so far
        for weights in chart_specializations(model, order, spec):
            local = Counter((sum(la), sum(t > 0 for t in tvals)) for la, tvals in weights.items())
            nxt = Counter()
            for (m, k), x in total.items():
                for (dm, dk), c in local.items():
                    if m + dm <= order:
                        nxt[m + dm, k + dk] += x * c
            total = nxt
        counts.append([[total[n, k] for k in range(2 * n + 1)] for n in range(order + 1)])
    return _agreed(specs, *counts)


def chi_y_hilb(model: ToricSurface, order: int, method: str) -> TruncSeries:
    """chi_{-y}(H(S)) as a z-series with polynomial-in-y coefficients, S toric,
    with b(S) = (1, e - 2, 1) from e = e(S).

    method 'product': Goettsche's prod over (eps, b) in ((-1, 1), (0, e - 2), (1, 1))
                      of prod_k (1 - y^{k+eps} z^k)^{-b};
    method 'exp'    : exp( sum_m chi_{-y^m}(S) z^m / (m (1-(yz)^m)) ), chi_{-y}(S) = 1 + (e-2) y + y^2;
    method 'betti'  : sum_p b_2p(Hilb^n) y^p z^n from the fixed-point count, one chart
                      product at each 1-PS of the ladder of order.
    """
    e = model.euler_number
    if method == "product":
        return partition_product(((-1, 1), (0, e - 2), (1, 1)), order)
    if method == "betti":
        return TruncSeries("z", order, [
            linear_combination((Poly.var("y", k), b) for k, b in enumerate(row)) for row in _betti_rows(model, order)
        ])
    if method == "exp":
        chi = 1 + (e - 2) * Poly.var("y") + Poly.var("y", 2)
        arg = TruncSeries.zero("z", order)
        for m in range(1, order + 1):
            chi_m = chi.substitute({"y": Poly.var("y", m)})
            # z^m/m * 1/(1-(yz)^m) = sum_j y^{mj} z^{m(j+1)} / m
            cs = [Fraction(0)] * (order + 1)
            for j in range(order // m):
                cs[m * (j + 1)] = (Poly.var("y", m * j) if j else Fraction(1, 1)) * Fraction(1, m)
            arg = arg + TruncSeries("z", order, cs) * chi_m
        return arg.exp()
    raise ValueError(f"unknown method {method!r}")


# -- Theorem 3 ---------------------------------------------------------------------


def phi_nk_closed_form(phi_of_s, order: int) -> TruncSeries:
    """(1 - t)^{-phi(S)}, the closed-form generating series of the genus."""
    return geometric("t", order).pow(phi_of_s)
