"""Genera as ring homomorphisms from the cobordism ring.

A genus is given by its characteristic power series Q(x) with Q(0) = 1.
With log Q(x) = sum_k s_k x^k, the genus of a class is its power-sum
polynomial (see `cobordism`) at beta_k = s_k, and the multiplicative
sequence is the genus of the classes with a single nonzero Chern number;
no root-finding is involved.  Coefficients may be polynomials in
parameters (y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

from .cobordism import ChernVector, beta_degree, beta_var, to_beta
from .partitions import count_partitions, count_with_parts, enumerate_partitions
from .rings import Poly
from .series import TruncSeries, exp_series, geometric, partition_product, todd_series


@dataclass(frozen=True)
class GenusSpec:
    """A genus: characteristic series Q (constant term 1) up to degree D."""

    name: str
    q: TruncSeries

    def __post_init__(self):
        if self.q.coeffs[0] != 1:
            raise ValueError("characteristic series must have Q(0) = 1")

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


# -- model Betti numbers and the chi_y generating series ------------------------------


def betti_hilb_model(model_name: str, n: int) -> list:
    """Even Betti numbers b_0, b_2, ..., b_{4n} of Hilb^n for the two models,
    from the partition triple/quadruple sums; odd Betti numbers vanish."""
    if n < 0:
        raise ValueError("n must be non-negative")
    b = [0] * (2 * n + 1)
    if model_name == "P2":
        for n1 in range(n + 1):
            for n2 in range(n + 1 - n1):
                n3 = n - n1 - n2
                pn2 = count_partitions(n2)
                for r1 in range(n1 + 1):
                    p1 = count_with_parts(n1, r1)
                    if not p1:
                        continue
                    for r3 in range(n3 + 1):
                        p3 = count_with_parts(n3, r3)
                        if p3:
                            b[n + r3 - r1] += p1 * pn2 * p3
    elif model_name == "P1xP1":
        for n1 in range(n + 1):
            for n2 in range(n + 1 - n1):
                for n3 in range(n + 1 - n1 - n2):
                    n4 = n - n1 - n2 - n3
                    mid = count_partitions(n2) * count_partitions(n3)
                    for r1 in range(n1 + 1):
                        p1 = count_with_parts(n1, r1)
                        if not p1:
                            continue
                        for r4 in range(n4 + 1):
                            p4 = count_with_parts(n4, r4)
                            if p4:
                                b[n + r4 - r1] += p1 * mid * p4
    else:
        raise ValueError("model must be 'P2' or 'P1xP1'")
    return b


_MODEL_FACTORS = {
    "P2": ((-1, 1), (0, 1), (1, 1)),
    "P1xP1": ((-1, 1), (0, 2), (1, 1)),
}

_MODEL_CHI_Y = {
    "P2": 1 + Poly.var("y") + Poly.var("y", 2),
    "P1xP1": 1 + 2 * Poly.var("y") + Poly.var("y", 2),
}


def chi_y_hilb(model_name: str, order: int, method: str = "product") -> TruncSeries:
    """chi_{-y}(H(S)) as a z-series with polynomial-in-y coefficients.

    method 'product': the infinite-product formula for the two models;
    method 'exp'    : exp( sum_m chi_{-y^m}(S) z^m / (m (1-(yz)^m)) );
    method 'betti'  : sum_p b_2p(Hilb^n) y^p z^n from the Betti sums.
    """
    if method == "product":
        return partition_product(_MODEL_FACTORS[model_name], order)
    if method == "betti":
        coeffs = []
        for n in range(order + 1):
            b = betti_hilb_model(model_name, n)
            acc = Poly.const(0)
            for pdeg, bb in enumerate(b):
                if bb:
                    acc = acc + bb * Poly.var("y", pdeg)
            coeffs.append(acc)
        return TruncSeries("z", order, coeffs)
    if method == "exp":
        chi = _MODEL_CHI_Y[model_name]
        arg = TruncSeries.zero("z", order)
        for m in range(1, order + 1):
            chi_m = chi.substitute({"y": Poly.var("y", m)})
            # z^m/m * 1/(1-(yz)^m) = sum_j y^{mj} z^{m(j+1)} / m
            cs = [Fraction(0)] * (order + 1)
            j = 0
            while m * (j + 1) <= order:
                cs[m * (j + 1)] = (Poly.var("y", m * j) if j else Fraction(1, 1)) * Fraction(1, m)
                j += 1
            term = TruncSeries("z", order, cs) * chi_m
            arg = arg + term
        return arg.exp()
    raise ValueError(f"unknown method {method!r}")


# -- Theorem 3 ---------------------------------------------------------------------


def phi_nk_closed_form(phi_of_s, order: int) -> TruncSeries:
    """(1 - t)^{-phi(S)}, the closed-form generating series of the genus."""
    return geometric("t", order).pow(Fraction(phi_of_s))
