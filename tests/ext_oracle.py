"""The Carlsson-Okounkov Ext class as a closed-form oracle for the tangent
characters and the local weights of a line bundle together.

E_L = chi(O, L) - chi(I, I (x) L) has rank 2n on Hilb^n(S), and at a fixed
point its character is the tangent characters shifted chart by chart by L's
local weight there (Carlsson and Okounkov, *Exts and vertex operators*, Duke
Math. J. 161, 2012).  Its Euler class integrates to

    sum_n z^n int e(E_L) = prod_{m >= 1} (1 - z^m)^(K.L - L.L - e(S)),

Goettsche's Euler-number product at L = O.  The left side is multiplicative
over the charts: at a 1-PS it is the product over the charts of
sum_la z^|la| prod_{t in T_la} (t + l_c) / t, with t the specialized
tangent weights of `chart_specializations` and l_c the specialized
`local_weight` of L, so it checks both at every n <= order, in Fractions.
The right side reads the intersection numbers off the fan alone:
D_i.D_(i+1) = 1, D_i.D_i = -a_i where v_(i-1) + v_(i+1) = a_i v_i, and
K = -sum D_i."""

from fractions import Fraction
from math import prod

from hilbloc.localization import chart_specializations


def ext_chart_product(model, L, order, spec) -> list:
    """[z^0..z^order] of prod_c sum_la z^|la| prod_{t in T_la} (t + l_c) / t at the 1-PS spec."""
    total = [Fraction(1)] + [Fraction(0)] * order
    for chart, weights in zip(model.charts, chart_specializations(model, order, spec)):
        lw = L.local_weight(chart)
        shift = lw[0] * spec[0] + lw[1] * spec[1]
        local = [Fraction(0)] * (order + 1)
        for la, tvals in weights.items():
            local[sum(la)] += Fraction(prod(t + shift for t in tvals), prod(tvals))
        total = [sum(total[k] * local[n - k] for k in range(n + 1)) for n in range(order + 1)]
    return total


def ext_exponent(model, L) -> int:
    """K.L - L.L - e(S) from the fan: L = sum c_i D_i, K = -sum D_i."""
    rays, c = model.rays, L.coeffs
    e = len(rays)
    # a_i = det(v_(i-1), v_(i+1)) = -D_i.D_i
    a = [rays[i - 1][0] * rays[(i + 1) % e][1] - rays[i - 1][1] * rays[(i + 1) % e][0] for i in range(e)]
    # each D_j meets its two neighbours once: K.D_j = a_j - 2
    k_dot_l = sum(cj * (aj - 2) for cj, aj in zip(c, a))
    l_dot_l = sum(-aj * cj * cj for cj, aj in zip(c, a)) + 2 * sum(c[i] * c[(i + 1) % e] for i in range(e))
    return k_dot_l - l_dot_l - e


def euler_product(exponent: int, order: int) -> list:
    """[z^0..z^order] of prod_{m >= 1} (1 - z^m)^exponent, exact integers."""
    total = [1] + [0] * order
    for m in range(1, order + 1):
        # (1 - x)^E = sum_k (-1)^k binom(E, k) x^k, binom general in E
        factor, coeff = [0] * (order + 1), 1
        for k in range(order // m + 1):
            factor[m * k] = coeff
            coeff = coeff * (k - exponent) // (k + 1)
        total = [sum(total[i] * factor[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return total
