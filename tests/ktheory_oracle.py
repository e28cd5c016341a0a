"""An epsilon-free oracle for the tangent characters: chi_{-y}(Hilb^n(S)) by
K-theoretic localization at one rational point q = (q1, q2) of the torus.

The holomorphic Lefschetz formula gives sum_p (-y)^p chi(Omega^p) of
Hilb^n(S) as the sum over its fixed points of

    prod_w (1 - y q^{-w}) / (1 - q^{-w}),    q^w = q1^w1 q2^w2,

over the tangent characters w (`localization.tangent_weights`).  The sum
does not depend on q, so its values at two points check the characters
exactly, in Fractions, with no 1-PS, series in epsilon or residue.

`chart_closed_form` is the epsilon side of the same identity at one chart:
the closed form of the table that `localization._chart_sums` builds."""

from fractions import Fraction
from math import factorial

from hilbloc.localization import enumerate_fixed_points, tangent_weights


def chi_y_at(model, n, y, q) -> Fraction:
    """The fixed-point sum above over Hilb^n(model) at y and at the torus point q."""
    y, (q1, q2) = Fraction(y), map(Fraction, q)
    factors = {}  # character w -> (1 - y q^{-w}) / (1 - q^{-w})
    total = Fraction(0)
    for fp in enumerate_fixed_points(model, n):
        term = Fraction(1)
        for w in tangent_weights(model, fp):
            if w not in factors:
                x = q1 ** -w[0] * q2 ** -w[1]
                factors[w] = (1 - y * x) / (1 - x)
            term *= factors[w]
        total += term
    return total


# -- the per-chart closed forms in epsilon ------------------------------------------
#
# At one chart with tangent weights t1, t2 (those of its one-cell ideal) the
# sum over all partitions la of z^|la| prod_{t in T_la} 1 / (1 - e^{-t eps}),
# the epsilon form of the character of C[Sym^n C^2] at q = e^eps, is the
# plethystic exponential
#
#     exp(sum_k c_k z^k / (k (1 - e^{-k t1 eps}) (1 - e^{-k t2 eps})))
#
# with c_k = 1; with the factor e^{+-o(la) eps} of det O^[n] (o the sum of the
# cell characters, either sign) it holds with c_k = (-1)^(k+1).  Scaling z by
# eps^2 makes both power series in (z, eps).


def _todd(top) -> list:
    """x / (1 - e^{-x}) through x^top, the inverse of (1 - e^{-x}) / x =
    sum_i (-1)^i x^i / (i + 1)!."""
    out = [Fraction(1)]
    for n in range(1, top + 1):
        out.append(-sum(Fraction((-1) ** k, factorial(k + 1)) * out[n - k] for k in range(1, n + 1)))
    return out


def _times(x, y, top) -> list:
    """The product of two series in eps through eps^top."""
    out = [Fraction(0)] * (top + 1)
    for i, a in enumerate(x[: top + 1]):
        if a:
            for j, b in enumerate(y[: top + 1 - i]):
                out[i + j] += a * b
    return out


def chart_closed_form(t1, t2, alternating, order) -> list:
    """[[z^m eps^j] of the closed form above, z scaled by eps^2, for j = 0..2
    order] for m = 0..order: c_k = (-1)^(k+1) if alternating, else 1."""
    top = 2 * order
    todd = _todd(top)
    f = [None]  # f[k]: the eps-series of z^k in the exponent
    for k in range(1, order + 1):
        # eps^2 / ((1 - e^{-a eps}) (1 - e^{-b eps})) = todd(a eps) todd(b eps) / (a b)
        a, b = k * t1, k * t2
        c = Fraction((-1) ** (k + 1) if alternating else 1, k * a * b)
        term = _times([x * a**i for i, x in enumerate(todd)], [x * b**i for i, x in enumerate(todd)], top)
        f.append([Fraction(0)] * (2 * k - 2) + [c * x for x in term[: top + 3 - 2 * k]])
    g = [[Fraction(1)] + [Fraction(0)] * top]  # exp: m g_m = sum_k k f_k g_(m-k)
    for m in range(1, order + 1):
        acc = [Fraction(0)] * (top + 1)
        for k in range(1, m + 1):
            acc = [x + k * y for x, y in zip(acc, _times(f[k], g[m - k], top))]
        g.append([x / m for x in acc])
    return g
