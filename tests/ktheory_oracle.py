"""An epsilon-free oracle for the tangent characters: chi_{-y}(Hilb^n(S)) by
K-theoretic localization at one rational point q = (q1, q2) of the torus.

The holomorphic Lefschetz formula gives sum_p (-y)^p chi(Omega^p) of
Hilb^n(S) as the sum over its fixed points of

    prod_w (1 - y q^{-w}) / (1 - q^{-w}),    q^w = q1^w1 q2^w2,

over the tangent characters w (`localization.tangent_weights`).  The sum
does not depend on q, so its values at two points check the characters
exactly, in Fractions, with no 1-PS, series in epsilon or residue."""

from fractions import Fraction

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
