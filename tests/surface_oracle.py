"""An independent oracle for intersection numbers on toric surfaces.

A residue sum over the charts of S alone, with its own choice of two
generic 1-parameter subgroups and no use of the Hilbert-scheme engine,
and c1, c2 of a sum of line bundles built by hand on top of it: the
numbers that `localization.surface_number` and `universal.gamma_vector`
compute as n = 1 integrals.
"""

from fractions import Fraction

from hilbloc.toric import TLineBundle, build_model

# the surfaces of the oracle comparisons: the two minimal models and blowups of depth 1..3
SURFACES = [build_model(s) for s in (
    "p2", "p1xp1", "blowup:p2:0", "blowup:blowup:p2:0:1", "blowup:blowup:blowup:p1xp1:0:0:0",
)]


def _dot(char, spec) -> Fraction:
    return Fraction(char[0] * spec[0] + char[1] * spec[1])


def _surface_specs(model):
    chars = []
    for ch in model.charts:
        chars.extend([ch.w1, ch.w2])
    bound = 1 + max(abs(c[0]) for c in chars if c[1] != 0)
    return (1, bound), (1, bound + 1)


def intersection(l1: TLineBundle, l2: TLineBundle) -> int:
    """L1 . L2 by the Bott residue sum over the fixed points of S."""
    model = l1.surface
    assert l2.surface == model, "bundles live on different surfaces"
    values = []
    for spec in _surface_specs(model):
        acc = Fraction(0)
        for ch in model.charts:
            t1, t2 = _dot(ch.w1, spec), _dot(ch.w2, spec)
            acc += _dot(l1.local_weight(ch), spec) * _dot(l2.local_weight(ch), spec) / (t1 * t2)
        values.append(acc)
    assert values[0] == values[1], "intersection number depends on the 1-PS choice"
    assert values[0].denominator == 1, "non-integral intersection number"
    return int(values[0])


def canonical_bundle(model) -> TLineBundle:
    """K_S = -(sum of the toric divisors)."""
    return TLineBundle(model, (-1,) * len(model.rays))


def gamma_vector(model, x):
    """(c1^2(x), c2(x), c1(x).c1(S), c1^2(S), c2(S)) for x = sum m_i L_i + trivial."""
    c1 = [0] * len(model.rays)
    for bundle, mult in x.line_bundles:
        for i, c in enumerate(bundle.coeffs):
            c1[i] += mult * c
    c1_bundle = TLineBundle(model, tuple(c1))
    k = canonical_bundle(model)
    # c2 of a sum of line bundles: the second elementary symmetric function,
    # with c(L)^m = (1 + L)^m contributing C(m, 2) L^2 for every integer m
    c2 = 0
    lbs = list(x.line_bundles)
    for i, (b1, m1) in enumerate(lbs):
        for j, (b2, m2) in enumerate(lbs):
            if j > i:
                c2 += m1 * m2 * intersection(b1, b2)
            elif j == i:
                c2 += m1 * (m1 - 1) // 2 * intersection(b1, b1)
    neg_k = TLineBundle(model, tuple(-c for c in k.coeffs))
    return (
        intersection(c1_bundle, c1_bundle),
        c2,
        intersection(c1_bundle, neg_k),
        intersection(k, k),
        model.euler_number,
    )
