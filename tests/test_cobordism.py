from fractions import Fraction

import pytest

from hilbloc.cobordism import (
    ChernVector,
    beta_degree,
    beta_poly,
    cp_product_class,
    from_beta,
    from_cp_basis,
    hilb_series,
    multiply,
    product_series,
    to_beta,
    to_cp_basis,
)
from hilbloc.localization import hilb_cobordism_series, surface_number
from hilbloc.partitions import enumerate_partitions, merge
from hilbloc.rings import Poly
from hilbloc.toric import build_model, p1xp1, p2
from record_oracle import assert_record

U = Poly.var("u")


def _cp_product_coeffs(x, y, out):
    """out += the CP-monomial coordinates of x * y."""
    for mu, a in to_cp_basis(x).items():
        for nu, b in to_cp_basis(y).items():
            key = merge(mu, nu)
            out[key] = out.get(key, Fraction(0)) + a * b
    return out


def _cp_multiply(x, y):
    """The product through the CP-monomial basis: the reference route."""
    return from_cp_basis(x.dim + y.dim, _cp_product_coeffs(x, y, {}))


def _chern_terms(series):
    """The terms of a series of classes as Chern numbers: term n has dimension 2n."""
    return [from_beta(2 * n, c) for n, c in enumerate(series.coeffs)]


def _cp_product_series(x, y):
    """The Chern numbers of the terms of x * y, multiplied in the CP basis."""
    xs, ys = _chern_terms(x), _chern_terms(y)
    terms = []
    for n in range(min(x.order, y.order) + 1):
        out = {}
        for i in range(n + 1):
            _cp_product_coeffs(xs[i], ys[n - i], out)
        terms.append(from_cp_basis(2 * n, out))
    return terms


def _class(d, value):
    """A class of dimension d whose i-th Chern number is value(i)."""
    return ChernVector.from_dict(d, {la: value(i) for i, la in enumerate(enumerate_partitions(d))})


def test_cp2_chern_numbers():
    cls = cp_product_class((2,))
    assert cls.value((1, 1)) == 9
    assert cls.value((2,)) == 3


def test_cp1_squared_chern_numbers():
    cls = cp_product_class((1, 1))
    assert cls.value((1, 1)) == 8
    assert cls.value((2,)) == 4


def test_cp3_chern_numbers():
    cls = cp_product_class((3,))
    # c(CP^3) = (1+h)^4: c1^3 = 64, c1 c2 = 24, c3 = 4
    assert cls.value((1, 1, 1)) == 64
    assert cls.value((2, 1)) == 24
    assert cls.value((3,)) == 4


def test_basis_roundtrip():
    for d in (0, 2, 4, 6, 8):
        numeric = _class(d, lambda i: Fraction(i + 1, 3))
        symbolic = _class(d, lambda i: (i - 2) * U + Fraction(1, i + 1))
        for x in (numeric, symbolic):
            assert from_beta(d, to_beta(x)) == x
            if d <= 6:
                assert from_cp_basis(d, to_cp_basis(x)) == x
    # b_mu = integral p_mu / aut(mu): p_2 = c1^2 - 2 c2 = 3 and p_1^2 / 2! = 9/2 on CP2
    b1, b2 = Poly.var("beta1"), Poly.var("beta2")
    assert to_beta(cp_product_class((2,))) == 3 * b2 + Fraction(9, 2) * b1 * b1


def test_multiply_is_product_of_manifolds():
    cp2 = cp_product_class((2,))
    assert multiply(cp2, cp2) == cp_product_class((2, 2))
    cp1 = cp_product_class((1, 1))
    assert multiply(cp2, cp1) == cp_product_class((2, 1, 1))
    cp3 = cp_product_class((3,))
    assert multiply(cp3, cp1) == cp_product_class((3, 1, 1))
    x = _class(4, lambda i: i * U - 1)
    for a, b in ((cp2, cp3), (cp1, x), (x, _class(2, lambda i: Fraction(i - 1, 7)))):
        assert multiply(a, b) == _cp_multiply(a, b)


def test_multiply_point():
    cp2 = cp_product_class((2,))
    assert multiply(ChernVector.point(3), cp2) == ChernVector(2, tuple((la, 3 * v) for la, v in cp2.numbers))
    assert_record(cp2, "dim numbers", ChernVector.point(3), cp_product_class((1, 1)))


def test_hilb_series_unit_coefficients():
    # (c1^2, c2) = (9a + 8b, 3a + 4b) for [S] = a [P2] + b [P1xP1]
    h1 = hilb_cobordism_series(p2(), 3)
    hq = hilb_cobordism_series(p1xp1(), 3)
    assert hilb_series(9, 3, 3).coeffs == h1.coeffs
    assert hilb_series(8, 4, 3).coeffs == hq.coeffs
    # a = 2, b = 1: H(P2)^2 H(P1xP1), multiplied through the CP basis
    h1sq = product_series(h1, h1)
    assert _chern_terms(h1sq) == _cp_product_series(h1, h1)
    want = _cp_product_series(h1sq, hq)
    assert _chern_terms(hilb_series(26, 10, 3)) == want
    # a = -1, b = 0 inverts H(P2)
    zeros = [_class(2 * n, lambda i: 0) for n in (1, 2, 3)]
    assert _cp_product_series(hilb_series(-9, -3, 3), h1) == [ChernVector.point(1)] + zeros
    # Poly (c1sq, c2) specialize to the numeric ones
    symbolic = hilb_series(Poly.var("c1sq"), Poly.var("c2"), 3)
    for t, w in zip(_chern_terms(symbolic), want):
        assert {la: Poly.coerce(v)(c1sq=26, c2=10) for la, v in t.numbers} == w.as_dict()


@pytest.mark.parametrize(
    "spec",
    ["blowup:p2:1", "blowup:blowup:p2:0:1", "blowup:p1xp1:2", "blowup:blowup:blowup:p1xp1:0:0:0"],
)
def test_hilb_series_of_the_surface_class_is_the_localized_series(spec):
    # the main theorem: H(S) depends on S only through (K^2, e(S))
    model = build_model(spec)
    (k2,) = surface_number(model, ((("T", 1), ("T", 1)),), (("T", "tangent"),))
    got = hilb_series(k2, model.euler_number, 4)
    assert got.coeffs == hilb_cobordism_series(model, 4).coeffs


def test_beta_poly_divides_by_aut_and_keeps_parameters():
    # integrals of p_2 and p_1^2 on CP2 are 3 and 9; aut((1, 1)) = 2
    b1, b2 = Poly.var("beta1"), Poly.var("beta2")
    assert beta_poly(2, [3, 9]) == to_beta(cp_product_class((2,)))
    assert beta_poly(2, [U, 0]) == U * b2
    assert beta_poly(0, [Fraction(5)]) == 5
    assert beta_degree(3 * b2 + U * b1 * b1) == 2
    assert beta_degree(to_beta(cp_product_class((3, 1)))) == 4
    assert beta_degree(Fraction(7)) == beta_degree(U) == 0
