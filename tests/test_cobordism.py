from fractions import Fraction

import pytest

from hilbloc.cobordism import (
    ChernVector,
    CobordismSeries,
    cp_product_class,
    from_beta,
    from_cp_basis,
    hilb_series,
    multiply,
    product_series,
    to_beta,
    to_cp_basis,
)
from hilbloc.partitions import enumerate_partitions, merge
from hilbloc.rings import Poly

U = Poly.var("u")


def _cp_multiply(x, y):
    """The product through the CP-monomial basis: the reference route."""
    out = {}
    for mu, a in to_cp_basis(x).items():
        for nu, b in to_cp_basis(y).items():
            key = merge(mu, nu)
            out[key] = out.get(key, Fraction(0)) + a * b
    return from_cp_basis(x.dim + y.dim, out)


def _cp_product_series(x, y):
    order = min(x.order, y.order)
    terms = []
    for n in range(order + 1):
        acc = _cp_multiply(x.term(0), y.term(n))
        for i in range(1, n + 1):
            acc = acc + _cp_multiply(x.term(i), y.term(n - i))
        terms.append(acc)
    return CobordismSeries(order, tuple(terms))


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
    assert multiply(ChernVector.point(3), cp2) == cp2.scale(3)


def _toy_series(order):
    terms = [ChernVector.point(1)]
    for n in range(1, order + 1):
        terms.append(cp_product_class((1,) * (2 * n)))
    return CobordismSeries(order, tuple(terms))


def test_hilb_series_unit_coefficients():
    h1 = _toy_series(3)
    h2 = product_series(h1, h1)
    assert h2 == _cp_product_series(h1, h1)
    # exp(1*log h1 + 0*log h2) = h1
    assert hilb_series(1, 0, 3, h1, h2).terms == h1.terms
    assert hilb_series(0, 1, 3, h1, h2).terms == h2.terms
    # exp(2 log h1 + log h2) = h1^4 through the CP basis; a = -1 inverts h1
    h4 = _cp_product_series(h2, h2)
    assert hilb_series(2, 1, 3, h1, h2) == h4
    zeros = tuple(_class(2 * n, lambda i: 0) for n in (1, 2, 3))
    one = CobordismSeries(3, (ChernVector.point(1),) + zeros)
    assert _cp_product_series(hilb_series(-1, 0, 3, h1, h2), h1) == one
    # Poly exponents specialize to the numeric ones
    a, b = Poly.var("a"), Poly.var("b")
    symbolic = hilb_series(a, b, 3, h1, h2)
    for t, want in zip(symbolic.terms, h4.terms):
        got = {la: Poly.coerce(v).substitute({"a": 2, "b": 1}) for la, v in t.numbers}
        assert got == want.as_dict()


def test_series_dimension_validation():
    with pytest.raises(ValueError):
        CobordismSeries(1, (ChernVector.point(1), ChernVector.point(1)))
