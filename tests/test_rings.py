import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc.rings import IntPoly, Poly, binomial, format_fraction, gauss_solve, linear_combination
from hilbloc.series import TruncSeries, fg_series
from profile_counts import example_count

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_poly_basics():
    x, y = Poly.var("x"), Poly.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.substitute({"x": 3, "y": 2}) == 5
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1


def test_poly_zero_terms_dropped():
    x = Poly.var("x")
    assert not (x - x).terms


def test_poly_constant_queries():
    c = Poly.const(Fraction(3, 4))
    assert c.is_constant()
    assert c.as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        Poly.var("x").as_fraction()


def test_coefficient_map():
    y = Poly.var("y")
    p = 2 * y ** 3 + y - 5
    assert p.coefficient_map("y") == {3: Fraction(2), 1: Fraction(1), 0: Fraction(-5)}
    with pytest.raises(ValueError):
        (Poly.var("a") * Poly.var("b")).coefficient_map("a")


@given(st.integers(-30, 30), st.integers(0, 10))
def test_binomial_matches_comb(x, n):
    if x >= 0:
        assert binomial(x, n) == math.comb(x, n)
    # upper negation identity holds for all integers
    assert binomial(x, n) == (-1) ** n * binomial(n - x - 1, n)


def test_binomial_poly_argument():
    y = Poly.var("y")
    p = binomial(y, 2)
    assert p.substitute({"y": 7}) == 21


def test_gauss_solve_known():
    sol = gauss_solve([[2, 1], [1, 3]], [Fraction(5), Fraction(10)])
    assert sol == [Fraction(1), Fraction(3)]


def test_gauss_solve_singular():
    with pytest.raises(ValueError, match="singular"):
        gauss_solve([[1, 2], [2, 4]], [Fraction(1), Fraction(2)])


@given(st.lists(fractions, min_size=3, max_size=3))
def test_gauss_solve_roundtrip(xs):
    m = [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
    rhs = [sum(Fraction(c) * x for c, x in zip(row, xs)) for row in m]
    assert gauss_solve(m, rhs) == [Fraction(x) for x in xs]


@given(fractions)
def test_fraction_roundtrip(q):
    assert Fraction(format_fraction(q)) == q


def test_poly_operators_take_only_exact_scalars():
    y = Poly.var("y")
    for op in (
        lambda: y + 0.1,
        lambda: 0.1 + y,
        lambda: y - 0.1,
        lambda: 0.1 - y,
        lambda: y * 0.1,
        lambda: 0.1 * y,
        lambda: y / 0.1,
        lambda: Poly.const(0.1),
        lambda: Poly({(): 0.1}),
        lambda: Poly({(("y", 1),): 1.0}),
        lambda: y.substitute({"y": 0.5}),
        lambda: binomial(0.5, 2),
        lambda: binomial(0.5, -1),
    ):
        with pytest.raises(TypeError):
            op()


def test_cobordism_and_gauss_solve_take_only_exact_values():
    from hilbloc.cobordism import ChernVector, hilb_series
    from hilbloc.genera import genus_hilb_series, todd_genus

    for op in (
        lambda: hilb_series(0.1, 24, 1),
        lambda: genus_hilb_series(todd_genus(2), 9, 3.0, 1),
        lambda: ChernVector.point(0.5),
        lambda: gauss_solve([[0.1]], [1]),
        lambda: gauss_solve([[2]], [0.5]),
    ):
        with pytest.raises(TypeError):
            op()


def test_series_take_only_exact_coefficients():
    f = TruncSeries.one("z", 2)
    for op in (
        lambda: TruncSeries("z", 1, [0.1, 1]),
        lambda: TruncSeries("z", 1, [1, 1.0]),
        lambda: f + 0.1,
        lambda: 0.1 + f,
        lambda: f - 0.1,
        lambda: 0.1 - f,
        lambda: f * 0.1,
        lambda: 0.1 * f,
        lambda: f / 0.1,
        lambda: 0.1 / f,
        lambda: f + "1",
        lambda: f * [1],
        lambda: f.pow(0.5),
        lambda: fg_series("f", 0.5, 1, 2),
        lambda: fg_series("g", 2.0, 1, 2),
    ):
        with pytest.raises(TypeError):
            op()
    for other in (0.1, "1", None):
        assert f.__add__(other) is NotImplemented
        assert f.__sub__(other) is NotImplemented
        assert f.__mul__(other) is NotImplemented
    # exact scalars still mix in
    assert f - 1 == TruncSeries.zero("z", 2)
    assert f * Fraction(1, 3) + Fraction(2, 3) == f


def test_poly_minus_series_reaches_the_series():
    y = Poly.var("y")
    f = TruncSeries("z", 2, [1, 2, Fraction(1, 3)])
    assert y - f == TruncSeries("z", 2, [y - 1, -2, Fraction(-1, 3)])
    assert f - y == TruncSeries("z", 2, [1 - y, 2, Fraction(1, 3)])


def merge_reference(m1, m2):
    """m1 * m2 through a dict and a sort."""
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


# sorted monomials in u, x, y with positive exponents (Poly's invariant), the
# empty one included
exponents = st.integers(1, 4)
monomials = st.dictionaries(st.sampled_from("uxy"), exponents, max_size=3).map(lambda d: tuple(sorted(d.items())))


@pytest.mark.ci_examples
@settings(max_examples=example_count(200), deadline=None)
@given(monomials, monomials, st.sampled_from("uxy"), exponents, exponents)
def test_merge_monomials_matches_dict_and_sort(m1, m2, v, e1, e2):
    # Poly x Poly on packed keys: any pair, pairs with the empty monomial, and
    # two powers of one variable
    for a, b in ((m1, m2), (m1, ()), ((), m1), (((v, e1),), ((v, e2),))):
        ((merged, c),) = (Poly({a: 2}) * Poly({b: Fraction(3, 5)})).terms.items()
        assert type(merged) is tuple and merged == merge_reference(a, b)
        assert type(c) is Fraction and c == Fraction(6, 5)


KEY_BOUND = 1 << 31  # the first exponent a packed monomial key refuses


def test_poly_product_refuses_an_exponent_a_key_cannot_hold():
    # two exponents below 2^31 add without a carry into the next field
    top = Poly({(("x", KEY_BOUND - 1), ("y", 1)): 1})
    assert (top * top).terms == {(("x", 2 * KEY_BOUND - 2), ("y", 2)): 1}
    for big in (Poly({(("x", KEY_BOUND),): 1}), Poly({(("u", 1), ("x", KEY_BOUND)): 1})):
        for a, b in ((big, top), (top, big)):
            with pytest.raises(ValueError, match="cannot be packed"):
                a * b
    # a power of one term multiplies no keys
    assert (-Poly.var("x")) ** (2 * KEY_BOUND + 1) == Poly({(("x", 2 * KEY_BOUND + 1),): -1})


def _is_valid(p) -> bool:
    """The representation invariant: only nonzero Fraction values."""
    return isinstance(p, Poly) and all(type(c) is Fraction and c != 0 for c in p.terms.values())


# polynomials in x and y, with terms that cancel when two of them are combined
polys = st.dictionaries(
    st.sampled_from([(), (("x", 1),), (("y", 2),), (("x", 1), ("y", 1)), (("x", 2), ("y", 1))]),
    st.one_of(st.integers(-3, 3), fractions),
    max_size=5,
).map(Poly)
scalars = st.one_of(st.integers(-4, 4), fractions)


@pytest.mark.ci_examples
@settings(deadline=None)
@given(polys, polys, scalars, scalars, st.integers(0, 4))
def test_poly_results_store_only_nonzero_fractions(p, q, c, d, k):
    results = [
        p + q, p - q, p + c, c + p, p - c, c - p, -p, p * q, p * c, c * p, p ** k,
        binomial(p, k), p.substitute({"x": q}), p.substitute({"x": c}), p.substitute({"x": c, "y": q}),
        linear_combination([(p, c), (d, k), (q, d)]),
    ]
    if c:
        results += [p / c, p / Poly.const(c)]
    scalar = p.substitute({"x": c, "y": d})
    results.append(scalar)
    assert all(_is_valid(r) for r in results if isinstance(r, Poly))
    # the all-scalar substitution equals the Poly.const result of the general path
    general = p.substitute({"x": Poly.const(c), "y": Poly.const(d)})
    assert scalar.is_constant() and scalar == general
    assert p(x=c, y=d) == general.as_fraction()


# IntPoly keys here pack x in bits 0-7 and y in bits 8-15
X, Y = 1, 1 << 8


def _as_poly(p: IntPoly) -> Poly:
    """The Poly of an IntPoly, term for term in its order."""
    return Poly({tuple((v, e) for v, e in (("x", k & 255), ("y", k >> 8)) if e): c for k, c in p.terms.items()})


def _product_reference(a: IntPoly, b: IntPoly) -> dict:
    """a * b as the full dict over the pairs of terms, then the zeros dropped."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


int_polys = st.dictionaries(st.sampled_from([0, X, Y, X + Y, 2 * X, 2 * Y]), st.integers(-3, 3).filter(bool),
                            max_size=5).map(IntPoly)


@settings(deadline=None)
@given(int_polys, int_polys)
def test_int_poly_keeps_the_term_order_of_poly(a, b):
    # sums put the left operand first, products list terms by first appearance,
    # and cancelled terms are dropped, exactly as the same Polys do
    for got, want in ((a + b, _as_poly(a) + _as_poly(b)), (a * b, _as_poly(a) * _as_poly(b)), (-a, -_as_poly(a))):
        assert list(_as_poly(got).terms.items()) == list(want.terms.items())
        assert all(got.terms.values())
    assert list((a * b).terms.items()) == list(_product_reference(a, b).items())


def test_int_poly_sums_products_and_division():
    p = IntPoly({X: 2, Y: 3})
    assert list((p + IntPoly({Y: -3, 2 * X: 5})).terms.items()) == [(X, 2), (2 * X, 5)]
    assert list((IntPoly({Y: -3, 2 * X: 5}) + p).terms.items()) == [(2 * X, 5), (X, 2)]
    assert list((p + 4).terms.items()) == [(X, 2), (Y, 3), (0, 4)]
    # (x + y)(x - y): the xy terms cancel and are dropped
    assert list((IntPoly({X: 1, Y: 1}) * IntPoly({X: 1, Y: -1})).terms.items()) == [(2 * X, 1), (2 * Y, -1)]
    # nothing cancels in (x + y)^2: the dict kept is the filtered one
    square = IntPoly({X: 1, Y: 1}) * IntPoly({X: 1, Y: 1})
    assert list(square.terms.items()) == [(2 * X, 1), (X + Y, 2), (2 * Y, 1)]
    assert square.terms == _product_reference(IntPoly({X: 1, Y: 1}), IntPoly({X: 1, Y: 1}))
    assert 0 + p is p and p + 0 is p
    for zero in (p * 0, 0 * p):
        assert type(zero) is IntPoly and zero.terms == {} and not zero
    assert (IntPoly({X: 6, Y: -4}) // 2).terms == {X: 3, Y: -2}
    # Fraction values
    q = IntPoly({X: Fraction(1, 2)}) * IntPoly({X: Fraction(2, 3), Y: Fraction(-1, 2)})
    assert list(q.terms.items()) == [(2 * X, Fraction(1, 3)), (X + Y, Fraction(-1, 4))]
    assert all(type(c) is Fraction for c in q.terms.values())
