from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hilbloc.rings import Poly, binomial
from hilbloc.series import (
    TruncSeries,
    exp_series,
    fg_identities,
    fg_series,
    geometric,
    partition_product,
    solve_v,
    todd_series,
)
from partition_counts import count_with_parts
from profile_counts import example_count
from test_rings import merge_reference

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def series(coeffs, var="z"):
    return TruncSeries(var, len(coeffs) - 1, coeffs)


def substitute_params(f, assignment):
    """f with values substituted for the Poly parameters of its coefficients."""
    cs = []
    for c in f.coeffs:
        if isinstance(c, Poly):
            v = c.substitute(assignment)
            cs.append(v.as_fraction() if v.is_constant() else v)
        else:
            cs.append(c)
    return TruncSeries(f.var, f.order, cs)


def test_equal_series_hash_equal():
    a = TruncSeries("x", 3, [1, Fraction(1, 2), 0, 5])
    b = TruncSeries("x", 3, [Poly.const(1), Fraction(1, 2), 0, Poly.const(5)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, series([1, Fraction(1, 2), 0, 5], "x")}) == 1
    # equality compares variable, order and every coefficient
    assert TruncSeries("x", 2, [1, 1]) != TruncSeries("x", 3, [1, 1, 0, 5])
    assert TruncSeries("x", 2, [1, 1]) != TruncSeries("y", 2, [1, 1])
    assert len({TruncSeries("x", 2, [1, 1]), TruncSeries("x", 3, [1, 1]), TruncSeries("y", 2, [1, 1])}) == 3


def test_agrees_to_compares_through_an_order():
    a, b = TruncSeries("x", 2, [1, 1]), TruncSeries("x", 3, [1, 1, 0, 5])
    assert a.agrees_to(b, 2) and b.agrees_to(a, 1)
    assert not b.agrees_to(TruncSeries("x", 3, [1, 1, 0, 4]), 3)
    with pytest.raises(ValueError, match="beyond the known orders"):
        a.agrees_to(b, 3)
    with pytest.raises(ValueError, match="variable mismatch"):
        a.agrees_to(TruncSeries("y", 2, [1, 1]), 1)


def test_arithmetic_truncates_to_common_order():
    a = series([1, 2, 3, 4])
    b = TruncSeries("z", 2, [1, 1, 1])
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_geometric_inverse():
    g = geometric("z", 10)
    assert g * (1 - TruncSeries.x("z", 10)) == TruncSeries.one("z", 10)


def test_todd_known_coefficients():
    td = todd_series("x", 6)
    assert td.coeffs[:5] == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    )


@given(st.lists(fractions, min_size=1, max_size=6))
def test_exp_log_roundtrip(cs):
    f = TruncSeries("z", len(cs), [0] + cs)
    assert f.exp().log() == f


@given(st.lists(fractions, min_size=1, max_size=6))
def test_inverse_roundtrip(cs):
    f = TruncSeries("z", len(cs), [1] + cs)
    assert f * f.inverse() == TruncSeries.one("z", len(cs))


def test_log_requires_unit():
    with pytest.raises(ValueError):
        series([0, 1]).log()
    with pytest.raises(ZeroDivisionError):
        series([0, 1]).inverse()


def test_pow_fractional():
    f = series([1, 2, 1])  # (1+z)^2
    assert f.pow(Fraction(1, 2)) == series([1, 1, 0])


def test_derivative_integral():
    f = series([0, 1, 2, 3])
    assert f.derivative().integral() == f
    # integral gains one order
    assert f.integral().order == f.order + 1


def test_solve_v_functional_equation():
    for a in range(5):
        v = solve_v(a, 12)
        lhs = v * (v + 1).pow(a)
        assert lhs == TruncSeries.x("z", 12)


def test_solve_v_lagrange_coefficients():
    # a = 1: v = (1 - sqrt(1-4z))/2 - Catalan-like alternating coefficients
    v = solve_v(1, 6)
    cats = [0, 1, -1, 2, -5, 14, -42]
    assert list(v.coeffs) == [Fraction(c) for c in cats]


@pytest.mark.parametrize("a, bad_n", [(0, 1), (2, 3), (5, 12)])
def test_solve_v_rejects_a_wrong_lagrange_coefficient(monkeypatch, a, bad_n):
    import hilbloc.series as series

    def perturbed(x, k):
        value = binomial(x, k)
        return value + 1 if x == -a * bad_n and k == bad_n - 1 else value

    monkeypatch.setattr(series, "binomial", perturbed)
    with pytest.raises(AssertionError, match="Lagrange inversion"):
        solve_v(a, 12)


def test_fg_series_f_coefficients():
    f = fg_series("f", 7, 2, 4)
    for n in range(5):
        assert f[n] == binomial(Fraction(7 - 2 * (n - 1)), n)


def test_fg_series_g_pole_cancels():
    # y = a*n hits the apparent pole of the raw formula; the cancelled form
    # stays finite and satisfies g_{1,a} = 1 + v
    g = fg_series("g", 1, 1, 6)
    v = solve_v(1, 6)
    assert g == v + 1
    # against the raw formula at a pole-free point: y/(y-an) C(y-an, n)
    y, a = Fraction(7, 3), 2
    g = fg_series("g", y, a, 5)
    for n in range(1, 6):
        raw = y / (y - a * n) * binomial(y - a * n, n)
        assert g[n] == raw


def test_binomial_and_fg_series_name_a_non_rational_argument():
    # the power-series lemma is about numbers y: a Poly argument is refused, and the error names it
    y = Poly.var("y")
    with pytest.raises(TypeError, match="^binomial: x must be rational"):
        binomial(y, 2)
    for kind in "fg":
        with pytest.raises(TypeError, match="^fg_series: y must be rational"):
            fg_series(kind, y, 1, 3)


def test_fg_identities_names_a_non_rational_y():
    # g_{1,a}^y needs a rational exponent: the error names y before any series is built
    for y in (Poly.var("y"), 0.5, "2"):
        with pytest.raises(TypeError, match="y must be rational"):
            fg_identities(2, [1, y], 30)
    holds = dict.fromkeys(("f0_closed_form", "g_is_g1_pow_y", "f_is_g1_pow_y_times_f0", "g_prime"), True)
    assert fg_identities(1, (y for y in (2, Fraction(1, 2))), 4) == [holds, holds]


def partition_double_sum(eps: int, order: int) -> TruncSeries:
    """sum_{n,r} p(n,r) y^{n+eps*r} z^n, the oracle form of partition_product."""
    coeffs = []
    for n in range(order + 1):
        acc = Poly.const(0)
        for r in range(n + 1):
            c = count_with_parts(n, r)
            if c:
                acc = acc + c * Poly.var("y", n + eps * r)
        coeffs.append(acc)
    return TruncSeries("z", order, coeffs)


def test_partition_product_matches_double_sum():
    for eps in (-1, 0, 1):
        prod = partition_product(((eps, 1),), 8)
        assert prod == partition_double_sum(eps, 8)


# -- oracle: the generic coefficient loops, kept here as they stood before
# the integer kernels replaced them.  Coefficient lists in, lists out.  Two
# Polys multiply in `times`, not in Poly * Poly, which runs on the packed
# kernel under test.


def times(a, b):
    """a * b; for two Polys, summed over the pairs of their terms on tuple
    monomials (`merge_reference`), terms listed by first appearance over the
    pairs and zeros dropped, the order in which Poly lists a product's terms."""
    if not (isinstance(a, Poly) and isinstance(b, Poly)):
        return a * b
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = merge_reference(m1, m2)
            terms[m] = terms.get(m, 0) + c1 * c2
    return Poly(terms)


def oracle_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        if not a[i]:
            continue
        for j in range(n + 1 - i):
            if b[j]:
                out[i + j] = out[i + j] + times(a[i], b[j])
    return out


def oracle_inverse(cs):
    inv0 = 1 / Poly.coerce(cs[0]).as_fraction()  # the loop divides by the value of a constant Poly
    out = [inv0] + [Fraction(0)] * (len(cs) - 1)
    for n in range(1, len(cs)):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if cs[k]:
                acc = acc + times(cs[k], out[n - k])
        out[n] = -inv0 * acc
    return out


def oracle_exp(cs):
    kc = [k * c for k, c in enumerate(cs)]
    out = [Fraction(1)] + [Fraction(0)] * (len(cs) - 1)
    for m in range(1, len(cs)):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if kc[k]:
                acc = acc + times(kc[k], out[m - k])
        out[m] = acc / m
    return out


def oracle_log(cs):
    if len(cs) == 1:
        return [Fraction(0)]
    deriv = [cs[i] * i for i in range(1, len(cs))]
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(oracle_mul(deriv, oracle_inverse(cs[:-1])))]


def oracle_pow(cs, e):
    if e.denominator == 1 and 0 < e.numerator < len(cs):
        out = cs
        for _ in range(e.numerator - 1):
            out = oracle_mul(out, cs)
        return out
    return oracle_exp([c * e for c in oracle_log(cs)])


# zero coefficients, small fractions and 40-digit numerators and denominators
wide = st.one_of(
    st.just(Fraction(0)),
    fractions,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)
unit_free = st.lists(wide, min_size=0, max_size=8)


@pytest.mark.ci_examples
@settings(max_examples=example_count(150), deadline=None)
@given(unit_free, unit_free, wide.filter(bool))
def test_integer_kernels_match_generic_loops(cs, ds, c0):
    f = TruncSeries("z", len(cs), [c0] + cs)  # c0 is any nonzero rational
    g = TruncSeries("z", len(ds), [Fraction(0)] + ds)
    n = min(f.order, g.order)
    assert list((f * g).coeffs) == oracle_mul(f.coeffs, g.coeffs)[: n + 1]
    assert list(f.inverse().coeffs) == oracle_inverse(list(f.coeffs))
    assert list(g.exp().coeffs) == oracle_exp(list(g.coeffs))
    unit = f * (1 / c0)
    assert list(unit.log().coeffs) == oracle_log(list(unit.coeffs))
    for e in (Fraction(2), Fraction(3), Fraction(-2), Fraction(-1, 2), Fraction(7, 3), Fraction(10**40, 3)):
        assert list(unit.pow(e).coeffs) == oracle_pow(list(unit.coeffs), e)


def shape(cs):
    """Type, value and term order of each coefficient: the kernels give what
    the generic loops give, down to the order in which a Poly lists its terms."""
    return [(type(c), tuple(c.terms.items())) if isinstance(c, Poly) else (type(c), c) for c in cs]


def poly_in(var, min_size=0):
    """Polys in var with wide coefficients, constant and zero ones included
    unless min_size asks for more terms; coefficients +-1 make terms cancel
    in sums and products."""
    coeff = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), wide)
    return st.dictionaries(st.integers(0, 3), coeff, min_size=min_size, max_size=3).map(
        lambda d: Poly({((var, e),) if e else (): c for e, c in d.items()})
    )


def poly_yu(min_size=0):
    """Polys with terms among 1, y, u, y*u and y^2 and coefficients drawn as in
    `poly_in`."""
    monomial = st.sampled_from([(), (("y", 1),), (("u", 1),), (("u", 1), ("y", 1)), (("y", 2),)])
    coeff = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), wide)
    return st.dictionaries(monomial, coeff, min_size=min_size, max_size=4).map(Poly)


univariate = st.lists(st.one_of(wide, poly_in("y")), min_size=0, max_size=6)
bivariate = st.lists(st.one_of(wide, poly_yu()), min_size=0, max_size=6)


@pytest.mark.ci_examples
@settings(deadline=None)
@given(st.one_of(univariate, bivariate), st.one_of(univariate, bivariate), wide.filter(bool))
def test_univariate_kernels_match_generic_loops(cs, ds, c0):
    f = TruncSeries("z", len(cs), [c0] + cs)  # scalar c0, so f is a unit
    g = TruncSeries("z", len(ds), [Fraction(0)] + ds)
    n = min(f.order, g.order)
    assert shape((f * g).coeffs) == shape(oracle_mul(f.coeffs, g.coeffs)[: n + 1])
    assert shape(f.inverse().coeffs) == shape(oracle_inverse(list(f.coeffs)))
    assert shape(g.exp().coeffs) == shape(oracle_exp(list(g.coeffs)))
    unit = f * (1 / c0)
    assert shape(unit.log().coeffs) == shape(oracle_log(list(unit.coeffs)))
    for e in (Fraction(2), Fraction(-1, 2), Fraction(7, 3)):
        assert shape(unit.pow(e).coeffs) == shape(oracle_pow(list(unit.coeffs), e))


exponents = st.one_of(
    st.integers(3, 12).map(Fraction),
    st.integers(-12, -1).map(Fraction),
    fractions,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@pytest.mark.ci_examples
@settings(max_examples=example_count(100), deadline=None)
@given(st.one_of(unit_free, univariate, bivariate), exponents)
def test_pow_and_log_kernels_match_generic_loops(cs, e):
    unit = TruncSeries("z", len(cs), [Fraction(1)] + cs)
    assert shape(unit.log().coeffs) == shape(oracle_log(list(unit.coeffs)))
    assert shape(unit.pow(e).coeffs) == shape(oracle_pow(list(unit.coeffs), e))


@pytest.mark.ci_examples
@settings(max_examples=example_count(100), deadline=None)
@given(st.sampled_from("fg"), st.integers(0, 12), st.integers(0, 12), st.data())
def test_fg_series_integer_path_matches_binomial_formula(kind, a, order, data):
    # y = a n is the cancelled pole of the g coefficient at z^n
    y = data.draw(st.one_of(st.just(Fraction(0)), st.integers(0, order).map(lambda n: Fraction(a * n)), wide))
    if kind == "f":
        expected = [binomial(y - a * (n - 1), n) for n in range(1, order + 1)]
    else:
        expected = [y * binomial(y - a * n - 1, n - 1) / n for n in range(1, order + 1)]
    assert shape(fg_series(kind, y, a, order).coeffs) == shape([Fraction(1)] + expected)


@pytest.mark.ci_examples
@settings(max_examples=example_count(100), deadline=None)
@given(
    st.one_of(unit_free, univariate, bivariate, st.lists(poly_in("y", 2), min_size=1, max_size=4)),
    st.one_of(
        poly_in("y", 2), st.sampled_from("yu").flatmap(poly_in), poly_yu(2), wide,
        st.integers(-(10**40), 10**40),
    ),
)
def test_series_times_poly_scalar_matches_generic_loop(cs, s):
    # two-term Polys fix a term order; a scalar in u beside Polys in y, a
    # constant Poly, an int and a Fraction all run through the same kernel
    f = TruncSeries("z", len(cs), [Fraction(1)] + cs)
    assert shape((f * s).coeffs) == shape([times(c, s) for c in f.coeffs])
    assert shape((s * f).coeffs) == shape([times(c, s) for c in f.coeffs])


def test_univariate_kernels_drop_cancelled_terms():
    y = Poly.var("y")
    f = TruncSeries("z", 3, [1, 1 + y, 0, -y])
    g = TruncSeries("z", 3, [0, 1 - y, 0, y * y])  # (1 + y)(1 - y) = 1 - y^2
    assert (f * g)[2] == 1 - y * y
    assert shape((f * g).coeffs) == shape(oracle_mul(f.coeffs, g.coeffs))
    assert shape(f.inverse().coeffs) == shape(oracle_inverse(list(f.coeffs)))
    assert shape(g.exp().coeffs) == shape(oracle_exp(list(g.coeffs)))


@pytest.mark.ci_examples
def test_two_variable_coefficients_match_generic_loops():
    y, u = Poly.var("y"), Poly.var("u")
    f = TruncSeries("z", 4, [Fraction(2), y, Fraction(1, 3) * u, y * u - 1, u * u])
    g = TruncSeries("z", 4, [0, u, Fraction(-5, 7), y, Fraction(1, 10**40)])
    h = TruncSeries("z", 4, [0, y * u, 0, Fraction(2, 9), y])
    assert shape((f * g).coeffs) == shape(oracle_mul(f.coeffs, g.coeffs))
    assert shape(f.inverse().coeffs) == shape(oracle_inverse(list(f.coeffs)))
    assert shape(h.exp().coeffs) == shape(oracle_exp(list(h.coeffs)))
    unit = f * Fraction(1, 2)
    assert shape(unit.log().coeffs) == shape(oracle_log(list(unit.coeffs)))
    assert shape(unit.pow(Fraction(-3, 2)).coeffs) == shape(oracle_pow(list(unit.coeffs), Fraction(-3, 2)))
    at = {"y": Fraction(-3, 4), "u": Fraction(5)}
    assert substitute_params(f * g, at) == substitute_params(f, at) * substitute_params(g, at)


@pytest.mark.parametrize("c0", [Fraction(-1), Fraction(3), Fraction(-7, 5), Fraction(10**40 + 1, 10**39)])
def test_inverse_of_non_unit_constant_term(c0):
    f = TruncSeries("z", 6, [c0, 0, Fraction(2, 3), 0, -5, Fraction(1, 10**40)])
    inv = f.inverse()
    assert list(inv.coeffs) == oracle_inverse(list(f.coeffs))
    assert f * inv == TruncSeries.one("z", 6)


def falling_product(p, q, start, count):
    """prod_{i<count} (p/q - start - i), one exact factor at a time."""
    out = Fraction(1)
    for i in range(count):
        out *= Fraction(p, q) - start - i
    return out


@pytest.mark.parametrize(
    "p, q",
    [(0, 1), (-3, 1), (-7, 2), (10**39 + 7, 10**40 - 3), (-(10**40 - 1), 10**39 + 1)],
)
def test_fg_series_and_binomial_against_product_formula(p, q):
    y, a, order = Fraction(p, q), 3, 9
    f, g = fg_series("f", y, a, order), fg_series("g", y, a, order)
    assert f[0] == g[0] == 1
    for n in range(1, order + 1):
        assert f[n] == falling_product(p, q, a * (n - 1), n) / factorial(n)
        assert g[n] == y * falling_product(p, q, a * n + 1, n - 1) / factorial(n)
        assert binomial(y, n) == falling_product(p, q, 0, n) / factorial(n)
    assert binomial(y, 0) == 1 and binomial(y, -1) == 0
    assert binomial(-4, 3) == Fraction(-20)  # an int argument gives a Fraction
    assert isinstance(binomial(5, 2), Fraction)


def test_mixed_poly_fraction_series_stay_exact():
    y = Poly.var("y")
    f = TruncSeries("z", 5, [1, y, Fraction(1, 3), 0, y * y - 2, Fraction(-5, 7)])
    g = TruncSeries("z", 5, [Fraction(2), Fraction(1, 10**40), 0, 3, Fraction(-1, 6), 1])
    h = TruncSeries("z", 5, [0, Fraction(1, 2), y, 0, 1, Fraction(2, 9)])
    assert list((f * g).coeffs) == oracle_mul(f.coeffs, g.coeffs)
    assert list(f.inverse().coeffs) == oracle_inverse(list(f.coeffs))
    assert list(h.exp().coeffs) == oracle_exp(list(h.coeffs))
    at = {"y": Fraction(-3, 4)}
    assert substitute_params(f * g, at) == substitute_params(f, at) * g
    assert substitute_params(f.inverse(), at) == substitute_params(f, at).inverse()
    assert substitute_params(h.exp(), at) == substitute_params(h, at).exp()
    assert substitute_params(f.pow(Fraction(5, 2)), at) == substitute_params(f, at).pow(Fraction(5, 2))


def test_kernel_error_gates_are_kept():
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        series([0, Fraction(1, 3), 2]).inverse()
    with pytest.raises(ZeroDivisionError, match="constant term not scalar"):
        series([Poly.var("y"), 1]).inverse()
    with pytest.raises(ValueError, match="exp requires zero constant term"):
        series([Fraction(1, 10**40), 1]).exp()
    with pytest.raises(ValueError, match="log requires constant term 1"):
        series([2, 1]).log()
    with pytest.raises(ValueError, match="pow requires constant term 1"):
        series([-1, 1]).pow(Fraction(1, 2))


# -- packed monomial keys: the kernels against the tuple-key loops of Poly ----------

PACK_BOUND = 1 << 24  # the first exponent a monomial key refuses


def poly_3(min_size=0, near_bound=True):
    """Polys in up to three of beta3, u and y, with exponents 1..3 or (with
    near_bound) just below 2^24, and coefficients drawn as in `poly_in`."""
    exponent = st.integers(1, 3)
    if near_bound:
        exponent = st.one_of(exponent, st.integers(PACK_BOUND - 3, PACK_BOUND - 1))
    monomial = st.dictionaries(st.sampled_from(["beta3", "u", "y"]), exponent, max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )
    coeff = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), wide)
    return st.dictionaries(monomial, coeff, min_size=min_size, max_size=4).map(Poly)


trivariate = st.lists(st.one_of(wide, poly_3()), min_size=0, max_size=5)


@pytest.mark.ci_examples
@settings(max_examples=example_count(100), deadline=None)
@given(trivariate, trivariate, wide.filter(bool), st.one_of(poly_3(1), wide))
def test_packed_keys_match_tuple_key_loops(cs, ds, c0, s):
    # each kernel on inputs with exponents below 2^24: a product of up to
    # `order` numerators per term, so fields near 2^24 must not carry
    f = TruncSeries("z", len(cs), [c0] + cs)  # scalar c0, so f is a unit
    g = TruncSeries("z", len(ds), [Fraction(0)] + ds)
    n = min(f.order, g.order)
    assert shape((f * g).coeffs) == shape(oracle_mul(f.coeffs, g.coeffs)[: n + 1])
    assert shape((f * s).coeffs) == shape([times(c, s) for c in f.coeffs])
    assert shape(f.inverse().coeffs) == shape(oracle_inverse(list(f.coeffs)))
    assert shape(g.exp().coeffs) == shape(oracle_exp(list(g.coeffs)))


def test_packed_keys_refuse_exponents_that_could_carry():
    y = Poly.var("y")
    top = PACK_BOUND - 1
    f = series([1, y ** top])
    assert (f * f)[1] == 2 * y ** top
    with pytest.raises(ValueError, match="cannot be packed"):
        series([1, y ** PACK_BOUND]) * f
    with pytest.raises(ValueError, match="cannot be packed"):
        f * (y ** PACK_BOUND)
    # at order 255 a term multiplies at most 255 numerators: 255 (2^24 - 1) < 2^32
    inv = TruncSeries("z", 255, [1, y ** top]).inverse()
    assert all(inv[k] == (-1) ** k * y ** (k * top) for k in (0, 1, 128, 255))
    # beyond order 255 the largest exponent times the order must stay below 2^32
    assert TruncSeries("z", 300, [1, y]).inverse()[300] == y**300
    with pytest.raises(ValueError, match="would pass 2\\^32"):
        TruncSeries("z", 300, [1, y ** top]).inverse()


def test_packed_keys_refuse_an_exponent_formed_by_a_kernel():
    # y^(2^23) squared forms y^(2^24) inside a product: the result is lowered
    # to its Polys, which can still be read, compared and hashed, but every
    # further operation must refuse its integer form, also inside log and
    # pow, whose intermediate series only kernels read
    y = Poly.var("y")
    half = y ** (PACK_BOUND // 2)
    f = TruncSeries("z", 2, [1, half])
    square = f * f
    assert square[2] == y ** PACK_BOUND
    chains = [
        lambda: square * f,
        lambda: f * square,
        lambda: square * y,
        lambda: square.inverse(),
        lambda: (-square).truncate(2).derivative() * f,
        lambda: f * f * f,
        lambda: f.pow(Fraction(3)),
        lambda: f.pow(Fraction(1, 2)),
        lambda: f.log() * f,
        lambda: (f.log() * 2).exp(),
        lambda: -square,
        lambda: square + 1,
        lambda: square.truncate(1),
        lambda: square.derivative(),
        lambda: square.integral(),
        lambda: f + y**PACK_BOUND,
    ]
    for chain in chains:
        with pytest.raises(ValueError, match="cannot be packed"):
            chain()
    assert square[2] == y**PACK_BOUND and square.coeffs[1] == 2 * half
    assert square == square and hash(square) == hash(TruncSeries("z", 2, square.coeffs))
    # to z^1 no product reaches 2^24
    g = TruncSeries("z", 1, [1, half])
    assert (g * g * g).pow(Fraction(1, 2))[1] == Fraction(3, 2) * half


def test_integer_form_of_a_series_is_built_once(monkeypatch):
    # an operation stores the integer form it reads: log reads h through its
    # derivative and its truncation, and a sum with a Poly scalar forms the
    # scalar's through the same `_int_form`
    import hilbloc.series as series

    calls = []

    def counted(cs):
        calls.append(tuple(cs))
        return int_form(cs)

    int_form = series._int_form
    monkeypatch.setattr(series, "_int_form", counted)
    y = Poly.var("y")
    h = TruncSeries("z", 4, [1, y, y**2, 3 * y, y + 1])
    h.log()
    assert calls == [h.coeffs]
    calls.clear()
    h = TruncSeries("z", 4, [1, y, y**2, 3 * y, y + 1])
    (h + y) * h
    assert sorted(calls, key=len) == [(y,), h.coeffs]


def test_kernel_zero_equals_an_empty_poly_coefficient():
    # a kernel leaves z^0 of this product as the int 0, a Fraction; built from
    # coefficients the same series holds the empty Poly there
    y = Poly.var("y")
    made = TruncSeries("z", 2, [1, 0, y]) * TruncSeries("z", 2, [0, 0, y])
    built = TruncSeries("z", 2, [Poly(), Fraction(0), y])
    assert type(made[0]) is Fraction and type(built[0]) is Poly
    assert built * TruncSeries.one("z", 2) == made  # built's integer form is now read too
    assert made == built and built == made and hash(made) == hash(built)
    assert made.agrees_to(built, 2) and built.agrees_to(made, 2)
    assert len({made, built}) == 1


def test_rationals_left_of_a_kernel_made_poly_series_are_in_normal_form():
    # the derivative drops the one Poly, y/3, and a truncation drops y/3 at
    # z^2: what is left compares and hashes as the series built from it
    y = Poly.var("y")
    one = TruncSeries.one("z", 2)
    d = (TruncSeries("z", 2, [y / 3, 0, Fraction(3, 2)]) * one).derivative()
    t = (TruncSeries("z", 2, [1, Fraction(3, 2), y / 3]) * one).truncate(1)
    for made, coeffs in ((d, [0, 3]), (t, [1, Fraction(3, 2)])):
        built = TruncSeries("z", 1, coeffs)
        assert shape(made.coeffs) == shape(built.coeffs)
        assert made == built and hash(made) == hash(built)


# -- the stored form: kernel results fed to further operations --------------------


def oracle_derivative(cs):
    return [cs[i] * i for i in range(1, len(cs))] or [Fraction(0)]


def oracle_integral(cs):
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(cs)]


def check_stored(r, expected):
    """r has the value, type and term order of the coefficient loops'
    expected, element by element too; it equals, agrees with and hashes as
    the series built from expected, and as that series with every Fraction
    a constant Poly."""
    assert shape(r.coeffs) == shape(expected)
    assert shape([r[i] for i in range(r.order + 1)]) == shape(expected)
    built = TruncSeries(r.var, r.order, expected)
    const = TruncSeries(r.var, r.order, [Poly.const(c) if isinstance(c, Fraction) else c for c in expected])
    for other in (built, const):
        assert r == other and other == r and hash(r) == hash(other)
        assert r.agrees_to(other, r.order) and other.agrees_to(r, r.order)
    changed = list(expected)
    changed[-1] = changed[-1] + 1
    assert r != TruncSeries(r.var, r.order, changed)
    assert not r.agrees_to(TruncSeries(r.var, r.order, changed), r.order)
    assert r.order == 0 or r.agrees_to(TruncSeries(r.var, r.order, changed), r.order - 1)
    return r


STEPS = ("mul", "scalar", "add", "inverse", "exp", "log", "pow", "calculus", "truncate")
stored_coeffs = st.lists(st.one_of(wide, poly_in("y"), poly_yu(), poly_3(near_bound=False)), min_size=0, max_size=4)


@pytest.mark.ci_examples
@settings(max_examples=example_count(60), deadline=None)
@given(
    st.one_of(unit_free.map(lambda cs: cs[:4]), stored_coeffs),
    st.one_of(unit_free.map(lambda cs: cs[:4]), stored_coeffs),
    wide.filter(bool),
    st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.one_of(wide, st.integers(-5, 5), poly_in("y"), poly_3(near_bound=False)),
            st.sampled_from([Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(7, 3), Fraction(-3)]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_stored_form_matches_generic_loops(cs, ds, c0, steps):
    # each step reads series that earlier kernels made and stored: f a unit
    # with a scalar constant term, g with constant term 0
    f = check_stored(TruncSeries("z", len(cs), [c0] + cs), [c0] + cs)
    g = check_stored(TruncSeries("z", len(ds), [Fraction(0)] + ds), [Fraction(0)] + ds)
    for step, s, e in steps:
        if step == "mul":
            n = min(f.order, g.order)
            square = check_stored(f * f, oracle_mul(f.coeffs, f.coeffs))
            f, g = square, check_stored(f * g, oracle_mul(f.coeffs, g.coeffs)[: n + 1])
        elif step == "scalar":
            g = check_stored(g * s, [times(c, s) for c in g.coeffs])
        elif step == "add":
            total = check_stored(f + g, [a + b for a, b in zip(f.coeffs, g.coeffs)])
            f, g = total, check_stored(-g, [-c for c in g.coeffs])
        elif step == "inverse":  # the loop divides by the value of a constant Poly
            f = check_stored(f.inverse(), oracle_inverse([Poly.coerce(f[0]).as_fraction(), *f.coeffs[1:]]))
        elif step == "exp":
            f = check_stored(g.exp(), oracle_exp(list(g.coeffs)))
        else:
            scale = 1 / Poly.coerce(f[0]).as_fraction()
            unit = check_stored(f * scale, [c * scale for c in f.coeffs])
            if step == "log":
                g = check_stored(unit.log(), oracle_log(list(unit.coeffs)))
            elif step == "pow":
                f = check_stored(unit.pow(e), oracle_pow(list(unit.coeffs), e))
            elif step == "calculus":
                check_stored(f.derivative(), oracle_derivative(f.coeffs))
                d = check_stored(g.derivative(), oracle_derivative(g.coeffs))
                g = check_stored(d.integral(), oracle_integral(d.coeffs))
            else:
                k = max(f.order, g.order, 1) - 1
                f = check_stored(f.truncate(k), list(f.coeffs[: k + 1]))
                g = check_stored(g.truncate(k), list(g.coeffs[: k + 1]))
