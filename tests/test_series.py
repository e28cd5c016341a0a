from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hilbloc.partitions import count_with_parts
from hilbloc.rings import Poly, binomial
from hilbloc.series import (
    TruncSeries,
    exp_series,
    fg_series,
    geometric,
    partition_product,
    solve_v,
    todd_series,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def series(coeffs, var="z"):
    return TruncSeries(var, len(coeffs) - 1, coeffs)


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


def test_fg_series_poly_parameter():
    y = Poly.var("y")
    g = fg_series("g", y, 1, 3)
    # specializing the symbolic series matches the numeric one
    num = fg_series("g", Fraction(5, 2), 1, 3)
    assert g.substitute_params({"y": Fraction(5, 2)}) == num


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


def test_compose_monomial():
    f = series([1, 1, 1, 1, 1])
    g = f.compose_monomial(Fraction(2), 2)
    assert g.coeffs[0] == 1 and g.coeffs[2] == 2 and g.coeffs[4] == 4
    assert g.coeffs[1] == 0
