import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbloc import universal
from hilbloc.genera import phi_nk_closed_form
from hilbloc.localization import TautClass, chi_via_RR
from hilbloc.rings import Poly, binomial, linear_combination
from hilbloc.series import TruncSeries, todd_series
from hilbloc.toric import ToricSurface, blowup, line_bundle, o_bundle, p1xp1, p2
from hilbloc.universal import (
    FitError,
    chi_Ln_Er,
    chi_from_genfun,
    chi_taut,
    chi_twist_series,
    cohomology_genfun,
    fit_AB,
    fit_five_series,
    gamma_vector,
    _REFERENCE_GAMMAS,
    _reference_classes,
    h_psi_phi,
    invariants,
    universal_chern_poly,
)
from profile_counts import example_count
from record_oracle import assert_record
import surface_oracle


class FakeInv:
    def __init__(self, chi_L, chi_O=2, KL=0, K2=0):
        self.chi_L, self.chi_O, self.KL, self.K2 = chi_L, chi_O, KL, K2


def _evaluate(tab, c1sq, c2):
    """The Chern numbers of a universal table at (c1^2(S), c2(S))."""
    return {la: Poly.coerce(p)(c1sq=Fraction(c1sq), c2=Fraction(c2)) for la, p in tab.numbers}


def test_universal_table_n1():
    tab = universal_chern_poly(1)
    vals = _evaluate(tab, 9, 3)
    assert vals[(2,)] == 3 and vals[(1, 1)] == 9


def test_universal_table_matches_models():
    from hilbloc.localization import chern_numbers_hilb

    for n in (2, 3):
        tab = universal_chern_poly(n)
        for model, pair in ((p2(), (9, 3)), (p1xp1(), (8, 4)), (blowup(p2(), 0), (8, 4))):
            direct = chern_numbers_hilb(model, n).as_dict()
            assert _evaluate(tab, *pair) == direct


@st.composite
def toric_fans(draw):
    """P2 or F_a with a <= 5, blown up 0-2 times at drawn charts, and n <= 3."""
    a = draw(st.integers(-1, 5))
    model = p2() if a < 0 else ToricSurface(f"F_{a}", ((1, 0), (0, 1), (-1, a), (0, -1)))
    for _ in range(draw(st.integers(0, 2))):
        model = blowup(model, draw(st.integers(0, len(model.rays) - 1)))
    return model, draw(st.integers(0, 3))


@pytest.mark.ci_examples
@settings(max_examples=example_count(15), deadline=None)
@given(toric_fans())
def test_chern_numbers_of_random_fans_are_universal(case):
    # the main theorem in Chern numbers: on a smooth toric surface, (c1^2, c2)
    # = (12 - e, e), the residue sums on the fan are the universal polynomials,
    # fitted from the power-sum classes of P2 and of P1xP1 (the latter summed
    # on one point per orbit of its central symmetry)
    from hilbloc.localization import chern_numbers_hilb

    model, n = case
    e = model.euler_number
    assert chern_numbers_hilb(model, n).as_dict() == _evaluate(universal_chern_poly(n), 12 - e, e)


@settings(max_examples=example_count(15), deadline=None)
@given(toric_fans(), st.sampled_from(["xi", "eta"]))
def test_chart_denominators_divide_prod_t_at_every_fixed_point(case, ladder):
    # D = prod_c L_c, the one denominator of the residue sums at a 1-PS, is a
    # multiple of prod t at every fixed point of Hilb^n, weights specialized
    # here from the characters of `tangent_weights`
    from math import prod

    from hilbloc.localization import _chart_denominators, enumerate_fixed_points, one_ps_ladder, tangent_weights

    model, n = case
    for spec in one_ps_ladder(model, n, ladder):
        den = prod(_chart_denominators(model, n, spec))
        for fp in enumerate_fixed_points(model, n):
            d = prod(a * spec[0] + b * spec[1] for a, b in tangent_weights(model, fp))
            assert d and den % d == 0


@pytest.mark.parametrize(
    "spec, n",
    [(spec, n) for spec in ("blowup:blowup:blowup:p1xp1:0:0:0", "blowup:blowup:blowup:p2:0:0:0") for n in (4, 5, 6)]
    + [("p2", 8), ("p1xp1", 8), ("blowup:p2:0", 8)],
)
def test_chern_on_the_largest_cli_fans_matches_the_hilbert_series(spec, n):
    # `chern` on the fans with the most fixed points the CLI allows, and on
    # the models one step past its largest n: the walk on the fan's own fixed
    # points against the class read back from H(S) of the models, in values
    # and in value types
    from hilbloc.cobordism import from_beta, hilb_series
    from hilbloc.localization import chern_numbers_hilb
    from hilbloc.toric import build_model

    model = build_model(spec)
    e = model.euler_number
    got, want = chern_numbers_hilb(model, n), from_beta(2 * n, hilb_series(12 - e, e, n)[n])
    assert got == want
    assert [type(v) for _, v in got.numbers] == [type(v) for _, v in want.numbers]


def test_universal_k3_values():
    tab = universal_chern_poly(2)
    vals = _evaluate(tab, 0, 24)
    assert vals[(4,)] == 324
    assert vals[(2, 2)] == 828


def _goettsche(euler, order):
    """Coefficients of prod_k (1 - q^k)^(-euler) through q^order."""
    c = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(euler):
            for i in range(k, order + 1):
                c[i] += c[i - k]
    return c


# the pins past n = 8 take seconds each (one core of a 2-vCPU VM: universal_chern_poly(10)
# about 2.3 s, its lattice test about 9 s), so they run as CI's long acceptance step does
long_only = pytest.mark.skipif(os.environ.get("HILBLOC_ACCEPT_PROFILE") != "long",
                               reason="HILBLOC_ACCEPT_PROFILE=long only")


def test_universal_top_chern_is_goettsche():
    surfaces = ((0, 24), (9, 3), (8, 4))
    want = {c2: _goettsche(c2, 8) for _, c2 in surfaces}
    assert want[24][2:] == [324, 3200, 25650, 176256, 1073720, 5930496, 30178575]
    for n in range(1, 9):
        tab = universal_chern_poly(n)
        for c1sq, c2 in surfaces:
            assert _evaluate(tab, c1sq, c2)[(2 * n,)] == want[c2][n]


@long_only
@pytest.mark.parametrize("n", [9, 10])
def test_universal_top_chern_on_k3_is_goettsche_past_n8(n):
    want = _goettsche(24, 10)
    assert want[9:] == [143184000, 639249300]
    top = dict(universal_chern_poly(n).numbers)[(2 * n,)]
    assert Poly.coerce(top)(c1sq=Fraction(0), c2=Fraction(24)) == want[n]


@pytest.mark.parametrize("n", [*range(1, 8), *(pytest.param(n, marks=long_only) for n in (8, 9, 10))])
def test_universal_chern_numbers_are_integers_on_the_lattice(n):
    # [S] = a [P2] + b [P1xP1] is an integral class for integer a, b, so every
    # Chern number of term n of H(P2)^a H(P1xP1)^b is an integer.  P_la has
    # total degree <= n in (a, b), and by forward differences such a
    # polynomial is an integer on all of Z^2 once it is one on a, b >= 0,
    # a + b <= n.
    tab = universal_chern_poly(n)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            values = _evaluate(tab, 9 * a + 8 * b, 3 * a + 4 * b)
            assert all(v.denominator == 1 for v in values.values()), (a, b)


def test_universal_chern_numbers_off_the_lattice_are_not_integers():
    # (c1^2, c2) = (1, 0) is (a, b) = (1/3, -1/4): the lattice test has teeth
    assert _evaluate(universal_chern_poly(2), 1, 0)[(2, 2)] == Fraction(3, 2)


def test_fit_ab_trivial_ranks():
    for r in (-1, 0, 1):
        pair = fit_AB(r, 3)
        assert all(c == 0 for c in pair.log_a.coeffs)
        assert pair.b == TruncSeries.one("z", 3)
    assert_record(pair, "r log_a b", fit_AB(0, 3), fit_AB(1, 4))


def test_fit_ab_printed_z2_values():
    pair = fit_AB(2, 2)
    assert pair.log_a[2] == Fraction(1, 6) * 2 - Fraction(1, 6) * 8
    assert pair.b[2] == Fraction(1, 24) * 4 - Fraction(1, 24) * 16


def test_fit_ab_symmetry():
    p3, m3 = fit_AB(3, 3), fit_AB(-3, 3)
    assert all(a + b == 0 for a, b in zip(p3.log_a.coeffs, m3.log_a.coeffs))
    assert p3.b == m3.b


def test_fit_ab_rejects_corrupt_data(monkeypatch):
    data = chi_twist_series((0, 1, 2), 2, 3)
    bad = data[2]
    data[2] = TruncSeries("z", 3, [bad[0], bad[1], bad[2] + 1, bad[3]])
    monkeypatch.setattr(universal, "chi_twist_series", lambda ks, r, order: data)
    with pytest.raises(FitError):
        fit_AB(2, 3)


def test_chi_ln_er_matches_localization():
    from hilbloc.toric import build_model

    bl = blowup(p2(), 0)
    L = line_bundle(bl, (2, 1, 0, 0))
    inv = invariants(bl, L)
    for r in (2, -2):
        pair = fit_AB(r, 3)
        for n in (1, 2, 3):
            assert chi_Ln_Er(inv, n, r, pair) == chi_via_RR(bl, n, L, r)
    # the CLI's largest n on its two largest fans, 7 and 6 rays
    for spec, coeffs, r, value in (
        ("blowup:blowup:blowup:p1xp1:0:0:0", (1, 0, 0, 0, 0, 0, 0), 2, -84207),
        ("blowup:blowup:blowup:p1xp1:0:0:0", (2, -1, 0, 3, 0, 1, 0), -3, -527959311),
        ("blowup:blowup:blowup:p2:0:0:0", (1, 0, 0, 0, 0, 0), 2, -48402),
        ("blowup:blowup:blowup:p2:0:0:0", (2, -1, 0, 3, 0, 1), -3, 1783986),
    ):
        model = build_model(spec)
        L = line_bundle(model, coeffs)
        assert chi_Ln_Er(invariants(model, L), 7, r, fit_AB(r, 7)) == chi_via_RR(model, 7, L, r) == value, spec


def test_chi_ln_er_k3_closed_form():
    inv = FakeInv(chi_L=4)
    assert chi_Ln_Er(inv, 2, 0, surface="k3") == 10
    assert chi_Ln_Er(inv, 2, 2, surface="k3") == 0


def test_chi_ln_er_abelian_closed_form():
    inv = FakeInv(chi_L=2, chi_O=0)
    assert chi_Ln_Er(inv, 2, 1, surface="abelian") == 1
    with pytest.raises(ValueError):
        chi_Ln_Er(inv, 0, 1, surface="abelian")
    with pytest.raises(ValueError):
        chi_Ln_Er(inv, 2, 1, surface="enriques")


def test_chi_taut_binomial():
    assert chi_taut(6, 1, 4) == 6
    assert chi_taut(3, 2, 3) == 3 * binomial(Fraction(3), 2)


def _oracle_genfun(h_f, h_o, order_t):
    """The cohomology generating function as a t-series with Poly-in-u
    coefficients: (sum_j h^j(F) u^j) (1+ut)^{h1} (1-t)^{-h0} (1-u^2 t)^{-h2}
    from three series of binomial coefficients."""
    h0, h1, h2 = h_o
    front = linear_combination((Poly.var("u", j), hj) for j, hj in enumerate(h_f) if hj)

    def series(coeff):  # sum_j coeff(j) t^j
        return TruncSeries("t", order_t, [coeff(j) for j in range(order_t + 1)])

    num = series(lambda j: binomial(h1, j) * Poly.var("u", j))
    den1 = series(lambda j: binomial(h0 + j - 1, j))
    den2 = series(lambda j: binomial(h2 + j - 1, j) * Poly.var("u", 2 * j))
    return num * den1 * den2 * front


@pytest.mark.ci_examples
@settings(max_examples=example_count(100), deadline=None)
@given(
    st.lists(st.integers(0, 9), max_size=4),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.integers(0, 6),
)
def test_cohomology_table_matches_the_series(h_f, h_o, order_t):
    # every t-power of the series: its u-coefficients are the row, and none
    # lies beyond the row's last entry
    rows, gf = cohomology_genfun(h_f, h_o, order_t), _oracle_genfun(h_f, h_o, order_t)
    assert len(rows) == order_t + 1
    for m, row in enumerate(rows):
        assert all(type(h) is int for h in row)
        coeffs = Poly.coerce(gf[m]).coefficient_map("u")
        assert all(0 <= i < len(row) for i in coeffs)
        assert [coeffs.get(i, 0) for i in range(len(row))] == row


def test_genfun_trivial_cohomology():
    # h*(O) = (1,0,0): h^i(F^[n]) = h^i(F) for every n
    rows = cohomology_genfun((2, 1, 4), (1, 0, 0), 5)
    assert rows == [[2, 1, 4] + [0] * (2 * n - 2) for n in range(1, 7)]


def test_genfun_u_minus_one_is_chi():
    rows = cohomology_genfun((1, 2, 0), (2, 1, 1), 6)
    for n in range(1, 8):
        assert chi_from_genfun(rows, n) == chi_taut(-1, 2, n)


@pytest.mark.parametrize("h_f, h_o", [((1, -1, 0), (1, 0, 0)), ((1, 0, 0), (1, -1, 0))])
def test_genfun_rejects_negative_dimensions(h_f, h_o):
    with pytest.raises(ValueError, match="non-negative"):
        cohomology_genfun(h_f, h_o, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: line_bundle(p2(), [1.5, 0, 0]),
        lambda: o_bundle(p2(), 2.9),
        lambda: cohomology_genfun([2.7], (1.9, 0, 0), 1),
        lambda: chi_taut(0.5, 1, 3),
        lambda: chi_taut(2, 0.1, 3),
        lambda: phi_nk_closed_form(0.5, 3),
    ],
    ids=["line_bundle", "o_bundle", "cohomology_genfun", "chi_taut_chi_f", "chi_taut_chi_o", "phi_nk_closed_form"],
)
def test_a_float_argument_raises(call):
    # each value is checked where it is used, not truncated or converted exactly
    with pytest.raises((TypeError, ValueError)):
        call()


def test_gamma_vectors_of_references():
    m = p2()
    x = TautClass(((o_bundle(m, 1), 1),), 1)
    assert gamma_vector(m, x) == (1, 0, 3, 9, 3)
    x = TautClass(((o_bundle(m, 1), 2),), 0)
    assert gamma_vector(m, x) == (4, 1, 6, 9, 3)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_gamma_vector_matches_the_surface_oracle(data):
    model = data.draw(st.sampled_from(surface_oracle.SURFACES))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(model.rays), max_size=len(model.rays))
    pairs = st.tuples(coeffs.map(lambda c: line_bundle(model, c)), st.integers(-2, 3))
    x = TautClass(tuple(data.draw(st.lists(pairs, max_size=3))), data.draw(st.integers(-2, 3)))
    assert gamma_vector(model, x) == surface_oracle.gamma_vector(model, x)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_gamma_vectors_of_all_references_match_the_oracle(r):
    for (model, x), pinned in zip(_reference_classes(r), _REFERENCE_GAMMAS, strict=True):
        assert gamma_vector(model, x) == surface_oracle.gamma_vector(model, x) == pinned


def test_five_series_rank_only_classes():
    td = todd_series("x", 4)
    series = fit_five_series("expdet", td, 2, 2)
    # x = r*1 has c1(x) = c2(x) = 0, so A2 cannot be seen by expdet data
    assert all(c == 0 for c in series[1].coeffs)


def test_five_series_predicts_blowup():
    bl = blowup(p2(), 0)
    x = TautClass(((line_bundle(bl, (2, 1, 0, 0)), 1), (line_bundle(bl, (1, 0, 0, 0)), 1)))
    order = 2
    phi = TruncSeries("x", 2 * order, [1, 1])
    for psi in ("chern", "segre"):
        series = fit_five_series(psi, phi, 2, order)
        gam = gamma_vector(bl, x)
        pred = sum(
            (s * Fraction(g) for s, g in zip(series, gam)),
            TruncSeries.zero("z", order),
        ).exp()
        assert pred == h_psi_phi(bl, x, psi, phi, order)


def test_five_series_expdet_matches_twist_fit():
    # Psi = exp(c1 det), Phi = Todd on x = O(k) + (r-1)*1 gives the chi series
    r, order = 2, 3
    m = p2()
    td = todd_series("x", 2 * order)
    series = fit_five_series("expdet", td, r, order)
    x = TautClass(((o_bundle(m, 1), 1),), r - 1)
    gam = gamma_vector(m, x)
    pred = sum(
        (s * Fraction(g) for s, g in zip(series, gam)),
        TruncSeries.zero("z", order),
    ).exp()
    assert pred == chi_twist_series((1,), r, order)[1]


def test_five_series_bad_psi():
    with pytest.raises(ValueError):
        fit_five_series("euler", todd_series("x", 4), 2, 2)


def test_five_series_sixth_point_gate(monkeypatch):
    import hilbloc.universal as universal

    real = universal.h_psi_phi

    def perturbed(model, x, psi, phi_q, order):
        # only the sixth class, (P2, O(3) + (r-1).1), carries an O(3)
        h = real(model, x, psi, phi_q, order)
        if any(b.coeffs[0] == 3 for b, _ in x.line_bundles):
            h = h + TruncSeries("z", order, [0, 0, 1])
        return h

    monkeypatch.setattr(universal, "h_psi_phi", perturbed)
    with pytest.raises(FitError, match="sixth-point consistency failed at order 2"):
        fit_five_series("chern", TruncSeries("x", 4, [1, 1]), 2, 2)


def test_five_series_reference_gamma_gate(monkeypatch):
    import hilbloc.universal as universal

    real = universal._reference_classes
    monkeypatch.setattr(universal, "_reference_classes", lambda r: real(r)[::-1])
    with pytest.raises(FitError, match="reference gamma mismatch"):
        fit_five_series("chern", TruncSeries("x", 4, [1, 1]), 2, 2)


def test_top_segre_of_o1_on_p2_is_lehns():
    # Lehn's generating series of the top Segre classes at H = O(1) on P2
    m = p2()
    series = h_psi_phi(m, TautClass(((o_bundle(m, 1), 1),)), "segre", TruncSeries("x", 10, [1]), 5)
    assert list(series.coeffs) == [1, 1, 0, 5, -189, 3801]
