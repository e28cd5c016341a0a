from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbloc.cobordism import cp_product_class, hilb_series, to_beta
from hilbloc.genera import (
    GenusSpec,
    betti_hilb_model,
    chi_y_genus,
    chi_y_hilb,
    genus_eval,
    genus_hilb_series,
    genus_series,
    multiplicative_sequence,
    phi_nk_closed_form,
    phi_nk_genus,
    signature_genus,
    todd_genus,
    total_chern_genus,
)
import hilbloc.genera as genera
import hilbloc.localization as loc
from hilbloc.localization import ConsistencyError, Integrand, chi_series, hilb_cobordism_series, integrate
from hilbloc.rings import Poly
from hilbloc.series import TruncSeries, geometric
from hilbloc.toric import ToricSurface, blowup, build_model, o_bundle, p1xp1, p2
from ktheory_oracle import chi_y_at
import hodge_oracle
from profile_counts import example_count, size_bound
from record_oracle import assert_record

CP2 = to_beta(cp_product_class((2,)))
CP1SQ = to_beta(cp_product_class((1, 1)))


def chi_minus_y_genus(degree):
    """chi_{-y}: the chi_y genus with y -> -y, so that varieties with
    isolated-fixed-point torus actions get nonnegative Betti coefficients
    (chi_{-y}(CP2) = 1 + y + y^2)."""
    minus = {"y": -Poly.var("y")}
    coeffs = [c.substitute(minus) if isinstance(c, Poly) else c for c in chi_y_genus(degree).q.coeffs]
    return GenusSpec("chi_minus_y", TruncSeries("x", degree, coeffs))


def test_todd_of_projective_spaces():
    td = todd_genus(6)
    assert genus_eval(td, CP2) == 1
    assert genus_eval(td, CP1SQ) == 1
    assert genus_eval(td, to_beta(cp_product_class((3,)))) == 1


def test_euler_genus_is_top_chern():
    g = total_chern_genus(4)
    assert genus_eval(g, CP2) == 3
    assert genus_eval(g, CP1SQ) == 4


def test_signature():
    g = signature_genus(4)
    assert genus_eval(g, CP2) == 1
    assert genus_eval(g, CP1SQ) == 0
    assert genus_eval(g, to_beta(cp_product_class((2, 2)))) == 1


def test_chi_minus_y_specializations():
    g = chi_minus_y_genus(2)
    val = genus_eval(g, CP2)
    assert val == 1 + Poly.var("y") + Poly.var("y", 2)
    assert genus_eval(g, CP1SQ) == 1 + 2 * Poly.var("y") + Poly.var("y", 2)


def test_genus_eval_rejects_a_series_truncated_below_the_class():
    with pytest.raises(ValueError, match="truncated below d"):
        genus_eval(todd_genus(2), to_beta(cp_product_class((3,))))
    h = hilb_cobordism_series(p2(), 3)
    assert genus_eval(todd_genus(4), h[2]) == 1
    with pytest.raises(ValueError, match="truncated below d"):
        genus_eval(todd_genus(4), h[3])
    with pytest.raises(ValueError, match="truncated below d"):
        genus_series(todd_genus(5), h)
    with pytest.raises(ValueError, match="truncated below d"):
        multiplicative_sequence(todd_genus(2), 3)


def test_genus_requires_unit_series():
    with pytest.raises(ValueError):
        GenusSpec("bad", TruncSeries("x", 2, [0, 1]))
    todd = todd_genus(4)
    assert todd.log_coeffs is todd.log_coeffs and "log_coeffs" in vars(todd)
    assert_record(todd, "name q", todd_genus(5), total_chern_genus(4), GenusSpec("euler", todd.q))


def test_phi_nk_validation():
    with pytest.raises(ValueError):
        phi_nk_genus(2, 3, 4)
    with pytest.raises(ValueError, match="0 <= k <= N"):
        phi_nk_genus(0, 0, 4)  # k/N undefined
    # phi_1,0 is the Todd genus
    assert genus_eval(phi_nk_genus(1, 0, 4), CP2) == 1


def test_multiplicative_sequence_todd_surface():
    k = multiplicative_sequence(todd_genus(2), 2)
    assert k[(1, 1)] == Fraction(1, 12)
    assert k[(2,)] == Fraction(1, 12)


def test_multiplicative_sequence_hirzebruch_d4():
    # L_2 = (7 p_2 - p_1^2)/45 with p_1 = c1^2 - 2 c2, p_2 = c2^2 - 2 c1 c3 + 2 c4
    assert multiplicative_sequence(signature_genus(4), 4) == {
        (4,): Fraction(14, 45),
        (3, 1): Fraction(-14, 45),
        (2, 2): Fraction(3, 45),
        (2, 1, 1): Fraction(4, 45),
        (1, 1, 1, 1): Fraction(-1, 45),
    }
    # td_2 = (-c4 + c3 c1 + 3 c2^2 + 4 c2 c1^2 - c1^4)/720
    assert multiplicative_sequence(todd_genus(4), 4) == {
        (4,): Fraction(-1, 720),
        (3, 1): Fraction(1, 720),
        (2, 2): Fraction(3, 720),
        (2, 1, 1): Fraction(4, 720),
        (1, 1, 1, 1): Fraction(-1, 720),
    }


BLOWUPS = [build_model(spec) for spec in ("blowup:p2:0", "blowup:blowup:p2:0:1", "blowup:blowup:blowup:p1xp1:0:0:0")]


def goettsche_betti(e: int, n: int) -> list:
    """[z^n] prod_k (1 - z^k y^{k-1})^{-1} (1 - z^k y^k)^{-(e-2)} (1 - z^k y^{k+1})^{-1}
    as its y-coefficients: Goettsche's Betti numbers of Hilb^n(S) for b(S) = (1, e - 2, 1)."""
    series = Counter({(0, 0): 1})  # (z power, y power) -> coefficient
    for k in range(1, n + 1):
        for shift, mult in ((k - 1, 1), (k, e - 2), (k + 1, 1)):
            for _ in range(mult):  # times the geometric series of z^k y^shift
                nxt = Counter()
                for (a, b), c in series.items():
                    for j in range((n - a) // k + 1):
                        nxt[a + j * k, b + j * shift] += c
                series = nxt
    return [series[n, p] for p in range(2 * n + 1)]


@pytest.mark.parametrize("ladder", ["xi", "eta"])
def test_betti_count_matches_goettsche_on_blowups(monkeypatch, ladder):
    # the count may use any generic 1-PS; it never walks the fixed points themselves
    monkeypatch.setattr(genera, "one_ps_ladder", lambda model, n, name: loc.one_ps_ladder(model, n, ladder))
    monkeypatch.setattr(loc, "tangent_weights", None)
    for model in BLOWUPS:
        for n in range(6):
            assert betti_hilb_model(model, n) == goettsche_betti(model.euler_number, n), (model.name, n)


def test_betti_count_catches_a_zero_tangent_weight(monkeypatch):
    # (1, 1) kills the character (1, -1) of P2's tangent space at n = 1
    monkeypatch.setattr(genera, "one_ps_ladder", lambda model, n, name: [(1, 1), (1, 2)])
    with pytest.raises(ConsistencyError, match="zero tangent weight"):
        betti_hilb_model(p2(), 1)


def flip_at_second_spec(monkeypatch, model, order):
    """Negate one tangent weight of the partition (1,) at chart 0, in the
    table that `genera` reads at the second 1-PS of the ladder of order only."""
    second = loc.one_ps_ladder(model, order, "xi")[1]

    def specialized(model, order, spec):
        charts = loc.chart_specializations(model, order, spec)
        if spec != second:
            return charts
        first = dict(charts[0])
        first[(1,)] = (-first[(1,)][0],) + first[(1,)][1:]
        return (first,) + charts[1:]

    monkeypatch.setattr(genera, "chart_specializations", specialized)


def test_betti_count_is_gated_by_the_second_spec(monkeypatch):
    # one sign flipped at the second 1-PS only moves one point of Hilb^1 between b_0 and b_4
    flip_at_second_spec(monkeypatch, p2(), 2)
    with pytest.raises(ConsistencyError, match="disagree"):
        betti_hilb_model(p2(), 2)


def test_betti_n1_is_surface():
    assert betti_hilb_model(p2(), 1) == [1, 1, 1]
    assert betti_hilb_model(p1xp1(), 1) == [1, 2, 1]


def test_betti_sums_give_euler_and_poincare():
    # total sum of Betti numbers at y=1 is chi_{-y} at y=1, and the
    # alternating-degree Euler number equals the fixed point count
    for model in (p2(), p1xp1()):
        series = chi_y_hilb(model, 4, "product")
        for n in range(5):
            euler = sum(betti_hilb_model(model, n))
            coeff = Poly.coerce(series[n]).substitute({"y": 1})
            assert euler == coeff.as_fraction()


def test_chi_y_routes_agree():
    # b(S) from e(S) in the product and exp routes, the fixed-point count in the betti route
    for model in (p2(), p1xp1(), BLOWUPS[0], BLOWUPS[2]):
        a = chi_y_hilb(model, 5, "product")
        b = chi_y_hilb(model, 5, "exp")
        c = chi_y_hilb(model, 5, "betti")
        assert a == b == c


def test_chi_y_hilb2_p2_coefficient():
    want = (
        1
        + 2 * Poly.var("y")
        + 3 * Poly.var("y", 2)
        + 2 * Poly.var("y", 3)
        + Poly.var("y", 4)
    )
    assert chi_y_hilb(p2(), 2, "product")[2] == want


def test_genus_route_matches_betti_route():
    g = chi_minus_y_genus(8)
    h = hilb_cobordism_series(p2(), 4)
    for n in range(5):
        val = genus_eval(g, h[n])
        b = betti_hilb_model(p2(), n)
        want = sum(bb * Poly.var("y", p) for p, bb in enumerate(b))
        assert val == want


def test_phi_closed_form_k3():
    k3 = hilb_series(0, 24, 3)
    genus = phi_nk_genus(2, 1, 6)
    assert genus_eval(genus, k3[1]) == 2
    assert genus_series(genus, k3) == phi_nk_closed_form(2, 3)


def test_chi_y_surface_values():
    # Hilb^1(S) = S, and the exponential route starts from the surface's polynomial
    assert chi_y_hilb(p2(), 1, "exp")[1] == 1 + Poly.var("y") + Poly.var("y", 2)
    assert chi_y_hilb(p1xp1(), 1, "exp")[1] == 1 + 2 * Poly.var("y") + Poly.var("y", 2)


# -- the genus of Hilb^n(S) as a chart product ------------------------------------------

NAMED_GENERA = {
    "todd": todd_genus,
    "euler": total_chern_genus,
    "signature": signature_genus,
    "phi:2:1": lambda degree: phi_nk_genus(2, 1, degree),
}


def chart_genus(model, genus, order, ladder="xi"):
    """The genus of Hilb^n(S), n = 0..order, from the chart product on the fan of S."""
    return chi_series(model, order, (o_bundle(model),), 0, ladder, q=genus.q)[0]


def hirzebruch(a):
    return ToricSurface(f"F_{a}", ((1, 0), (0, 1), (-1, a), (0, -1)))


@pytest.mark.parametrize("ladder", ["xi", "eta"])
@pytest.mark.parametrize("spec", ["p2", "p1xp1", "blowup:p2:0"])
def test_chart_product_genus_matches_the_power_sum_classes(spec, ladder):
    # the oracle is the genus of the localized power-sum classes of Hilb^n(S)
    model = build_model(spec)
    h = hilb_cobordism_series(model, 5)
    for name, make in NAMED_GENERA.items():
        genus = make(10)
        assert chart_genus(model, genus, 5, ladder) == list(genus_series(genus, h).coeffs), name


def test_todd_genus_of_hilb_is_geometric():
    # chi(O_{S^[n]}) = 1 on a rational surface, and sum_n chi(O_{S^[n]}) z^n is
    # (1 - z)^{-chi(O_S)} with chi(O_S) = (c1^2 + c2) / 12 (Noether)
    for spec in ("p2", "p1xp1", "blowup:blowup:p1xp1:0:2"):
        assert chart_genus(build_model(spec), todd_genus(12), 6) == [1] * 7
    for c1sq, c2 in ((9, 3), (0, 24), (0, 12), (-8, 44)):
        assert genus_hilb_series(todd_genus(12), c1sq, c2, 6) == geometric("t", 6).pow(Fraction(c1sq + c2, 12))


def test_chart_product_scales_term_n_by_q0_to_the_2n():
    model, o = p1xp1(), (o_bundle(p1xp1()),)
    q = total_chern_genus(8).q
    base = chi_series(model, 4, o, 0, q=q)[0]  # Euler numbers: every term is nonzero
    for c in (Fraction(2), Fraction(-1, 3)):
        scaled = chi_series(model, 4, o, 0, q=q * c)[0]
        assert scaled == [v * c ** (2 * n) for n, v in enumerate(base)]
        assert scaled[2] == integrate(model, 2, Integrand(tangent_class=(q * c).truncate(4)))  # the walk scales too
    with pytest.raises(ValueError, match="Q\\(0\\) != 0"):
        chi_series(model, 4, o, 0, q=TruncSeries("x", 8, [0, 1]))


@st.composite
def drawn_fans(draw):
    """A smooth complete fan: P2 or F_a with a <= 5, blown up 0-3 times at drawn charts."""
    a = draw(st.integers(-1, 5))
    model = p2() if a < 0 else hirzebruch(a)
    for _ in range(draw(st.integers(0, 3))):
        model = blowup(model, draw(st.integers(0, len(model.rays) - 1)))
    return model


@st.composite
def theorem_cases(draw):
    """A drawn fan (`drawn_fans`), n <= 4, a genus of degree 2n (a named one,
    or drawn rational coefficients with Q(0) = 1) and a ladder."""
    model = draw(drawn_fans())
    n = draw(st.integers(0, 4))
    name = draw(st.sampled_from([*NAMED_GENERA, "drawn"]))
    if name == "drawn":
        coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=2 * n, max_size=2 * n))
        genus = GenusSpec("drawn", TruncSeries("x", 2 * n, [1, *coeffs]))
    else:
        genus = NAMED_GENERA[name](2 * n)
    return model, genus, n, draw(st.sampled_from(("xi", "eta")))


@pytest.mark.ci_examples
@settings(max_examples=example_count(15), deadline=None)
@given(theorem_cases())
def test_main_theorem_on_random_fans(case):
    # the paper's main theorem: [S^[n]] depends only on (c1^2, c2) = (12 - e, e)
    # for a smooth toric surface, so the chart product on the fan equals the
    # genus series that the two models give through the change of basis
    model, genus, n, ladder = case
    e = model.euler_number
    assert chart_genus(model, genus, n, ladder) == list(genus_hilb_series(genus, 12 - e, e, n).coeffs)


# -- the tangent characters against K-theoretic localization at a torus point -------

TORUS_POINTS = ((2, 3), (Fraction(5, 2), Fraction(-1, 3)))


def assert_ktheory_oracle(model, n):
    # chi_{-y} at y = 5/7 from the fixed-point sum at two torus points, which
    # must agree with each other and with Goettsche's product; at y = 0 it is
    # the holomorphic Euler characteristic chi(O) = 1 of a rational surface
    y = Fraction(5, 7)
    want = Poly.coerce(chi_y_hilb(model, n, "product")[n])(y=y)
    assert [chi_y_at(model, n, y, q) for q in TORUS_POINTS] == [want, want]
    assert chi_y_at(model, n, 0, TORUS_POINTS[0]) == 1


def test_ktheory_oracle_on_the_models():
    for model in (p2(), p1xp1(), blowup(p2(), 0)):
        for n in range(5):
            assert_ktheory_oracle(model, n)


@pytest.mark.ci_examples
@settings(max_examples=example_count(15), deadline=None)
@given(drawn_fans(), st.integers(0, size_bound(4, 3)))
def test_ktheory_oracle_on_random_fans(model, n):
    assert_ktheory_oracle(model, n)


def test_ktheory_oracle_sees_a_perturbed_tangent_character(monkeypatch):
    # (1, 0) -> (2, 0) at the one-point ideal of P2's first chart, as in
    # `test_dimension_axiom_sees_a_perturbed_tangent_character`: the fixed-point
    # sum then depends on the torus point
    m = p2()
    first, weights = m.charts[0], loc.chart_tangent_weights

    def perturbed(chart, la):
        chars = weights(chart, la)
        return ((2, 0), *chars[1:]) if (chart, la) == (first, (1,)) else chars

    monkeypatch.setattr(loc, "chart_tangent_weights", perturbed)
    for n in (1, 2, 3):
        at_first, at_second = (chi_y_at(m, n, Fraction(5, 7), q) for q in TORUS_POINTS)
        assert at_first != at_second


def test_main_theorem_at_the_wrong_c1sq_fails():
    # the mutant: Todd at (c1^2 + 1, c2) is (1 - z)^{-13/12}, not the fan's (1 - z)^{-1}
    todd = todd_genus(6)
    for model in (p2(), hirzebruch(3), blowup(blowup(p1xp1(), 0), 0)):
        e = model.euler_number
        direct = chart_genus(model, todd, 3)
        assert direct == list(genus_hilb_series(todd, 12 - e, e, 3).coeffs)
        assert direct != list(genus_hilb_series(todd, 13 - e, e, 3).coeffs)


def test_betti_route_builds_one_ladder_per_series(monkeypatch):
    # one chart product at the ladder of the order gives every n <= order
    ladders, build = [], loc.one_ps_ladder
    monkeypatch.setattr(genera, "one_ps_ladder", lambda model, n, name: ladders.append(n) or build(model, n, name))
    model = blowup(p1xp1(), 2)
    series = chi_y_hilb(model, 5, "betti")
    assert ladders == [5]
    assert series == chi_y_hilb(model, 5, "product")
    assert [sum(b * Poly.var("y", k) for k, b in enumerate(betti_hilb_model(model, n))) for n in range(6)] == list(series.coeffs)


# the Hodge diamonds (irregularity, geometric genus, h^{1,1}) and (K^2, e) of four non-toric surfaces
HODGE_SURFACES = {
    "k3": ((0, 1, 20), (0, 24)),
    "abelian": ((2, 1, 4), (0, 0)),
    "enriques": ((0, 0, 10), (0, 12)),
    "quintic": ((0, 4, 45), (5, 55)),
}


def test_hodge_product_of_k3():
    # h^{1,1} = 21, h^{2,2} = 232, h^{3,1} = 21 and e = 324 on K3^[2]; e(K3^[3]) = 3200
    table = hodge_oracle.hodge_hilb(hodge_oracle.diamond(0, 1, 20), 3)
    assert (table[2][1, 1], table[2][2, 2], table[2][3, 1]) == (21, 232, 21)
    assert [sum(row.values()) for row in table] == [1, 24, 324, 3200]


@pytest.mark.parametrize("ladder", ["xi", "eta"])
@pytest.mark.parametrize("name", sorted(HODGE_SURFACES))
def test_chi_y_of_the_cobordism_route_is_the_hodge_product(name, ladder):
    # item 33: chi_y(S^[n]) = sum_{p,q} (-1)^q h^{p,q}(S^[n]) y^p from the
    # diamond alone, against the chi_y genus of H(S) at (K^2, e), n <= 4
    (q, pg, h11), (k2, e) = HODGE_SURFACES[name]
    table = hodge_oracle.hodge_hilb(hodge_oracle.diamond(q, pg, h11), 4)
    got = genus_series(chi_y_genus(8), hilb_series(k2, e, 4, ladder))
    for n, c in enumerate(got.coeffs):
        ys = {p: v for p, v in Poly.coerce(c).coefficient_map("y").items() if v}
        assert ys == hodge_oracle.chi_y(table[n]), (name, n)


@pytest.mark.parametrize("spec", ["p2", "p1xp1", "blowup:blowup:blowup:p2:0:0:0", "blowup:blowup:blowup:p1xp1:0:0:0"])
def test_betti_count_is_the_hodge_product(spec):
    # a toric surface has h^{1,0} = h^{2,0} = 0 and h^{1,1} = e - 2; the odd
    # Betti numbers of the product vanish and the even ones are the count's
    model = build_model(spec)
    table = hodge_oracle.hodge_hilb(hodge_oracle.diamond(0, 0, model.euler_number - 2), 7)
    for n, row in enumerate(table):
        b = hodge_oracle.betti(row, n)
        assert b[1::2] == [0] * (2 * n) and b[::2] == betti_hilb_model(model, n), (spec, n)
