from collections import Counter
from fractions import Fraction

import pytest

from hilbloc.cobordism import cp_product_class, hilb_series, to_beta
from hilbloc.genera import (
    GenusSpec,
    betti_hilb_model,
    chi_y_genus,
    chi_y_hilb,
    genus_eval,
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
from hilbloc.localization import ConsistencyError, hilb_cobordism_series
from hilbloc.rings import Poly
from hilbloc.series import TruncSeries
from hilbloc.toric import build_model, p1xp1, p2
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
