from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbloc.localization import (
    ConsistencyError,
    Integrand,
    TautClass,
    chern_numbers_hilb,
    chi_via_RR,
    chi_via_RR_family,
    det_taut_weight,
    enumerate_fixed_points,
    integrate,
    one_ps_ladder,
    taut_weights,
    tangent_weights,
)
from hilbloc.partitions import count_partitions, enumerate_partitions
from hilbloc.series import TruncSeries, todd_series
from hilbloc.toric import blowup, line_bundle, o_bundle, p1xp1, p2
from hilbloc.universal import _segre_poly


def fp_count(model, n):
    """Convolution of partition counts over the charts (the oracle)."""
    e = len(model.rays)
    acc = [1] + [0] * n
    for _ in range(e):
        nxt = [0] * (n + 1)
        for i in range(n + 1):
            if acc[i]:
                for j in range(n + 1 - i):
                    nxt[i + j] += acc[i] * count_partitions(j)
        acc = nxt
    return acc[n]


def test_fixed_point_enumeration():
    for model in (p2(), p1xp1(), blowup(p2(), 0)):
        for n in range(5):
            pts = enumerate_fixed_points(model, n)
            assert len(pts) == fp_count(model, n)
            assert len(set(pts)) == len(pts)
            assert all(pt.n == n for pt in pts)


def test_tangent_weight_count():
    m = p2()
    for n in (1, 2, 3):
        for fp in enumerate_fixed_points(m, n):
            assert len(tangent_weights(m, fp)) == 2 * n


def test_euler_equals_fixed_point_count():
    for model in (p2(), p1xp1()):
        for n in (1, 2, 3, 4):
            e = integrate(model, n, Integrand.chern_monomial((2 * n,)))
            assert e == len(enumerate_fixed_points(model, n))


def test_dimension_axiom():
    m = p2()
    for n in (1, 2, 3):
        for la in enumerate_partitions(2 * n - 1):
            assert integrate(m, n, Integrand.chern_monomial(la)) == 0


def test_n1_reduces_to_surface():
    m = p2()
    for k in range(4):
        assert chi_via_RR(m, 1, o_bundle(m, k)) == comb(k + 2, 2)
    assert integrate(m, 1, Integrand.chern_monomial((2,))) == 3
    assert integrate(m, 1, Integrand.chern_monomial((1, 1))) == 9


def test_chi_binomial_laws():
    m = p2()
    for n in (2, 3):
        for k in (1, 2, 3):
            chi = comb(k + 2, 2)
            assert chi_via_RR(m, n, o_bundle(m, k), 0) == comb(chi + n - 1, n)
            assert chi_via_RR(m, n, o_bundle(m, k), 1) == comb(chi, n)


def test_chi_o_series_is_geometric():
    # sum_n chi(O^[n]) z^n = (1-z)^{-chi(O)}; on P2 every coefficient is 1
    m = p2()
    o = o_bundle(m, 0)
    for n in range(5):
        assert chi_via_RR(m, n, o) == 1


def test_ladder_independence():
    m = p1xp1()
    for n in (1, 2, 3):
        assert chern_numbers_hilb(m, n, "xi") == chern_numbers_hilb(m, n, "eta")


def test_ladders_are_generic():
    m = p2()
    for name in ("xi", "eta"):
        for spec in one_ps_ladder(m, 3, name):
            for fp in enumerate_fixed_points(m, 3):
                for a1, a2 in tangent_weights(m, fp):
                    assert a1 * spec[0] + a2 * spec[1] != 0


def test_p1xp1_factor_swap_symmetry():
    # swapping the two P1 factors permutes fixed points; Chern numbers agree
    from hilbloc.toric import ToricSurface

    swapped = ToricSurface("p1xp1s", ((-1, 0), (0, -1), (1, 0), (0, 1)))
    for n in (1, 2, 3):
        assert chern_numbers_hilb(swapped, n) == chern_numbers_hilb(p1xp1(), n)


def test_parallel_workers_agree(monkeypatch):
    m = p2()
    base = chern_numbers_hilb(m, 3)
    monkeypatch.setenv("HILBLOC_THREADS", "2")
    chern_numbers_hilb.cache_clear()
    try:
        assert chern_numbers_hilb(m, 3) == base
    finally:
        chern_numbers_hilb.cache_clear()


def test_taut_class_rank():
    m = p2()
    x = TautClass(((o_bundle(m, 1), 2),), 3)
    assert x.rank == 5


def test_ch_taut_riemann_roch():
    m = p2()
    for n in (1, 2, 3):
        for k in (1, 2):
            x = TautClass(((o_bundle(m, k), 1),))
            val = integrate(m, n, Integrand(todd=True, ch_bundle=x))
            assert val == comb(k + 2, 2)


# -- the epsilon-chain evaluator, kept as the oracle of the power-sum one -------------
#
# Every factor of the integrand is folded into an eps-series of Fractions by
# one product per tangent weight (Todd, tangent class) or per line bundle
# (total Chern class), as the engine did before it moved to power sums.


def _eps_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(min(len(b), order + 1 - i)):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def _eps_inv(a, order):
    inv0 = Fraction(1) / a[0]
    out = [inv0] + [Fraction(0)] * order
    for k in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            acc += a[i] * out[k - i]
        out[k] = -inv0 * acc
    return out


def _eps_exp_weight(w, order):
    return [Fraction(w) ** k / factorial(k) for k in range(order + 1)]


def _total_chern(weights, order):
    """Total Chern class of a virtual weight multiset, as an eps-series."""
    num = [Fraction(1)] + [Fraction(0)] * order
    den = [Fraction(1)] + [Fraction(0)] * order
    for w, mult in weights:
        for _ in range(abs(mult)):
            if mult > 0:
                num = _eps_mul(num, [1, w], order)
            else:
                den = _eps_mul(den, [1, w], order)
    return _eps_mul(num, _eps_inv(den, order), order)


def _chain_point_value(model, n, fp, integrand, spec):
    order = 2 * n

    def specialize(c):
        return c[0] * spec[0] + c[1] * spec[1]

    tvals = [specialize(c) for c in tangent_weights(model, fp)]
    denom = 1
    for v in tvals:
        denom *= v
    bundle_map = dict(integrand.bundles)
    chern_cache = {}

    def chern_of(name, deg):
        if name not in chern_cache:
            src = bundle_map[name]
            if src == "tangent":
                ws = [(v, 1) for v in tvals]
            else:
                ws = [(specialize(c), m) for c, m in taut_weights(model, fp, src)]
            chern_cache[name] = _total_chern(ws, order)
        return chern_cache[name][deg]

    series = [Fraction(0)] * (order + 1)
    for coeff, monos in integrand.poly:
        deg = sum(d for _, d in monos)
        if deg > order:
            continue
        val = Fraction(coeff)
        for name, d in monos:
            val *= chern_of(name, d)
        series[deg] += val
    qs = [todd_series("x", order).coeffs] if integrand.todd else []
    if integrand.tangent_class is not None:
        qs.append(integrand.tangent_class.coeffs)
    for q in qs:
        for t in tvals:
            series = _eps_mul(series, [q[k] * t**k for k in range(order + 1)], order)
    if integrand.exp_det is not None:
        w = specialize(det_taut_weight(model, fp, *integrand.exp_det))
        series = _eps_mul(series, _eps_exp_weight(w, order), order)
    if integrand.ch_bundle is not None:
        ch = [Fraction(0)] * (order + 1)
        for c, m in taut_weights(model, fp, integrand.ch_bundle):
            for k, e in enumerate(_eps_exp_weight(specialize(c), order)):
                ch[k] += m * e
        series = _eps_mul(series, ch, order)
    return Fraction(series[order], denom)


def chain_integrate(model, n, integrand):
    spec = one_ps_ladder(model, n)[0]
    return sum(
        (_chain_point_value(model, n, fp, integrand, spec) for fp in enumerate_fixed_points(model, n)),
        Fraction(0),
    )


MODELS = {"p2": p2(), "p1xp1": p1xp1(), "blowup:p2:0": blowup(p2(), 0)}
small = st.integers(-2, 2)


@st.composite
def bundles_of(draw, model):
    return line_bundle(model, [draw(small) for _ in model.rays])


@st.composite
def virtual_classes(draw, model):
    lbs = draw(st.lists(st.tuples(bundles_of(model), st.sampled_from((-2, -1, 1, 2))), max_size=2))
    return TautClass(tuple(lbs), draw(small))


@st.composite
def integrand_cases(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    model, n = MODELS[name], draw(st.integers(0, 3))
    kw = {"todd": draw(st.booleans())}
    if draw(st.booleans()):
        q0 = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(-1, 2))))
        rest = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=6, max_size=6))
        kw["tangent_class"] = TruncSeries("x", 6, [q0, *rest])
    if draw(st.booleans()):
        kw["exp_det"] = (draw(bundles_of(model)), draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        kw["ch_bundle"] = draw(virtual_classes(model))
    if draw(st.booleans()):
        top = 2 * n
        if draw(st.booleans()):
            poly = tuple((Fraction(1), (("X", d),) if d else ()) for d in range(top + 1))
        else:
            poly = _segre_poly(top)
        kw.update(poly=poly, bundles=(("X", draw(virtual_classes(model))),))
    return model, n, Integrand(**kw)


@settings(max_examples=40, deadline=None)
@given(integrand_cases())
def test_power_sum_evaluator_matches_eps_chain(case):
    model, n, integrand = case
    assert integrate(model, n, integrand) == chain_integrate(model, n, integrand)


def test_k_family_matches_per_k_chi():
    for model, n, coeffs in ((p2(), 3, ((0, 0, 0), (1, 0, 2), (2, 1, 0))), (p1xp1(), 2, ((0, 0, 0, 0), (1, 0, 2, 0)))):
        bundles = [line_bundle(model, c) for c in coeffs]
        for r in (-2, 0, 3):
            assert chi_via_RR_family(model, n, bundles, r) == [chi_via_RR(model, n, L, r) for L in bundles]


def test_tangent_class_without_constant_term_is_rejected():
    q = TruncSeries("x", 4, [0, 1])
    with pytest.raises(ValueError):
        integrate(p2(), 2, Integrand(tangent_class=q))
