from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbloc.cobordism import ChernVector, beta_poly, to_beta
from hilbloc.localization import (
    ConsistencyError,
    _char_bound,
    Integrand,
    TautClass,
    chart_specializations,
    chart_tangent_weights,
    chern_numbers_hilb,
    chern_residue_sums,
    chi_series,
    chi_via_RR,
    det_taut_weight,
    enumerate_fixed_points,
    hilb_cobordism_series,
    integrate,
    one_ps_ladder,
    surface_number,
    taut_weights,
    tangent_weights,
)
from hilbloc.partitions import enumerate_partitions
from hilbloc.rings import binomial
from hilbloc.series import TruncSeries, todd_series
from hilbloc.toric import ToricSurface, blowup, build_model, line_bundle, o_bundle, p1xp1, p2
from hilbloc.universal import _reference_classes, h_psi_phi
from partition_counts import count_partitions
from profile_counts import example_count
from record_oracle import assert_record
from residue_oracle import chern_monomial
import residue_oracle
import surface_oracle


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


def clear_engine_caches():
    """Forget every cached fact of the engine: each `lru_cache` of
    `hilbloc.localization` and its table of Hilbert-scheme beta classes, so
    that a perturbed chart table is read afresh (and the true one after)."""
    import hilbloc.localization as loc

    for fn in vars(loc).values():
        if hasattr(fn, "cache_clear") and fn.__module__ == loc.__name__:
            fn.cache_clear()
    loc._hilb_betas.clear()


def test_fixed_point_enumeration():
    for model in (p2(), p1xp1(), blowup(p2(), 0)):
        for n in range(5):
            pts = enumerate_fixed_points(model, n)
            assert len(pts) == fp_count(model, n)
            assert len(set(pts)) == len(pts)
            assert all(sum(map(sum, pt)) == n for pt in pts)


def test_tangent_weight_count():
    m = p2()
    for n in (1, 2, 3):
        for fp in enumerate_fixed_points(m, n):
            assert len(tangent_weights(m, fp)) == 2 * n


def test_euler_equals_fixed_point_count():
    for model in (p2(), p1xp1()):
        for n in (1, 2, 3, 4):
            e = integrate(model, n, chern_monomial((2 * n,)))
            assert e == len(enumerate_fixed_points(model, n))


def test_dimension_axiom():
    m = p2()
    for n in (1, 2, 3):
        lams = enumerate_partitions(2 * n - 1)
        assert chern_residue_sums(m, n, lams) == [0] * len(lams)


def test_dimension_axiom_sees_a_perturbed_tangent_character(monkeypatch):
    # (1, 0) -> (2, 0) at the one-point ideal of P2's first chart: the residue
    # sums of degree 2n - 1 stop vanishing, while `integrate` keeps no term
    # of degree < 2n without a tangent class and still reads 0
    import hilbloc.localization as loc

    m = p2()
    first, weights = m.charts[0], loc.chart_tangent_weights

    def perturbed(chart, la):
        chars = weights(chart, la)
        if (chart, la) == (first, (1,)):
            assert chars[0] == (1, 0)
            return ((2, 0), *chars[1:])
        return chars

    monkeypatch.setattr(loc, "chart_tangent_weights", perturbed)
    clear_engine_caches()
    try:
        assert chern_residue_sums(m, 1, ((1,),)) == [Fraction(-1, 2)]
        for n in (2, 3):
            with pytest.raises(ConsistencyError, match="disagree"):
                chern_residue_sums(m, n, enumerate_partitions(2 * n - 1))
        for n in (1, 2, 3):
            assert integrate(m, n, chern_monomial(enumerate_partitions(2 * n - 1)[0])) == 0
    finally:
        clear_engine_caches()


# -- the central symmetry: the even sums on half the fixed points ---------------------


def opposite_blowups(i):
    """P1xP1 blown up at chart i and then at the chart opposite it: six rays,
    rays[c + 3] = -rays[c]."""
    return blowup(blowup(p1xp1(), i), (i + 3) % 5)


CENTRALLY_SYMMETRIC = [p1xp1(), *(opposite_blowups(i) for i in range(4))]


def _orbits(model, n, ladder):
    import hilbloc.localization as loc

    return loc._sigma_orbits(model, n, n, one_ps_ladder(model, n, ladder))


def power_sum_table(model, n):
    """The table of the power-sum pass of Hilb^n at the ladder of Hilb^n, the
    columns [p_0, ..., p_2n] of `_hilb_beta`."""
    import hilbloc.localization as loc

    return lambda spec, block, cols: [[2 * n] * len(block), *loc._point_power_sums(model, n, n, spec, block)]


def test_orbits_of_the_central_symmetry():
    # one point per orbit {p, sigma(p)}, counted by the orbit's size
    for model in CENTRALLY_SYMMETRIC:
        h = len(model.rays) // 2
        assert all(model.rays[c + h] == tuple(-x for x in model.rays[c]) for c in range(h))
        for n in range(5):
            for ladder in ("xi", "eta"):
                points, mults = _orbits(model, n, ladder)
                orbits = {fp: {fp, fp[h:] + fp[:h]} for fp in points}
                assert [len(orbit) for orbit in orbits.values()] == mults
                assert sorted(set().union(*orbits.values())) == sorted(enumerate_fixed_points(model, n))
                assert sum(mults) == len(enumerate_fixed_points(model, n)) > len(points) or n == 0
    # no central symmetry (at n = 0 the one point is its own orbit on any fan):
    # F_1 three ways, F_2, five rays, and six rays blown up at adjacent charts
    others = [p2(), *(blowup(p2(), c) for c in range(3)), ToricSurface("F_2", ((1, 0), (0, 1), (-1, 2), (0, -1)))]
    others += [blowup(p1xp1(), 0), blowup(blowup(p1xp1(), 0), 1)]
    for model in others:
        for n in range(1, 4):
            assert _orbits(model, n, "xi") == (enumerate_fixed_points(model, n), None)


@pytest.mark.ci_examples
@settings(max_examples=example_count(20), deadline=None)
@given(
    st.sampled_from(CENTRALLY_SYMMETRIC),
    st.integers(0, 4),
    st.sampled_from(("xi", "eta")),
    st.sampled_from(("e", "p")),
    st.sampled_from((1, 7, 256)),
)
def test_orbit_sums_match_full_sums(model, n, ladder, kind, block):
    # the Chern numbers and the power-sum class on one point per orbit, the
    # point's scale times the orbit's size, against the sums over every point
    import hilbloc.localization as loc

    lams = enumerate_partitions(2 * n)
    if kind == "e":
        table = lambda spec, block, cols: loc._chern_classes(cols, len(block), 2 * n, repeat(1))  # noqa: E731
    else:
        table = power_sum_table(model, n)
    assert _orbits(model, n, ladder)[1] is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loc, "_BLOCK", block)
        full = loc._monomial_sums(model, n, n, ladder, lams, table)
        assert loc._monomial_sums(model, n, n, ladder, lams, table, orbits=True) == full
        if kind == "e":
            assert chern_residue_sums(model, n, lams, ladder) == full
    if kind == "p" and ladder == "xi":
        assert loc._hilb_beta(model, n, n) == beta_poly(2 * n, full)


def test_a_perturbed_chart_table_sums_every_point(monkeypatch):
    # (1, 0) -> (2, 0) at the one-point ideal of P1xP1's first chart: chart 2,
    # whose rays are the negated rays of chart 0, no longer holds the negated
    # weights, so the even sums visit every point, where the two
    # specializations disagree, and the sums of degree 2n - 1 see the change
    # as on P2
    import hilbloc.localization as loc

    m = p1xp1()
    first, weights = m.charts[0], loc.chart_tangent_weights

    def perturbed(chart, la):
        chars = weights(chart, la)
        if (chart, la) == (first, (1,)):
            assert chars[0] == (1, 0)
            return ((2, 0), *chars[1:])
        return chars

    monkeypatch.setattr(loc, "chart_tangent_weights", perturbed)
    clear_engine_caches()
    try:
        assert m.rays[2] == (-1, 0) and m.rays[3] == (0, -1)
        for n in (1, 2, 3):
            for ladder in ("xi", "eta"):
                assert _orbits(m, n, ladder) == (enumerate_fixed_points(m, n), None)
            with pytest.raises(ConsistencyError, match="disagree"):
                chern_numbers_hilb(m, n)
            with pytest.raises(ConsistencyError, match="disagree"):
                hilb_cobordism_series(m, n)
        assert chern_residue_sums(m, 1, ((1,),)) == [Fraction(-1, 2)]
        for n in (2, 3):
            with pytest.raises(ConsistencyError, match="disagree"):
                chern_residue_sums(m, n, enumerate_partitions(2 * n - 1))
    finally:
        clear_engine_caches()


def test_odd_degree_sums_and_integrands_visit_every_point(monkeypatch):
    # the blocks that each pass on P1xP1 hands to its table at the first 1-PS:
    # every point for the sums of degree 2n - 1 (there sigma-pairs cancel) and
    # for integrands (sigma does not negate tautological characters), half of
    # them for a set of Chern numbers
    import hilbloc.localization as loc

    seen = []
    pass_values = loc._monomial_sums

    def counted(model, n, order, ladder, monomials, table, **kwargs):
        first = loc.one_ps_ladder(model, order, ladder)[0]

        def counted_table(spec, block, cols):
            if spec == first:
                seen.append(len(block))
            return table(spec, block, cols)

        return pass_values(model, n, order, ladder, monomials, counted_table, **kwargs)

    monkeypatch.setattr(loc, "_monomial_sums", counted)
    m = p1xp1()
    passes = {
        "odd": lambda n: chern_residue_sums(m, n, enumerate_partitions(2 * n - 1)),
        "mixed": lambda n: chern_residue_sums(m, n, enumerate_partitions(2 * n - 1) + enumerate_partitions(2 * n)),
        "euler": lambda n: integrate(m, n, chern_monomial((2 * n,))),
        "todd": lambda n: integrate(m, n, Integrand(tangent_class=todd_series("x", 2 * n))),
        "ch": lambda n: integrate(m, n, Integrand.chern_character(TautClass(((o_bundle(m, 1, 0), 1),)), n, None)),
        "even": lambda n: chern_residue_sums(m, n, enumerate_partitions(2 * n)),
    }
    for n in (1, 2, 3):
        total = len(enumerate_fixed_points(m, n))
        for name, run in passes.items():
            seen.clear()
            run(n)
            assert sum(seen) == (len(_orbits(m, n, "xi")[0]) if name == "even" else total), (name, n)
        assert len(_orbits(m, n, "xi")[0]) < total


def test_n1_reduces_to_surface():
    m = p2()
    for k in range(4):
        assert chi_via_RR(m, 1, o_bundle(m, k)) == comb(k + 2, 2)
    assert integrate(m, 1, chern_monomial((2,))) == 3
    assert integrate(m, 1, chern_monomial((1, 1))) == 9


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


MODELS = {"p2": p2(), "p1xp1": p1xp1(), "blowup:p2:0": blowup(p2(), 0)}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_chern_numbers_match_integrand_evaluator(name):
    # the power-sum integrand evaluator is a separate code path
    model = MODELS[name]
    assert chern_numbers_hilb(model, 0) == ChernVector.point(1)
    for n in (0, 1, 2, 3):
        vec = chern_numbers_hilb(model, n)
        for la, value in vec.numbers:
            assert value == integrate(model, n, chern_monomial(la)), (n, la)


@pytest.mark.parametrize("spec", ["p2", "p1xp1", "blowup:p2:0", "blowup:blowup:p2:0:1"])
def test_cobordism_series_is_the_power_sum_form_of_the_chern_numbers(spec):
    # the power-sum residue sums against Newton's identities applied to the
    # Chern-number sums: two separate per-point numerators and conversions
    model = build_model(spec)
    h = hilb_cobordism_series(model, 5)
    assert h.var == "z" and h.order == 5
    assert h[0] == 1
    for n in range(6):
        assert h[n] == to_beta(chern_numbers_hilb(model, n)), n


def goettsche_euler(e, n):
    """The q^n coefficient of prod_k (1 - q^k)^(-e)."""
    series = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(e):
            for m in range(k, n + 1):
                series[m] += series[m - k]
    return series[n]


@pytest.mark.parametrize("name, euler", [("p2", 3), ("p1xp1", 4), ("blowup:p2:0", 4)])
def test_top_chern_number_is_goettsche(name, euler):
    for n in range(1, 9):
        assert chern_numbers_hilb(MODELS[name], n).value((2 * n,)) == goettsche_euler(euler, n)


def _perturb_second_sum(monkeypatch, gain=lambda i: 1):
    """Add gain(i) to the sum of each monomial i in the second product walk
    of the first pass, the second specialization's first block, as one more
    entry of both columns (gain(i) and 1); the first specialization's walks
    are left alone.  Blocks of 5 points make that one block of several
    wherever a pass has more than 5 fixed points.  Returns the indices
    that the perturbed walk's leaves received."""
    import hilbloc.localization as loc

    monkeypatch.setattr(loc, "_BLOCK", 5)
    walks = []  # one entry per call of the product walk
    seen = []
    walk_products = loc._walk_products

    def perturbed_walk(walk, table, root, leaf):
        walks.append(walk)
        if len(walks) == 2:
            unperturbed = leaf

            def leaf(i, xs, ys):
                seen.append(i)
                xs = list(xs)
                unperturbed(i, [*xs, gain(i)], [*islice(ys, len(xs)), 1])

        walk_products(walk, table, root, leaf)

    monkeypatch.setattr(loc, "_walk_products", perturbed_walk)
    return seen


def test_chern_gate_catches_a_perturbed_second_sum(monkeypatch):
    _perturb_second_sum(monkeypatch)
    chern_numbers_hilb.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="disagree"):
            chern_numbers_hilb(p2(), 3)
    finally:
        chern_numbers_hilb.cache_clear()


def test_cobordism_gate_catches_a_perturbed_second_sum(monkeypatch):
    import hilbloc.localization as loc

    _perturb_second_sum(monkeypatch)
    loc._hilb_betas.clear()
    try:
        with pytest.raises(ConsistencyError, match="disagree"):
            hilb_cobordism_series(p2(), 3)
    finally:
        loc._hilb_betas.clear()


def test_chern_gate_catches_a_non_integer(monkeypatch):
    import hilbloc.localization as loc

    # the second residue sum at n = 1 gains 1/2, so c1^2 = 9 of P2 reads 19/2
    pass_values = loc._monomial_sums
    monkeypatch.setattr(
        loc, "_monomial_sums", lambda *args, **kwargs: [v + Fraction(k, 2) for k, v in enumerate(pass_values(*args, **kwargs))]
    )
    chern_numbers_hilb.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="non-integral Chern number 19/2"):
            chern_numbers_hilb(p2(), 1)
    finally:
        chern_numbers_hilb.cache_clear()


def test_chern_gate_catches_a_zero_tangent_weight(monkeypatch):
    import hilbloc.localization as loc

    # (1, 1) kills the character (1, -1) of P2's tangent space at n = 1
    m = p2()
    assert (1, -1) in [c for fp in enumerate_fixed_points(m, 1) for c in tangent_weights(m, fp)]
    monkeypatch.setattr(loc, "one_ps_ladder", lambda model, n, ladder: [(1, 1), (1, 2)])
    chern_numbers_hilb.cache_clear()
    loc._hilb_betas.clear()
    try:
        with pytest.raises(ConsistencyError, match="zero tangent weight"):
            chern_numbers_hilb(m, 1)
        with pytest.raises(ConsistencyError, match="zero tangent weight"):
            hilb_cobordism_series(m, 1)
    finally:
        chern_numbers_hilb.cache_clear()
        loc._hilb_betas.clear()


def test_integrand_gate_catches_a_perturbed_second_sum(monkeypatch):
    m = p2()
    _perturb_second_sum(monkeypatch)
    with pytest.raises(ConsistencyError, match="disagree"):
        integrate(m, 2, Integrand(tangent_class=todd_series("x", 4)))


def test_integrand_gate_is_per_monomial(monkeypatch):
    # c2 + c1^2 on P2 at n = 1 is two monomial sums; the second
    # specialization's gain +1 and -1, so the integrand's value, 3 + 9, is
    # unchanged and only the gate per monomial sees the difference
    import hilbloc.localization as loc

    m = p2()
    poly = ((1, (("T", 2),)), (1, (("T", 1), ("T", 1))))
    integrand = Integrand(poly, (("T", "tangent"),))
    assert integrate(m, 1, integrand) == 12
    seen = _perturb_second_sum(monkeypatch, gain=lambda i: (1, -1)[i])
    received = []  # the two lists of sums that the gate compares
    agreed = loc._agreed

    def recorded(specs, values, others):
        received.extend((values, others))
        return agreed(specs, values, others)

    monkeypatch.setattr(loc, "_agreed", recorded)
    with pytest.raises(ConsistencyError, match="disagree"):
        integrate(m, 1, integrand)
    assert sorted(seen) == [0, 1]
    # both coefficients are 1: each specialization's value is the sum of its sums
    assert [sum(values) for values in received] == [12, 12]


def test_family_gate_catches_a_perturbed_second_sum(monkeypatch):
    # add 1 to each scale L_c / prod t of the first chart at the second
    # specialization; the first specialization's columns are left alone
    import hilbloc.localization as loc

    m = p2()
    chart_columns = loc._chart_columns
    specs = []

    def perturbed(model, order, spec):
        (p, o, den, scales), *rest = chart_columns(model, order, spec)
        specs.append(spec)
        if len(specs) == 2:
            scales = [x + 1 for x in scales]
        return ((p, o, den, scales), *rest)

    monkeypatch.setattr(loc, "_chart_columns", perturbed)
    with pytest.raises(ConsistencyError, match="disagree"):
        chi_series(m, 2, [o_bundle(m, k) for k in (0, 1, 2)], 1)
    assert len(set(specs)) == 2


def test_surface_number_gate_catches_a_perturbed_second_sum(monkeypatch):
    m = p2()
    bundles = (("L", TautClass(((o_bundle(m, 1), 1),))),)
    monomials = ((("L", 1), ("L", 1)), (("L", 2),))
    assert surface_number(m, monomials, bundles) == (1, 0)
    _perturb_second_sum(monkeypatch)
    with pytest.raises(ConsistencyError, match="disagree"):
        surface_number(m, monomials, bundles)


def test_surface_number_gate_catches_a_non_integer(monkeypatch):
    import hilbloc.localization as loc

    # the pass's second monomial sum gains 1/2, so K^2 = 9 reads 19/2 while e
    # stays 3: each value of one pass is gated on its own
    pass_values = loc._monomial_sums
    monkeypatch.setattr(loc, "_monomial_sums", lambda *args: [v + Fraction(k, 2) for k, v in enumerate(pass_values(*args))])
    monomials = ((("T", 2),), (("T", 1), ("T", 1)))
    with pytest.raises(ConsistencyError, match="non-integral surface number 19/2"):
        surface_number(p2(), monomials, (("T", "tangent"),))


def test_integrand_gate_catches_a_zero_tangent_weight(monkeypatch):
    import hilbloc.localization as loc

    # (1, 1) kills the character (1, -1) of P2's tangent space at n = 1
    m = p2()
    monkeypatch.setattr(loc, "one_ps_ladder", lambda model, n, ladder: [(1, 1), (1, 2)])
    with pytest.raises(ConsistencyError, match="zero tangent weight"):
        integrate(m, 1, chern_monomial((2,)))
    with pytest.raises(ConsistencyError, match="zero tangent weight"):
        chi_series(m, 1, [o_bundle(m, 0), o_bundle(m, 1)], 0)


@pytest.mark.parametrize("name", ["p2", "p1xp1"])
def test_chi_closed_forms_through_integer_path(name):
    # chi(L_n) = C(chi(L) + n - 1, n) and chi(L_n (x) E) = C(chi(L), n)
    model = MODELS[name]
    if name == "p2":
        degrees = [(k,) for k in range(-3, 4)]
        chis = [Fraction((k + 1) * (k + 2), 2) for (k,) in degrees]
    else:
        degrees = [(k1, k2) for k1 in (-2, 0, 1) for k2 in (-1, 0, 2)]
        chis = [Fraction((k1 + 1) * (k2 + 1)) for k1, k2 in degrees]
    bundles = [o_bundle(model, *ks) for ks in degrees]
    rows0, rows1 = chi_series(model, 6, bundles, 0), chi_series(model, 6, bundles, 1)
    for n in range(1, 7):
        assert [row[n] for row in rows0] == [binomial(c + n - 1, n) for c in chis]
        assert [row[n] for row in rows1] == [binomial(c, n) for c in chis]


@pytest.mark.parametrize("name, euler", [("p2", 3), ("p1xp1", 4), ("blowup:p2:0", 4)])
def test_top_chern_integrand_is_goettsche(name, euler):
    # the Chern-polynomial branch of the integrand evaluator, not the Chern-number sum
    for n in range(1, 7):
        assert integrate(MODELS[name], n, chern_monomial((2 * n,))) == goettsche_euler(euler, n)


def test_det_taut_weight_is_the_cell_sum():
    # weight(L_n (x) E^r) = sum weights(L^[n]) + (r - 1) sum weights(O^[n])
    def weight_sum(model, fp, line):
        pairs = taut_weights(model, fp, TautClass(((line, 1),)))
        return tuple(sum(m * w[i] for w, m in pairs) for i in (0, 1))

    for model in MODELS.values():
        rays = len(model.rays)
        o = line_bundle(model, [0] * rays)
        bundles = [o, line_bundle(model, range(1, rays + 1)), line_bundle(model, [3, -2] + [0] * (rays - 2))]
        # the column kernel reads the j-th multiplicity of a class once per
        # block: it is the same at every fixed point, n per summand in order
        classes = [TautClass(((bundles[1], -2), (o, 1)), 3), TautClass(((bundles[2], 2),), -1), TautClass((), 2)]
        for n in (1, 2, 3):
            for fp in enumerate_fixed_points(model, n):
                o_sum = weight_sum(model, fp, o)
                for L in bundles:
                    l_sum = weight_sum(model, fp, L)
                    for r in (-2, 0, 1, 3):
                        expected = tuple(l_sum[i] + (r - 1) * o_sum[i] for i in (0, 1))
                        assert det_taut_weight(model, fp, [(L, r)]) == [expected]
                for x in classes:
                    summands = [m for _, m in x.line_bundles] + ([x.trivial] if x.trivial else [])
                    assert [m for _, m in taut_weights(model, fp, x)] == [m for m in summands for _ in range(n)]


def test_taut_class_rank():
    m = p2()
    x = TautClass(((o_bundle(m, 1), 2),), 3)
    assert x.rank == 5
    assert_record(x, "line_bundles trivial", TautClass(x.line_bundles), TautClass(trivial=3))
    assert TautClass(trivial=3) == TautClass((), 3) and repr(TautClass()) == "TautClass(line_bundles=(), trivial=0)"
    # a record with an unhashable field constructs; only hashing it fails
    y = TautClass([(o_bundle(m, 1), 2)], 3)
    assert y.rank == 5 and y != x
    with pytest.raises(TypeError):
        hash(y)
    chi = Integrand.chern_character(TautClass(((o_bundle(m, 1), 1),)), 1, todd_series("x", 2))
    assert_record(
        chi, "poly bundles tangent_class",
        Integrand(tangent_class=todd_series("x", 2)), chern_monomial((2,)), Integrand(),
    )
    assert chi == Integrand(chi.poly, (("X", TautClass(((o_bundle(m, 1), 1),))),), todd_series("x", 2))


def test_ch_taut_riemann_roch():
    m = p2()
    for n in (1, 2, 3):
        for k in (1, 2):
            x = TautClass(((o_bundle(m, k), 1),))
            val = integrate(m, n, Integrand.chern_character(x, n, todd_series("x", 2 * n)))
            assert val == comb(k + 2, 2)


# -- the epsilon-chain evaluator, kept as the oracle of the power-sum one -------------
#
# Every factor of the integrand is folded into an eps-series of Fractions by
# one product per tangent weight (Todd, tangent class) or per line bundle
# (total Chern class), as the engine did before it moved to power sums.  A
# case is a dict: a Chern polynomial ("poly" over "bundles"), an optional
# Todd factor ("todd"), tangent class ("phi"), determinant twist e^w ("det",
# (L, r)) and Chern character sum m e^w ("ch", a TautClass); the oracle
# applies each one directly at every point, while the engine gets Todd * Phi
# as one tangent class, and the twist and ch as Chern polynomials.


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


def _chain_point_value(model, n, fp, case, spec):
    order = 2 * n

    def specialize(c):
        return c[0] * spec[0] + c[1] * spec[1]

    tvals = [specialize(c) for c in tangent_weights(model, fp)]
    denom = 1
    for v in tvals:
        denom *= v
    bundle_map = dict(case["bundles"])
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
    for coeff, monos in case["poly"]:
        deg = sum(d for _, d in monos)
        if deg > order:
            continue
        val = Fraction(coeff)
        for name, d in monos:
            val *= chern_of(name, d)
        series[deg] += val
    qs = [todd_series("x", order).coeffs] if case["todd"] else []
    if case["phi"] is not None:
        qs.append(case["phi"].coeffs)
    for q in qs:
        for t in tvals:
            series = _eps_mul(series, [q[k] * t**k for k in range(order + 1)], order)
    if case["det"] is not None:
        w = specialize(det_taut_weight(model, fp, [case["det"]])[0])
        series = _eps_mul(series, _eps_exp_weight(w, order), order)
    if case["ch"] is not None:
        ch = [Fraction(0)] * (order + 1)
        for c, m in taut_weights(model, fp, case["ch"]):
            for k, e in enumerate(_eps_exp_weight(specialize(c), order)):
                ch[k] += m * e
        series = _eps_mul(series, ch, order)
    return Fraction(series[order], denom)


def chain_integrate(model, n, case):
    spec = one_ps_ladder(model, n, "xi")[0]
    return sum(
        (_chain_point_value(model, n, fp, case, spec) for fp in enumerate_fixed_points(model, n)),
        Fraction(0),
    )


def expdet_integrand(L, r, n, tangent_class=None, name="X"):
    """e^{c1(L_n (x) E^r)} times the tangent class on Hilb^n, as the Chern
    polynomial sum_d c1(X)^d / d! of X = x^[n], x = L + (r - 1) O: det(x^[n])
    = det(x)_n (x) E^{rank x}."""
    poly = tuple((Fraction(1, factorial(d)), ((name, 1),) * d) for d in range(2 * n + 1))
    return Integrand(poly, ((name, TautClass(((L, 1),), r - 1)),), tangent_class)


def _times(poly, other, n):
    """The product of two Chern polynomials, up to degree 2n."""
    return tuple(
        (a * b, ma + mb) for a, ma in poly for b, mb in other if sum(d for _, d in ma + mb) <= 2 * n
    )


def engine_integrate(model, n, case):
    """The case through the engine: one Integrand, Todd * Phi its tangent
    class and ch(X) * e^{c1(D)} * the Chern polynomial its polynomial, with
    D the class whose determinant is the twist."""
    qs = ([todd_series("x", 2 * n)] if case["todd"] else []) + ([case["phi"]] if case["phi"] is not None else [])
    tangent = qs[0] * qs[1] if len(qs) == 2 else (qs[0] if qs else None)
    poly, bundles = case["poly"], case["bundles"]
    if case["ch"] is not None:
        ch = Integrand.chern_character(case["ch"], n, None)
        poly = _times(poly, ch.poly, n)
        bundles += ch.bundles
    if case["det"] is not None:
        expdet = expdet_integrand(*case["det"], n, name="D")
        poly = _times(poly, expdet.poly, n)
        bundles += expdet.bundles
    return integrate(model, n, Integrand(poly, bundles, tangent))


MODELS = {"p2": p2(), "p1xp1": p1xp1(), "blowup:p2:0": blowup(p2(), 0)}


def _segre_poly(top: int):
    """The total Segre class 1/(1 + c1 + c2 + ...) as (coeff, monomial)
    pairs in the Chern classes of the bundle named 'X'."""
    # formal inversion: s_0 = 1, s_d = -sum_{i>=1} c_i s_{d-i}
    s = [dict() for _ in range(top + 1)]
    s[0] = {(): Fraction(1)}
    for d in range(1, top + 1):
        acc = {}
        for i in range(1, d + 1):
            for mono, c in s[d - i].items():
                key = tuple(sorted(mono + (i,), reverse=True))
                acc[key] = acc.get(key, Fraction(0)) - c
        s[d] = acc
    poly = []
    for d in range(top + 1):
        for mono, c in s[d].items():
            poly.append((c, tuple(("X", i) for i in mono)))
    return tuple(poly)


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
    case = {"poly": Integrand().poly, "bundles": (), "todd": draw(st.booleans()), "phi": None, "det": None, "ch": None}
    if draw(st.booleans()):
        q0 = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(-1, 2))))
        rest = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=6, max_size=6))
        case["phi"] = TruncSeries("x", 6, [q0, *rest])
    if draw(st.booleans()):
        case["det"] = (draw(bundles_of(model)), draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        case["ch"] = draw(virtual_classes(model))
    if draw(st.booleans()):
        top = 2 * n
        if draw(st.booleans()):
            poly = tuple((Fraction(1), (("X", d),) if d else ()) for d in range(top + 1))
        else:
            poly = _segre_poly(top)
        # the Chern character's class is named "X"
        case["poly"] = tuple((c, tuple(("Y", d) for _, d in mono)) for c, mono in poly)
        case["bundles"] = (("Y", draw(virtual_classes(model))),)
    count = len(enumerate_fixed_points(model, n))
    block = draw(st.sampled_from((count - 1, count, count + 1, 1, 2, 7)).filter(lambda b: b >= 1))
    return model, n, case, block


@pytest.mark.ci_examples
@settings(max_examples=example_count(40), deadline=None)
@given(integrand_cases())
def test_power_sum_evaluator_matches_eps_chain(case):
    import hilbloc.localization as loc

    model, n, case, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loc, "_BLOCK", block)
        value = engine_integrate(model, n, case)
    assert value == chain_integrate(model, n, case)


def test_k_family_matches_per_k_chi():
    # one chart product for every bundle and n, against one residue pass per
    # bundle and n of td(T) e^{c1(L_n (x) E^r)} as a Chern polynomial
    for model, n, coeffs in ((p2(), 3, ((0, 0, 0), (1, 0, 2), (2, 1, 0))), (p1xp1(), 2, ((0, 0, 0, 0), (1, 0, 2, 0)))):
        bundles = [line_bundle(model, c) for c in coeffs]
        for r in (-2, 0, 3):
            walked = [
                [integrate(model, k, expdet_integrand(L, r, k, todd_series("x", 2 * k))) for k in range(n + 1)]
                for L in bundles
            ]
            assert chi_series(model, n, bundles, r) == walked
            assert [chi_via_RR(model, n, L, r) for L in bundles] == [row[n] for row in walked]


def test_tangent_class_without_constant_term_is_rejected():
    q = TruncSeries("x", 4, [0, 1])
    with pytest.raises(ValueError):
        integrate(p2(), 2, Integrand(tangent_class=q))


def test_segre_path_is_the_segre_polynomial():
    # h_psi_phi takes the Segre class as c(-X); the oracle expands 1/c(X) in Chern classes
    phi = TruncSeries("x", 6, [1, Fraction(1, 2), Fraction(-1, 3), 2, 0, Fraction(1, 5), -1])
    for model, x in _reference_classes(2):
        series = h_psi_phi(model, x, "segre", phi, 3)
        for n in range(1, 4):
            oracle = Integrand(poly=_segre_poly(2 * n), bundles=(("X", x),), tangent_class=phi)
            assert series[n] == integrate(model, n, oracle)


def test_expdet_is_the_determinant_twist():
    # h_psi_phi takes exp(c1(x^[n])) as the chart product of chi(L_n (x) E^r)
    # with Phi in place of Todd, L = det x and r = rank x, by det(x^[n]) =
    # det(x)_n (x) E^{rank x}; the oracle is the walk of the Chern polynomial
    # sum c1^d / d! of L + (r - 1) O, and with the Todd class it is chi
    phi = TruncSeries("x", 6, [1, Fraction(1, 2), Fraction(-1, 3), 2, 0, Fraction(1, 5), -1])
    bl = MODELS["blowup:p2:0"]
    x_bl = TautClass(((line_bundle(bl, (1, 0, -1, 2)), 2), (line_bundle(bl, (0, 1, 0, 0)), -1)), 1)
    for model, x in (*_reference_classes(2), (bl, x_bl)):
        det = line_bundle(model, [sum(m * L.coeffs[i] for L, m in x.line_bundles) for i in range(len(model.rays))])
        series = h_psi_phi(model, x, "expdet", phi, 3)
        for n in range(4):
            assert series[n] == integrate(model, n, expdet_integrand(det, x.rank, n, phi)), (x, n)
        todd = h_psi_phi(model, x, "expdet", todd_series("x", 6), 3)
        assert list(todd.coeffs) == chi_series(model, 3, (det,), x.rank)[0], x


@st.composite
def chi_cases(draw):
    """A surface (the three models or a two-level blowup), one or two line
    bundles with coefficients in -2..2, r in -3..3, order <= 3 and a ladder."""
    model = draw(st.sampled_from((*MODELS.values(), blowup(blowup(p2(), 0), 1))))
    bundles = draw(st.lists(bundles_of(model), min_size=1, max_size=2))
    return model, bundles, draw(st.integers(-3, 3)), draw(st.integers(0, 3)), draw(st.sampled_from(("xi", "eta")))


@pytest.mark.ci_examples
@settings(max_examples=example_count(20), deadline=None)
@given(chi_cases())
def test_chi_series_matches_the_tuple_walk(case):
    # the chart product against the residue pass of td(T) e^{c1(X)} with
    # c1(X^[n]) = c1(L_n (x) E^r), n by n
    model, bundles, r, order, ladder = case
    walked = [
        [integrate(model, n, expdet_integrand(L, r, n, todd_series("x", 2 * n)), ladder) for n in range(order + 1)]
        for L in bundles
    ]
    assert chi_series(model, order, bundles, r, ladder) == walked


def _walked_char_bound(model, n):
    """The ladder bound from every tangent character at every fixed point."""
    b1 = b2 = 1
    for fp in enumerate_fixed_points(model, n):
        for a1, a2 in tangent_weights(model, fp):
            if a2 != 0:
                b1 = max(b1, abs(a1))
            if a1 != 0:
                b2 = max(b2, abs(a2))
    return b1 + 1, b2 + 1


# -- the blocked partition-sum kernel against the per-point pass ----------------------


@st.composite
def small_blowups(draw):
    """P2 or P1xP1 blown up at most twice."""
    model = draw(st.sampled_from((p2(), p1xp1())))
    for _ in range(draw(st.integers(0, 2))):
        model = blowup(model, draw(st.integers(0, len(model.charts) - 1)))
    return model


@st.composite
def blocked_cases(draw):
    """A surface (`small_blowups`), n <= 4, a ladder, a factor kind and a
    block size: one block exactly, one block +- 1 point, or a few points."""
    model = draw(small_blowups())
    n = draw(st.integers(0, 4))
    count = len(enumerate_fixed_points(model, n))
    block = draw(st.sampled_from((count - 1, count, count + 1, 1, 2, 7)).filter(lambda b: b >= 1))
    return model, n, draw(st.sampled_from(("xi", "eta"))), draw(st.sampled_from(("e", "p"))), block


@pytest.mark.ci_examples
@settings(deadline=None)
@given(blocked_cases())
def test_blocked_partition_sums_match_per_point_oracle(case):
    import hilbloc.localization as loc

    model, n, ladder, kind, block = case
    if kind == "e":
        kernel = partial(loc._chern_classes, order=2 * n, mults=repeat(1))
        table = lambda spec, block, cols: kernel(cols, len(block))  # noqa: E731
        oracle = residue_oracle.elementary_symmetric
    else:
        # the power sums of a point are its charts' rows added up
        table = power_sum_table(model, n)
        oracle = partial(residue_oracle.tangent_power_sums, order=2 * n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loc, "_BLOCK", block)
        values = loc._monomial_sums(model, n, n, ladder, enumerate_partitions(2 * n), table)
    assert values == residue_oracle.partition_sums(model, n, ladder, oracle)


def _moment_character(chart, la):
    """The character of det O^[|la|] at the one-chart point la from the
    moments of la: its cells (i, j) have sum i = sum_i i la_i and sum j =
    sum_i binom(la_i, 2)."""
    si = sum(i * row for i, row in enumerate(la))
    sj = sum(row * (row - 1) // 2 for row in la)
    return -si * chart.w1[0] - sj * chart.w2[0], -si * chart.w1[1] - sj * chart.w2[1]


@pytest.mark.ci_examples
@settings(max_examples=example_count(30), deadline=None)
@given(small_blowups(), st.integers(0, 4), st.sampled_from(("xi", "eta")), st.data())
def test_chart_table_matches_per_partition_facts(model, n, ladder, data):
    # the shared specialization table against each partition's own tangent
    # characters, the power-sum rows (p_1..p_2n, the empty partition's too)
    # against the power sums of those, and the cell sums (the chart product's
    # o_c and det_taut_weight) against the moments of the partitions
    import hilbloc.localization as loc

    lams = [la for m in range(n + 1) for la in enumerate_partitions(m)]
    for spec in one_ps_ladder(model, n, ladder):
        columns = loc._chart_columns(model, n, spec)
        tables = zip(model.charts, chart_specializations(model, n, spec), loc._chart_power_rows(model, n, spec), columns)
        for chart, weights, rows, cols in tables:
            assert list(weights) == list(rows) == lams
            tvals = [residue_oracle.specialize_tangents(chart_tangent_weights(chart, la), spec) for la in lams]
            assert [list(w) for w in weights.values()] == tvals
            assert [list(row) for row in rows.values()] == [residue_oracle.tangent_power_sums(t, 2 * n)[1:] for t in tvals]
            assert cols[1] == loc._specialize([_moment_character(chart, la) for la in lams], spec)
    L, r = data.draw(bundles_of(model)), data.draw(st.integers(-3, 3))
    for fp in enumerate_fixed_points(model, n):
        want = (0, 0)
        for chart, la in zip(model.charts, fp):
            lw, o = L.local_weight(chart), _moment_character(chart, la)
            want = tuple(want[i] + sum(la) * lw[i] + r * o[i] for i in (0, 1))
        assert det_taut_weight(model, fp, [(L, r)]) == [want]


def test_char_bound_matches_fixed_point_walk():
    models = [p2(), p1xp1(), *(blowup(p2(), i) for i in range(3))]
    models += [blowup(blowup(p2(), 0), 1), blowup(blowup(p1xp1(), 2), 0)]
    for model in models:
        for n in range(8):
            assert _char_bound(model, n) == _walked_char_bound(model, n), (model.name, n)


# -- the product walk and the Chern kernel against factor-by-factor products ----------


FACTORS = st.tuples(st.integers(0, 2), st.integers(0, 3)).map(lambda f: 4 * f[0] + f[1])  # slot, degree


@st.composite
def monomial_sets(draw):
    """Monomials in (slot, degree) factors, as integers the way the
    integrands number them, with the empty monomial, prefixes of other
    monomials and monomials equal after sorting."""
    monos = draw(st.lists(st.lists(FACTORS, max_size=4).map(tuple), min_size=1, max_size=6))
    for mono in list(monos):
        kind = draw(st.sampled_from(("none", "empty", "prefix", "reordered")))
        if kind == "empty":
            monos.append(())
        elif kind == "prefix":
            monos.append(mono[: draw(st.integers(0, len(mono)))])
        elif kind == "reordered":
            monos.append(tuple(draw(st.permutations(mono))))
    return tuple(draw(st.permutations(monos)))


@pytest.mark.ci_examples
@settings(max_examples=example_count(100), deadline=None)
@given(monomial_sets(), st.lists(st.integers(-9, 9), min_size=1, max_size=3))
def test_product_walk_matches_factor_by_factor_products(monomials, root):
    from hilbloc.localization import _product_walk, _walk_products

    width = len(root)
    table = [[(f + 2) * (-1) ** w + w for w in range(width)] for f in range(12)]
    walk = _product_walk(monomials)
    seen = {}

    def leaf(i, xs, ys):
        assert i not in seen
        seen[i] = [x * y for x, y in zip(xs, ys)]

    _walk_products(walk, table, root, leaf)
    for i, mono in enumerate(monomials):
        col = list(root)
        for factor in mono:
            col = [a * b for a, b in zip(col, table[factor])]
        assert seen.pop(i) == col, mono
    assert not seen
    prefixes = {tuple(sorted(mono))[:d] for mono in monomials for d in range(1, len(mono) + 1)}
    assert sum(1 for depth, *_ in walk if depth) == len(prefixes)


def test_product_walk_counts():
    # one column product per distinct nonempty prefix: the partitions of 6 and
    # 14 (35 and 780 parts), and the monomials of ch(x^[n]) (77, 217 and 2547
    # factors at n = 3, 4, 7)
    from hilbloc.localization import _integrand_terms, _product_walk, _tangent_log

    def products(walk):
        return sum(1 for depth, *_ in walk if depth)

    def monomials(integrand):  # every degree, the factors c_k of X as k
        return tuple(tuple(k for _, k in mono) for _, mono in integrand.poly)

    assert [products(_product_walk(enumerate_partitions(m))) for m in (6, 14)] == [21, 269]
    x = TautClass(((o_bundle(p2(), 1), 1),))
    integrands = [Integrand.chern_character(x, n, None) for n in (3, 4, 7)]
    assert [products(_product_walk(monomials(integrand))) for integrand in integrands] == [29, 66, 507]
    # monomials equal once their factors are sorted are one term, and a zero
    # coefficient drops its monomial: also one that cancels
    poly = ((1, (("X", 1), ("X", 3))), (2, (("X", 3), ("X", 1))), (0, (("X", 4),)))
    poly += ((1, (("X", 2), ("X", 2))), (-1, (("X", 2), ("X", 2))))
    assert _integrand_terms(Integrand(poly, (("X", x),)), 2, {}) == {(1, 3): 3}
    # with a tangent class (Todd: Q(0) = 1) a term of degree 4 is unchanged,
    # and a term of degree deg < 4 gains the factor E_{4 - deg} of the tangent
    # slot (slot 1: factors 5..9) and the factor 1 / ((4 - deg)! D^(4 - deg))
    todd = todd_series("x", 4)
    assert _integrand_terms(Integrand(poly, (("X", x),), todd), 2, {}) == {(1, 3): 3}
    _, d, _ = _tangent_log(todd, 4)
    poly = ((1, ()), (2, (("X", 1), ("X", 2))), (3, (("X", 4),)))
    terms = _integrand_terms(Integrand(poly, (("X", x),), todd), 2, {})
    assert terms == {(9,): Fraction(1, factorial(4) * d**4), (1, 2, 6): Fraction(2, d), (4,): 3}


@st.composite
def chern_kernel_cases(draw):
    """Weight columns over a few points with multiplicities in any order (a
    positive one after a negative one among them), or every multiplicity 1
    with order the number of weights."""
    width, count = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    cols = [draw(st.lists(st.integers(-5, 5), min_size=width, max_size=width)) for _ in range(count)]
    if draw(st.booleans()):
        return cols, [1] * count, count
    mults = draw(st.lists(st.sampled_from((-2, -1, 0, 1, 2)), min_size=count, max_size=count))
    if count >= 2 and draw(st.booleans()):
        mults[draw(st.integers(0, count - 2))], mults[-1] = -1, 1
    return cols, mults, draw(st.integers(0, 6))


@pytest.mark.ci_examples
@settings(max_examples=example_count(100), deadline=None)
@given(chern_kernel_cases())
def test_chern_classes_match_per_point_total_chern(case):
    from hilbloc.localization import _chern_classes

    cols, mults, order = case
    width = len(cols[0]) if cols else 2
    c = _chern_classes(cols, width, order, mults)
    assert len(c) == order + 1
    for point in range(width):
        weights = [col[point] for col in cols]
        expected = _total_chern(list(zip(weights, mults)), order)
        assert [col[point] for col in c] == expected, (weights, mults, order)
        if mults == [1] * len(cols) and order == len(cols):
            assert [col[point] for col in c] == residue_oracle.elementary_symmetric(weights)


# -- one ladder per Hilbert series ------------------------------------------------------


@st.composite
def series_cases(draw):
    """A smooth complete fan (P2 or F_a with a <= 3, blown up 0-2 times at
    drawn charts) and an order <= 3."""
    a = draw(st.integers(-1, 3))
    model = p2() if a < 0 else ToricSurface(f"F_{a}", ((1, 0), (0, 1), (-1, a), (0, -1)))
    for _ in range(draw(st.integers(0, 2))):
        model = blowup(model, draw(st.integers(0, len(model.rays) - 1)))
    return model, draw(st.integers(0, 3))


@pytest.mark.ci_examples
@settings(max_examples=example_count(15), deadline=None)
@given(series_cases())
def test_series_terms_match_passes_at_their_own_ladders(case):
    # the series runs every n <= order at the ladder of order; a pass over
    # every point at n's own xi or eta ladder gives the same class, term by term
    import hilbloc.localization as loc

    model, order = case
    for n in range(order + 1):
        loc._hilb_betas.pop((model, n), None)
    h = hilb_cobordism_series(model, order)
    for n in range(order + 1):
        lams = enumerate_partitions(2 * n)
        for ladder in ("xi", "eta"):
            own = beta_poly(2 * n, loc._monomial_sums(model, n, n, ladder, lams, power_sum_table(model, n)))
            assert list(h[n].terms.items()) == list(own.terms.items()), (model.name, n, ladder)


def test_a_longer_series_runs_only_the_new_passes(monkeypatch):
    import hilbloc.localization as loc

    model = blowup(p2(), 1)
    for n in range(6):
        loc._hilb_betas.pop((model, n), None)
    passes, run = [], loc._monomial_sums

    def spy(*args, **kwargs):
        passes.append((args[1], args[2]))  # (n, the order of the ladder)
        return run(*args, **kwargs)

    monkeypatch.setattr(loc, "_monomial_sums", spy)
    h3 = hilb_cobordism_series(model, 3)
    assert passes == [(0, 3), (1, 3), (2, 3), (3, 3)]
    passes.clear()
    h5 = hilb_cobordism_series(model, 5)
    assert passes == [(4, 5), (5, 5)]
    assert h5.coeffs[:4] == h3.coeffs
    passes.clear()
    assert hilb_cobordism_series(model, 4) == h5.truncate(4) and passes == []


# -- the cell-character table against taut_weights, point by point -----------------


@st.composite
def taut_table_cases(draw):
    """A surface of the oracle comparisons or a drawn fan (`series_cases`),
    n <= 3, a class of at most two line bundles with multiplicities +-1, +-2
    and a trivial part, and a ladder."""
    model = draw(st.one_of(st.sampled_from(surface_oracle.SURFACES), series_cases().map(lambda case: case[0])))
    return model, draw(st.integers(0, 3)), draw(virtual_classes(model)), draw(st.sampled_from(("xi", "eta")))


@pytest.mark.ci_examples
@settings(max_examples=example_count(30), deadline=None)
@given(taut_table_cases())
def test_chart_cells_match_specialized_taut_weights(case):
    # at both 1-PS of the pass: the Chern columns of a tautological slot, read
    # from `_chart_cells` shifted by each summand's weight at the chart, against
    # those of `taut_weights` specialized point by point, and the chart
    # product's o column against the specialized cell characters summed
    import hilbloc.localization as loc

    model, n, x, ladder = case
    points = enumerate_fixed_points(model, n)
    for spec in one_ps_ladder(model, n, ladder):
        pairs = [taut_weights(model, fp, x) for fp in points]
        cols = list(zip(*([c[0] * spec[0] + c[1] * spec[1] for c, _ in point] for point in pairs)))
        want = loc._chern_classes(cols, len(points), 2 * n, [m for _, m in pairs[0]])
        assert loc._taut_chern_classes(model, n, x, spec, points) == want
        charts = zip(model.charts, chart_specializations(model, n, spec), loc._chart_columns(model, n, spec))
        for chart, weights, columns in charts:
            o = [sum(c[0] * spec[0] + c[1] * spec[1] for c in loc._cell_characters(chart, la)) for la in weights]
            assert list(columns[1]) == o
