"""Torus fixed points of Hilb^n over a toric surface and the exact
Bott-residue integrator.

A fixed point assigns one partition per chart (monomial ideals at the
torus-fixed points of S), with total size n, and each fact of one (chart,
partition) is computed in one place: its tangent characters (the arm/leg
formula) in `chart_tangent_weights`, the characters of its cells (the
fibre of O^[n]) in `_cell_characters`, and at a 1-PS one cached table per
fact over the partitions of size <= order: the tangent weights in
`chart_specializations` (read by the residue sums, the chart product and
the Betti numbers of `genera`), the cell characters in `_chart_cells` (a
tautological bundle's weights are them shifted by its weight at the chart,
and the chart product's o_c is their sum) and the power sums p_1, ...,
p_2n of the tangent weights in `_chart_power_rows`.  p_k is additive over
the charts, so the power sums of a fixed point (`_hilb_beta`, the tangent
class of an integrand) are the sum of its charts' rows.

Every sum over the fixed points of Hilb^n here is a set of monomial sums
over one column table: `_monomial_sums` walks the fixed points in blocks of
a few hundred and, per block and 1-PS, calls the pass's one callback
table(spec, block, cols), which reads the chart tables and returns the
columns (one list over the block's points per symmetric function of its
weights), and sums each monomial in their factors over prod t.  For Chern
numbers the monomials are the partitions la of 2n in the columns e_p(t);
for the power-sum polynomial of Hilb^n(S) (the cobordism class that
`hilb_cobordism_series` returns) they are the partitions mu in p_p(t).
Every other integrand has one shape, a polynomial in the Chern classes of
tautological bundles (and of T) times one multiplicative tangent class
(Todd for Riemann-Roch), and is a rational combination of monomials of
degree 2n in the Chern classes and the scaled tangent exponential (see
"integrand" below).  Every product of columns runs along one walk over a
trie of monomials (`_product_walk`), one column product per distinct
nonempty prefix, and a monomial's block sum is one dot product with the
column of scales.  Characters stay symbolic (integer pairs) until the pass
specializes them along the two members of a deterministic ladder of
generic one-parameter subgroups; each specialization keeps integer
numerators over one denominator D = prod_c L_c, L_c the lcm of prod t over
the chart's partitions (`_chart_denominators`, read by the chart product
too), and the two exact sums must agree monomial by monomial.

On a centrally symmetric fan, rays[c + e/2] = -rays[c] (P1xP1, or P1xP1
blown up at two opposite charts), the rotation sigma of the fixed points by
e/2 charts negates every tangent weight, so a monomial of even degree 2n in
the tangent weights alone takes the same value over prod t at p and at
sigma(p).  The Chern numbers and the power-sum class then sum one point per
sigma-orbit, its scale times the orbit's size (`_sigma_orbits`, which reads
the symmetry off the cached `chart_specializations` tables of both 1-PS, not
off the rays, and sums every point when it fails).
The sums of degree 2n - 1 of the dimension axiom are not reduced, since
sigma-pairs cancel there, nor are integrands, since sigma does not negate
tautological characters.

chi(L_n (x) E^r) is not a pass over tuples of partitions: its integrand
td(T) e^{c1(L_n (x) E^r)} is multiplicative over the charts, so
`chi_series` gives it for every n <= order at once as one product over
the charts of sums over single partitions, on the same column kernels and
under the same two-specialization gate; with a genus's series in place of
Todd it is the genus of Hilb^n(S) (`genera.genus_hilb_series`).

Numbers on the surface itself (intersection numbers, the gamma-vectors of
`universal`) are the case n = 1, since Hilb^1(S) = S: `surface_number`
integrates several Chern monomials there in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import factorial, lcm, prod
from operator import add, mul, sub

from .cobordism import ChernVector, beta_poly, power_sum_in_chern
from .partitions import arm_legs, enumerate_partitions
from .records import Record
from .series import TruncSeries, todd_series
from .toric import Chart, TLineBundle, ToricSurface


class ConsistencyError(RuntimeError):
    """Two independent 1-PS specializations disagreed, or (`universal.FitError`)
    an overdetermined fit failed: an engine bug."""


class TautClass(Record):
    """A K-theory class sum +/- [line bundle] + trivial * [O^triv]."""

    def __init__(self, line_bundles: tuple = (), trivial: int = 0):
        # line_bundles: tuple of (TLineBundle, multiplicity)
        self._freeze(line_bundles, trivial)

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.line_bundles) + self.trivial


def enumerate_fixed_points(model: ToricSurface, n: int) -> list:
    """The fixed points of Hilb^n(S), tuples of partitions (one per chart) of total
    size n, in lexicographic order chart by chart: a chart's partitions run by
    size from the largest down, rev-lex within one size."""
    if n < 0:
        raise ValueError("n must be non-negative")
    heads = [((), n)]  # the points' partitions at the first charts, with the size left for the others
    for _ in model.charts[1:]:
        heads = (
            (fp + (la,), left - m) for fp, left in heads for m in range(left, -1, -1) for la in enumerate_partitions(m)
        )
    return [fp + (la,) for fp, left in heads for la in enumerate_partitions(left)]


# -- weight data --------------------------------------------------------------
#
# Orientation convention: within a chart with weights (w1, w2), the rows of
# the partition run along w1 and the columns along w2, a cell in row i /
# column j of the monomial ideal contributes the character -(i*w1 + j*w2)
# to the fibre of O^[n] (the monomial x^i y^j acts on functions, so its
# character is opposite to the tangent one), and the tangent space picks up
#   (leg+1)*w1 - arm*w2   and   -leg*w1 + (arm+1)*w2
# per cell (`_arm_leg_characters`).  This is the single Hilb-level
# convention; the fibre sign is invisible to the rank-symmetric
# Riemann-Roch checks and is pinned by the determinant twist series instead.


def _arm_leg_characters(chart: Chart, a: int, l: int) -> tuple:
    """The two tangent characters of a cell with arm a and leg l at one chart."""
    w1, w2 = chart.w1, chart.w2
    return (
        ((l + 1) * w1[0] - a * w2[0], (l + 1) * w1[1] - a * w2[1]),
        (-l * w1[0] + (a + 1) * w2[0], -l * w1[1] + (a + 1) * w2[1]),
    )


@lru_cache(maxsize=None)
def chart_tangent_weights(chart: Chart, la) -> tuple:
    """The 2|la| tangent characters of the partition la at one chart, cell by
    cell (`partitions.arm_legs`)."""
    out = tuple(ch for a, l in arm_legs(la) for ch in _arm_leg_characters(chart, a, l))
    if (0, 0) in out:
        raise ConsistencyError("non-isolated fixed point (zero tangent character)")
    return out


def tangent_weights(model: ToricSurface, fp: tuple) -> list:
    """The 2n tangent characters at fp (with multiplicity), chart by chart."""
    out = []
    for chart, la in zip(model.charts, fp):
        out.extend(chart_tangent_weights(chart, la))
    return out


@lru_cache(maxsize=None)
def _cell_characters(chart: Chart, la) -> tuple:
    """The characters -(i w1 + j w2) of the cells (i, j) of la at one chart:
    the fibre of O^[|la|] at the one-chart point la."""
    w1, w2 = chart.w1, chart.w2
    return tuple((-i * w1[0] - j * w2[0], -i * w1[1] - j * w2[1]) for i, row in enumerate(la) for j in range(row))


def taut_weights(model: ToricSurface, fp: tuple, x: TautClass) -> list:
    """Fibre characters of x^[n] at fp as (character, multiplicity) pairs,
    summand by summand (each line bundle, then the trivial part) and chart
    by chart within one, so the j-th pair has the same multiplicity at every
    fixed point of Hilb^n."""
    summands = [(bundle.local_weight, mult) for bundle, mult in x.line_bundles]
    if x.trivial:
        summands.append((lambda chart: (0, 0), x.trivial))
    out = []
    for local_weight, mult in summands:
        for chart, la in zip(model.charts, fp):
            a, b = local_weight(chart)
            out.extend(((a + c0, b + c1), mult) for c0, c1 in _cell_characters(chart, la))
    return out


def det_taut_weight(model: ToricSurface, fp: tuple, dets) -> list:
    """The c1-weights of L_n (x) E^r at fp, one per (L, r) in dets.

    det(F^[n]) = det(F)_n (x) E^{rk F} with E = det(O^[n]) makes L_n (x)
    E^r the determinant of x^[n], x = L + (r - 1) O, so its weight is the
    sum of the fibre characters of x^[n].
    """
    out = []
    for L, r in dets:
        pairs = taut_weights(model, fp, TautClass(((L, 1),), r - 1))
        out.append((sum(m * c[0] for c, m in pairs), sum(m * c[1] for c, m in pairs)))
    return out


# -- 1-PS ladders ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _char_bound(model: ToricSurface, n: int):
    """1 + the largest |a1| over tangent characters with a2 != 0, and 1 + the
    largest |a2| over those with a1 != 0, at all fixed points of Hilb^n.

    The cells of the partitions of size <= n have exactly the (arm, leg)
    pairs with a + l < n (the corner of the hook (a + 1, 1^l) has a and l),
    so the bound reads their characters at each chart instead of the fixed
    points.
    """
    pairs = [(a, l) for a in range(n) for l in range(n - a)]
    chars = [ch for chart in model.charts for a, l in pairs for ch in _arm_leg_characters(chart, a, l)]
    b1 = max([1, *(abs(a1) for a1, a2 in chars if a2)])
    b2 = max([1, *(abs(a2) for a1, a2 in chars if a1)])
    return b1 + 1, b2 + 1


def one_ps_ladder(model: ToricSurface, n: int, name: str) -> list:
    """The two generic 1-parameter subgroups of a documented deterministic
    ladder, the pair that a pass specializes along and `_agreed` compares:
    'xi'  : (1, B), (1, B+1)   with B exceeding every |a1/a2|;
    'eta' : (B', 1), (B'+1, 1) with B' exceeding every |a2/a1|."""
    b1, b2 = _char_bound(model, n)
    if name == "xi":
        return [(1, b1), (1, b1 + 1)]
    if name == "eta":
        return [(b2, 1), (b2 + 1, 1)]
    raise ValueError(f"unknown ladder {name!r}")


def _specialize(chars, spec) -> tuple:
    """The characters chars at the 1-PS spec (from a list: a tuple grown from a generator keeps a larger block)."""
    return tuple([a * spec[0] + b * spec[1] for a, b in chars])


@lru_cache(maxsize=None)
def chart_specializations(model: ToricSurface, order: int, spec) -> tuple:
    """Per chart, {la: the tangent weights of la at the 1-PS spec} over the
    partitions la of size 0..order, size by size: each (chart, partition)
    is specialized once per order and spec.  ConsistencyError if a weight
    vanishes, since the fixed point is then not isolated."""
    lams = [la for m in range(order + 1) for la in enumerate_partitions(m)]
    charts = tuple({la: _specialize(chart_tangent_weights(chart, la), spec) for la in lams} for chart in model.charts)
    if any(0 in tvals for weights in charts for tvals in weights.values()):
        raise ConsistencyError("1-PS specialization hit a zero tangent weight")
    return charts


@lru_cache(maxsize=None)
def _chart_denominators(model: ToricSurface, order: int, spec) -> tuple:
    """Per chart, L_c: the lcm of prod t over the partitions of
    `chart_specializations`.  prod t of a fixed point of Hilb^n, n <= order,
    is the product of its charts', so it divides D = prod_c L_c, the one
    denominator of every sum at spec."""
    return tuple(lcm(*map(prod, weights.values())) for weights in chart_specializations(model, order, spec))


@lru_cache(maxsize=None)
def _chart_cells(model: ToricSurface, order: int, spec) -> tuple:
    """Per chart, {la: the cell characters of la (`_cell_characters`) at the
    1-PS spec} over the partitions of `chart_specializations`."""
    charts = zip(model.charts, chart_specializations(model, order, spec))
    return tuple({la: _specialize(_cell_characters(chart, la), spec) for la in weights} for chart, weights in charts)


@lru_cache(maxsize=None)
def _chart_power_rows(model: ToricSurface, order: int, spec) -> tuple:
    """Per chart, {la: (p_1, ..., p_N)} with p_k = sum t^k over the tangent
    weights t of la in `chart_specializations`, N = 2 order, over the same
    partitions; the powers of each distinct weight are formed once.  p_k is
    additive over the charts, so the row of a fixed point is the sum of its
    charts' rows (`_point_power_sums`)."""
    big = 2 * order
    charts = chart_specializations(model, order, spec)
    distinct = {t for weights in charts for tvals in weights.values() for t in tvals}
    powers = {t: list(accumulate(repeat(t, big), mul)) for t in distinct}
    return tuple(
        {la: tuple(map(sum, zip(*map(powers.get, tvals)))) if la else (0,) * big for la, tvals in weights.items()}
        for weights in charts
    )


def _point_power_sums(model: ToricSurface, n: int, order: int, spec, block) -> list:
    """The columns p_1, ..., p_2n of the tangent weights' power sums at the
    1-PS spec over block, fixed points of Hilb^n: each point's row is the
    sum of its charts' rows, read uncut from the rows (`_chart_power_rows`)
    of spec at order >= n, and only the first 2n columns are formed."""
    charts = _chart_power_rows(model, order, spec)
    points = []
    for fp in block:
        parts = [chart[la] for chart, la in zip(charts, fp) if la]
        points.append(parts[0] if len(parts) == 1 else tuple(map(sum, zip(*parts))))
    return list(islice(zip(*points), 2 * n))


# Symmetric functions of weights on a block of points, column by column:
# cols[j] is the column of the j-th weight over the block's width points, and
# each function comes back as one column over the same points.


def _chern_classes(cols, width, order, mults):
    """The columns [c_0, ..., c_order] of prod (1 + t eps)^m over the weights
    cols with multiplicities mults; a negative m divides by (1 + t eps)^|m|,
    which is still an integer series.  Below degree order a new top class
    costs one product (all m = 1, order = len(cols): the e_k of the weights)."""
    c = [[1] * width]
    for t, m in zip(cols, mults):
        for _ in range(m):
            top = len(c) - 1
            if top < order:
                c.append(list(map(mul, t, c[top])))
            for k in range(top, 0, -1):
                c[k] = list(map(add, c[k], map(mul, t, c[k - 1])))
        if m < 0:
            c += [[0] * width for _ in range(order + 1 - len(c))]
            for _ in range(-m):
                for k in range(1, order + 1):
                    c[k] = list(map(sub, c[k], map(mul, t, c[k - 1])))
    return c + [[0] * width for _ in range(order + 1 - len(c))]


@lru_cache(maxsize=None)
def _product_walk(monomials) -> tuple:
    """The depth-first walk over the trie of the monomials (tuples of integer
    factors, sorted within each) as preorder steps (depth, factor, leaves,
    inner, last): the node is factor times the last node at depth - 1,
    leaves are the indices of the monomials equal to it, inner says whether
    a node extends it and last whether it is its parent's last child.  The
    root, the empty product, is a step only if a monomial is empty.
    Children come largest factor first, so long chains of small factors
    are last children."""
    ends = {}
    for i, mono in enumerate(monomials):
        ends.setdefault(tuple(sorted(mono)), []).append(i)
    prefixes = {key[:d] for key in ends for d in range(bool(key), len(key) + 1)}
    prefixes = sorted(prefixes, key=lambda p: [-f for f in p])  # preorder
    last = {p[:-1]: p for p in prefixes if p}  # each parent's last child
    return tuple((len(p), p and p[-1], tuple(ends.get(p, ())), p in last, last.get(p[:-1]) == p) for p in prefixes)


def _walk_products(walk, table, root, leaf):
    """Run a product walk on columns from the column root: a node is
    table[factor] times its parent, leaf(i, x, y) takes monomial i as the
    product of the columns x and y, and an inner node lives to its last child."""
    nodes = [root]
    for depth, factor, leaves, inner, last in walk:
        x, y = (table[factor], nodes[depth - 1]) if depth else (root, repeat(1))
        if last:
            nodes[depth - 1] = None
        if inner and depth:
            nodes[depth:] = [list(map(mul, x, y))]
        for i in leaves:
            leaf(i, x, y)


def _column_dot(coeffs, xs, ys, width):
    """The column sum_i coeffs[i] xs[i] ys[i] of the columns xs and ys."""
    out = [0] * width
    for c, x, y in zip(coeffs, xs, ys):
        if c:
            out = [o + c * a * b for o, a, b in zip(out, x, y)]
    return out


# -- residue sums ------------------------------------------------------------------

_BLOCK = 256  # fixed points per block of the residue pass


def _agreed(specs, values, others) -> list:
    """values, the exact sums at the specialization specs[0], once those at
    specs[1] (others) agree with them value by value; ConsistencyError if
    they do not, or if the two specializations are one."""
    if specs[0] == specs[1]:
        raise ConsistencyError(f"specialization {specs[0]} is compared with itself")
    for a, b in zip(values, others):
        if a != b:
            raise ConsistencyError(f"specializations {specs[0]} and {specs[1]} disagree: {a} vs {b}")
    return values


def _sigma_orbits(model: ToricSurface, n: int, order: int, specs) -> tuple:
    """(points, mults): one fixed point of Hilb^n per orbit of the central
    symmetry sigma, (la_0, ..., la_{e-1}) -> (la_h, ..., la_{h-1}) with
    h = e/2, with the orbit's size, 2 or 1 (a sigma-fixed point).  sigma
    negates every tangent weight only if, in the table of every spec at
    order (`chart_specializations`), the weights of each partition at chart
    c + h are the exact negation of those at chart c; if not (or e is odd),
    every point is returned and mults is None."""
    points = enumerate_fixed_points(model, n)
    h, odd = divmod(len(model.charts), 2)
    if odd or any(
        charts[c + h][la] != tuple(-t for t in weights)
        for charts in (chart_specializations(model, order, spec) for spec in specs)
        for c in range(h)
        for la, weights in charts[c].items()
    ):
        return points, None
    reps, mults = [], []
    for fp in points:
        image = fp[h:] + fp[:h]
        if fp <= image:
            reps.append(fp)
            mults.append(1 if fp == image else 2)
    return reps, mults


def _monomial_sums(model, n, order, ladder, monomials, table, orbits=False) -> list:
    """The residue sums over the fixed points of Hilb^n of the monomials
    (tuples of integer factors) over prod t, exact, at the two 1-PS of the
    ladder of Hilb^order, order >= n: `_char_bound` is monotone in n, so
    that ladder is generic for Hilb^n too.

    The pass walks the fixed points in blocks of _BLOCK points and calls
    table(spec, block, cols) once per block and 1-PS spec: with cols[j] the
    column of the block's j-th tangent weight at spec over its points, it
    returns the table of factor columns, read from the chart tables of spec.
    The monomials' column products run along their product walk from the
    column of scales L/d, with d = prod t of a point and L the lcm of the
    block's d, so a monomial's block sum is one dot product: each distinct
    nonempty prefix costs one column product (269 for the partitions of 14,
    against 780 parts), and a node's column is dropped once its last child
    is formed.  Each block sum, over L, is added times D / L to the 1-PS's
    sums over its one denominator D = prod_c L_c (`_chart_denominators`),
    and each sum becomes a Fraction once, at the end.  The weights of a
    point are its charts' in `chart_specializations`, which raises
    ConsistencyError on a zero weight.  The sums of the two specializations
    are independent until `_agreed` compares them, monomial by monomial.

    With orbits, every monomial must have even degree 2n and depend on the
    tangent weights alone: the pass then visits one point per orbit of the
    central symmetry (`_sigma_orbits`), whose scale is multiplied by the
    orbit's size."""
    walk = _product_walk(monomials)
    specs = one_ps_ladder(model, order, ladder)
    dens = [prod(_chart_denominators(model, order, spec)) for spec in specs]
    sums = [[0] * len(monomials) for _ in specs]
    specialized = [chart_specializations(model, order, spec) for spec in specs]
    points, mults = _sigma_orbits(model, n, order, specs) if orbits else (enumerate_fixed_points(model, n), None)
    for start in range(0, len(points), _BLOCK):
        block = points[start : start + _BLOCK]
        for spec, charts, den, total in zip(specs, specialized, dens, sums):
            tvals = []
            for fp in block:
                t = []
                for weights, la in zip(charts, fp):
                    t += weights[la]
                tvals.append(t)
            ds = list(map(prod, tvals))
            block_den = lcm(*ds)
            scales = [block_den // d for d in ds]
            if mults:
                scales = list(map(mul, scales, mults[start : start + _BLOCK]))
            up = den // block_den

            def leaf(i, xs, ys):
                total[i] += up * sum(map(mul, xs, ys))

            _walk_products(walk, table(spec, block, list(zip(*tvals))), scales, leaf)
    return _agreed(specs, *([Fraction(x, den) for x in total] for den, total in zip(dens, sums)))


# -- integrand ---------------------------------------------------------------------
#
# Every integrand over Hilb^n is a rational combination of monomials of
# degree exactly N = 2n in the columns of one table, N + 1 columns per slot;
# factor s (N + 1) + k is column k of slot s.  A slot is
#   - a bundle X (tautological, virtual too: m < 0, or the tangent bundle),
#     whose columns are its Chern classes, c(X) = prod (1 + w eps)^m; or
#   - a tangent class Q (Hirzebruch's universal-genus viewpoint, as in
#     `cobordism`).  With p_k = sum t^k the power sums of the tangent weights,
#       prod_i Q(t_i eps) = Q(0)^N exp(sum_k s_k p_k eps^k),  log(Q/Q(0)) = sum s_k x^k,
#     and with D an integer with D^k s_k integral for k = 1..N (it is grown
#     from the denominators of the s_k, and stays far below their lcm), its
#     columns are the integers E_m = m! D^m [eps^m] exp(sum_k s_k p_k eps^k):
#       E_0 = 1,  E_m = sum_k (k D^k s_k) (m-1)!/(m-k)! p_k E_{m-k}.
# A term c P of the Chern polynomial of degree deg < N is the monomial P
# E_{N-deg} with the coefficient c Q(0)^N / ((N-deg)! D^(N-deg)); without a
# tangent class only the terms of degree N are kept.  The Chern character and
# the total Chern and Segre classes are polynomials in Chern classes too
# (`Integrand.chern_character`, `universal.h_psi_phi`; its exp(c1) is a chart
# product, `chi_series`).  A monomial of degree N is a global class, so its
# residue sum is an integral that does not depend on the 1-PS: the two
# specializations agree monomial by monomial, and so integrand by integrand.


_UNIT_POLY = ((Fraction(1), ()),)


class Integrand(Record):
    """A polynomial in Chern classes of declared bundles times a
    multiplicative tangent class (none if tangent_class is None): the Todd
    class of Riemann-Roch is tangent_class=todd_series("x", 2n)."""

    def __init__(
        self,
        poly: tuple = _UNIT_POLY,  # sum of (coeff, ((bundle_name, degree), ...))
        bundles: tuple = (),  # ((name, TautClass-or-"tangent"), ...)
        tangent_class: TruncSeries | None = None,  # characteristic series Q(x)
    ):
        self._freeze(poly, bundles, tangent_class)

    @staticmethod
    def chern_character(x: TautClass, n: int, tangent_class: TruncSeries) -> "Integrand":
        """ch(x^[n]) times the tangent class on Hilb^n: n rank(x) + sum_k
        p_k / k!, k = 1..2n, each power sum p_k of the Chern roots of X =
        x^[n] a polynomial in its Chern classes by Newton's identities."""
        poly = [(Fraction(n * x.rank), ())]
        for k in range(1, 2 * n + 1):
            poly += [(c / factorial(k), tuple(("X", p) for p in la)) for la, c in power_sum_in_chern(k).items()]
        return Integrand(tuple(poly), (("X", x),), tangent_class)


@lru_cache(maxsize=None)
def _tangent_log(tangent_class, order):
    """(Q(0)^order, D, exp) for Q the tangent class, with log(Q/Q(0)) = sum
    s_k x^k, D as above and exp[m] the coefficients (m-1)!/(m-k)! k D^k
    s_k, k = 1..m, of the tangent exponential; (1, 1, None) if there is
    none."""
    if tangent_class is None:
        return Fraction(1), 1, None
    if tangent_class.order < order:
        raise ValueError("tangent characteristic series truncated below 2n")
    q = tangent_class.truncate(order)
    if q[0] == 0:
        raise ValueError("tangent characteristic series needs Q(0) != 0")
    s = (q * (1 / Fraction(q[0]))).log().coeffs
    d = 1
    for k, c in enumerate(s):
        while (c * d**k).denominator != 1:
            d *= (c * d**k).denominator
    a = [int(k * c * d**k) for k, c in enumerate(s)]
    exp = tuple(tuple(factorial(m - 1) // factorial(m - k) * a[k] for k in range(1, m + 1)) for m in range(order + 1))
    return Fraction(q[0]) ** order, d, exp


def _tangent_exponential(exp, p, width, order) -> list:
    """The columns E_0, ..., E_order of the tangent exponential above, from
    the rows exp of `_tangent_log` and the columns p = [p_1, p_2, ...]."""
    e = [[1] * width]
    for m in range(1, order + 1):
        e.append(_column_dot(exp[m], p, e[::-1], width))
    return e


def _integrand_terms(integrand: Integrand, n: int, slots: dict) -> dict:
    """The integrand over Hilb^n as {monomial: coefficient}, monomials of
    degree 2n as above, with sorted factors: equal monomials are one, and a
    zero coefficient drops its monomial.  slots (a TautClass, "tangent", or
    the rows exp of a tangent class -> slot) is shared by every integrand
    of one pass."""
    order = 2 * n
    scale, d, exp = _tangent_log(integrand.tangent_class, order)
    slot = {name: slots.setdefault(src, len(slots)) for name, src in integrand.bundles}
    if exp is not None:
        tangent = slots.setdefault(exp, len(slots)) * (order + 1)  # E_m is the factor tangent + m
    terms = {}
    for c, monos in integrand.poly:
        deg = sum(k for _, k in monos)
        if deg > order or (deg < order and exp is None):
            continue
        mono = [slot[name] * (order + 1) + k for name, k in monos]
        if deg < order:
            mono.append(tangent + order - deg)
        key = tuple(sorted(mono))
        terms[key] = terms.get(key, 0) + c * scale / (factorial(order - deg) * d ** (order - deg))
    return {mono: c for mono, c in terms.items() if c}


def _taut_chern_classes(model, n, x: TautClass, spec, block) -> list:
    """The Chern columns [c_0, ..., c_2n] of x^[n] at the 1-PS spec over block,
    fixed points of Hilb^n: its weights, in the order of `taut_weights`, are
    the entries of `_chart_cells` shifted by their summand's weight at the
    chart, and the n weights of a summand carry its multiplicity."""
    cells = _chart_cells(model, n, spec)
    summands = [(_specialize(map(L.local_weight, model.charts), spec), m) for L, m in x.line_bundles]
    summands += [((0,) * len(cells), x.trivial)] if x.trivial else []
    cols, mults = [], []
    for shifts, m in summands:
        cols += zip(*([s + w for s, chart, la in zip(shifts, cells, fp) for w in chart[la]] for fp in block))
        mults += [m] * n
    return _chern_classes(cols, len(block), 2 * n, mults)


def _integrate_family(model, n, integrands, ladder) -> list:
    """The integral of each integrand, from one pass over the distinct
    monomials of all of them.  On each block and specialization every
    slot's columns are formed once, for every monomial that reads them."""
    order = 2 * n
    slots, index = {}, {}  # index: monomial -> its place in the pass
    rows = []  # per integrand: (place, coefficient) per monomial
    for integrand in integrands:
        terms = _integrand_terms(integrand, n, slots).items()
        rows.append([(index.setdefault(mono, len(index)), c) for mono, c in terms])

    def table(spec, block, cols):
        out, p = [], None
        for src in slots:
            if isinstance(src, TautClass):
                out += _taut_chern_classes(model, n, src, spec, block)
            elif src == "tangent":
                out += _chern_classes(cols, len(block), order, repeat(1))
            else:
                if p is None:
                    p = _point_power_sums(model, n, n, spec, block)
                out += _tangent_exponential(src, p, len(block), order)
        return out

    values = _monomial_sums(model, n, n, ladder, tuple(index), table)
    return [sum((c * values[i] for i, c in row), Fraction(0)) for row in rows]


def integrate(model: ToricSurface, n: int, integrand: Integrand, ladder: str = "xi") -> Fraction:
    """Bott-residue integral over Hilb^n(S), exact; ConsistencyError if the
    two specializations of the chosen 1-PS ladder disagree on one of its
    monomials."""
    return _integrate_family(model, n, (integrand,), ladder)[0]


def surface_number(model: ToricSurface, monomials, bundles) -> tuple:
    """The integrals over S = Hilb^1(S) of monomials ((bundle_name, degree), ...) in Chern
    classes of the declared bundles, from one residue pass: intersection numbers, so
    ConsistencyError unless each is integral."""
    integrands = [Integrand(poly=((1, mono),), bundles=bundles) for mono in monomials]
    return tuple(map(int, _integral(_integrate_family(model, 1, integrands, "xi"), "surface number")))


def _integral(values, what) -> list:
    """values, once each is an integer; ConsistencyError otherwise."""
    for value in values:
        if value.denominator != 1:
            raise ConsistencyError(f"non-integral {what} {value}")
    return values


# -- Chern numbers and the cobordism class of Hilb^n -------------------------------


def chern_residue_sums(model: ToricSurface, n: int, lams, ladder: str = "xi") -> list:
    """The residue sums over the fixed points of Hilb^n of prod_{p in la}
    e_p(t) / prod t, one per partition la in lams: the Chern numbers if
    |la| = 2n, and 0 if |la| < 2n (the dimension axiom).  Only a set of
    Chern numbers runs on the orbits of the central symmetry: on sums of
    odd degree 2n - 1 its pairs cancel, and the axiom would test nothing."""

    def table(spec, block, cols):
        return _chern_classes(cols, len(block), 2 * n, repeat(1))

    return _monomial_sums(model, n, n, ladder, lams, table, orbits=all(sum(la) == 2 * n for la in lams))


@lru_cache(maxsize=None)
def chern_numbers_hilb(model: ToricSurface, n: int, ladder: str = "xi") -> ChernVector:
    """All Chern numbers c_la(Hilb^n(S)), la a partition of 2n, exact;
    ConsistencyError unless each is integral."""
    lams = enumerate_partitions(2 * n)
    values = _integral(chern_residue_sums(model, n, lams, ladder), "Chern number")
    return ChernVector.from_dict(2 * n, dict(zip(lams, values)))


_hilb_betas = {}  # (model, n, ladder) -> the power-sum polynomial of Hilb^n(S), as the gate of that ladder passed it


def _hilb_beta(model: ToricSurface, n: int, order: int, ladder: str):
    """The power-sum polynomial of Hilb^n(S), from one pass at the ladder of
    Hilb^order (`_monomial_sums`): its integrals of p_mu are the residue
    sums of prod_{p in mu} p_p(t) / prod t (p_0 = 2n is never read)."""

    def table(spec, block, cols):
        return [[2 * n] * len(block), *_point_power_sums(model, n, order, spec, block)]

    return beta_poly(2 * n, _monomial_sums(model, n, order, ladder, enumerate_partitions(2 * n), table, orbits=True))


def hilb_cobordism_series(model: ToricSurface, order: int, ladder: str = "xi") -> TruncSeries:
    """H(S) = sum [Hilb^n(S)] z^n to the requested order, by localization:
    term n is the power-sum polynomial of Hilb^n(S).  Each n not yet known
    on the ladder is one pass at its member of order, which is generic for
    every n <= order, so all of them read one table of specialized weights
    and power sums per 1-PS; each pass keeps its own two-specialization gate."""
    for n in range(order + 1):
        if (model, n, ladder) not in _hilb_betas:
            _hilb_betas[model, n, ladder] = _hilb_beta(model, n, order, ladder)
    return TruncSeries("z", order, [_hilb_betas[model, n, ladder] for n in range(order + 1)])


# -- chi(L_n (x) E^r): a product over the charts -------------------------------------
#
# At a fixed point (la_c) the tangent space is the sum of the charts' pieces
# T_{la_c}, and the weight of det(L_n (x) E^r) is the sum over the charts of
# |la_c| lw_c(L) + r o_c(la_c), with o_c(la) the weight of det O^[|la|] at
# the one-chart point la, the sum of its cell characters.  So, Q the Todd series
# (or any characteristic series: with L = O and r = 0 this is a genus),
#   sum_n chi(L_n (x) E^r) z^n = sum_n z^n [eps^{2n}] prod_c Z_c,
#   Z_c = sum_la z^{|la|} e^{|la| lw_c(L) eps} e^{r o_c(la) eps} prod_{t in T_la} Q(t eps) / t,
# exactly at each specialization: the sum over tuples of partitions becomes
# one sum over single partitions per chart.  With N = 2 order, the partitions
# of size <= order at a chart are the columns of the tangent exponential's
# integer kernel, on their power-sum rows p_1..p_N (`_chart_power_rows`), with
# r o_c(la) folded into the eps^1 term.  A chart's e^{m lw_c(L) eps} is 1 where
# lw_c(L) = 0 (every chart of L = O, so every genus).  Summed by size m
# over their prod t, they give the chart's table
#   a_c[m][j] = N! L_c D^j [eps^j] (Z_c without e^{m lw_c(L) eps} at z^m),
# L_c the lcm of the chart's prod t (`_chart_denominators`, whose product
# over the charts is the one denominator of the residue sums at the same
# 1-PS), and e^{m lw_c(L) eps} is scaled the same way, N! D^j [eps^j].
# Scaled factors multiply by plain convolution in (z, eps), each product
# gaining a factor N!.


@lru_cache(maxsize=None)
def _chart_columns(model: ToricSurface, order: int, spec) -> tuple:
    """Per chart at the specialization spec, over its partitions of size
    0..order in `chart_specializations`: the columns p_1, ..., p_N of the
    tangent weights' power sums (the rows of `_chart_power_rows`), the column
    of o_c (the sums of `_chart_cells`), and L_c (`_chart_denominators`)
    with the column of the scales L_c / prod t."""
    out = []
    tables = (chart_specializations, _chart_power_rows, _chart_cells, _chart_denominators)
    for weights, rows, cells, den in zip(*(table(model, order, spec) for table in tables)):
        scales = tuple(den // prod(tvals) for tvals in weights.values())
        out.append((tuple(zip(*rows.values())), tuple(map(sum, cells.values())), den, scales))
    return tuple(out)


def _chart_sums(columns, sizes, r, d, exp, units) -> list:
    """The table a_c of one chart's columns (`_chart_columns`) for the twist
    r: sizes[m] of the partitions have size m, for m = 0..order in turn, d
    and exp are those of `_tangent_log` at N = 2 order and units[j] = N! / j!."""
    p, o, _, scales = columns
    big = len(p)
    if p:  # E's eps^1 term a_1 p_1 gains D r o_c; exp[m][0] = a_1 for every m
        p = [[exp[1][0] * x + d * r * w for x, w in zip(p[0], o)], *p[1:]]
        exp = [row and (1, *row[1:]) for row in exp]
    e = [list(map(mul, col, scales)) for col in _tangent_exponential(exp, p, len(scales), big)]
    table, start = [], 0
    for size in sizes:
        table.append([u * sum(col[start : start + size]) for u, col in zip(units, e)])
        start += size
    return table


def _twisted(table, w, units) -> list:
    """The rows table[m] times e^{m w eps}, all scaled (w is D times the
    specialized weight, units[i] = N! / i!); for w = 0 only the scale N!."""
    if not w:
        return [[units[0] * x for x in row] for row in table]
    out = [[units[0] * x for x in table[0]]]
    for m, row in enumerate(table[1:], 1):
        twist = [u * (m * w) ** i for i, u in enumerate(units)]
        out.append([sum(map(mul, twist[: j + 1], row[j::-1])) for j in range(len(row))])
    return out


def _z_eps_coeff(x, y, n, j) -> int:
    """The z^n eps^j coefficient of the product of two scaled tables, each
    constant at z^0 (one partition, the empty one)."""
    if n == 0:
        return x[0][0] * y[0][0] if j == 0 else 0
    total = x[0][0] * y[n][j] + x[n][j] * y[0][0]
    for m in range(1, n):
        total += sum(map(mul, x[m][: j + 1], y[n - m][j::-1]))
    return total


def _chart_product(tables) -> list:
    """[X[n][2n] for n = 0..order] of the product X of the charts' scaled
    (z, eps) tables; the last chart gives only these coefficients."""
    acc, *middle, last = tables
    order = len(acc) - 1
    for table in middle:
        acc = [[_z_eps_coeff(acc, table, n, j) for j in range(2 * order + 1)] for n in range(order + 1)]
    return [_z_eps_coeff(acc, last, n, 2 * n) for n in range(order + 1)]


def chi_series(model: ToricSurface, order: int, bundles, r: int, ladder: str = "xi", q: TruncSeries | None = None) -> list:
    """[[chi(L_n (x) E^r) for n = 0..order] for L in bundles], exact: the
    chart product above at each of the two specializations of the
    1-PS ladder at order, which must agree value by value.  Q is q (rational
    coefficients; term n has the factor q(0)^{2n}) if given, Todd if not."""
    big = 2 * order
    q = todd_series("x", big) if q is None else q
    _, d, exp = _tangent_log(q, big)
    sizes = [len(enumerate_partitions(m)) for m in range(order + 1)]
    units = [factorial(big) // factorial(i) for i in range(big + 1)]
    specs = one_ps_ladder(model, order, ladder)
    values = []  # per specialization: the values per bundle
    for spec in specs:
        columns = _chart_columns(model, order, spec)
        sums = [_chart_sums(cols, sizes, r, d, exp, units) for cols in columns]
        # each chart's table and twist carry N!, its table L_c
        den = prod(cols[2] for cols in columns) * units[0] ** (2 * len(sums))
        dens = [den * (d / Fraction(q[0])) ** (2 * n) for n in range(order + 1)]
        rows = []
        for L in bundles:
            weights = [d * w for w in _specialize(map(L.local_weight, model.charts), spec)]
            row = _chart_product([_twisted(table, w, units) for table, w in zip(sums, weights)])
            rows.append([Fraction(v, den) for v, den in zip(row, dens)])
        values.append(rows)
    return [_agreed(specs, row, row2) for row, row2 in zip(*values)]


def chi_via_RR(model: ToricSurface, n: int, L: TLineBundle, r: int = 0, ladder: str = "xi") -> Fraction:
    """chi(L_n (x) E^r) by equivariant Riemann-Roch: the Bott integral of
    td(T) exp(c1(L_n (x) E^r)), the term n of `chi_series`."""
    return chi_series(model, n, (L,), r, ladder)[0][n]
