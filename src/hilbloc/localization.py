"""Torus fixed points of Hilb^n over a toric surface and the exact
Bott-residue integrator.

A fixed point assigns one partition per chart (monomial ideals at the
torus-fixed points of S), with total size n.  Tangent weights come from
the arm/leg formula; tautological weights from the cell grid shifted by
the local weight of the inducing line bundle.

Every number computed here is a residue sum over the fixed points of an
integer numerator over prod t.  One pass, `_residue_pass`, evaluates all
but chi(L_n (x) E^r).  It walks the fixed points in blocks of a few
hundred and hands each output the block's tangent weights as columns (one
list over the block's points per weight); the output supplies only its
sums over the block, formed column-wise by one set of kernels: for Chern
numbers the numerators are prod_{p in la} e_p(t), and for the power-sum
polynomial of Hilb^n(S) (the cobordism class that `hilb_cobordism_series`
returns) prod_{p in mu} p_p(t).  Every other integrand has one shape, a
polynomial in the Chern classes of tautological bundles (and of T) times
one multiplicative tangent class (Todd for Riemann-Roch); it is evaluated
on the same columns, each factor scaled so that its coefficients are
integers (see "integrand" below).  Every product of such columns runs
along one walk over a trie of monomials (`_product_walk`), one column
product per distinct nonempty prefix.  Characters stay symbolic (integer
pairs) until the pass specializes them along the first two members of a
deterministic ladder of generic one-parameter subgroups; each
specialization keeps integer numerators over one running common
denominator, the lcm of the block denominators seen so far, and the two
exact sums must agree.

chi(L_n (x) E^r) is not a pass over tuples of partitions: its integrand
td(T) e^{c1(L_n (x) E^r)} is multiplicative over the charts, so
`chi_series` gives it for every n <= order at once as one product over
the charts of sums over single partitions, on the same column kernels and
under the same two-specialization gate.

Numbers on the surface itself (intersection numbers, the gamma-vectors of
`universal`) are the case n = 1, since Hilb^1(S) = S: `surface_number`
integrates several Chern monomials there in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, sub

from .cobordism import ChernVector, _power_sum_in_e, beta_poly
from .partitions import cells, enumerate_partitions
from .records import Record
from .series import TruncSeries, todd_series
from .toric import Chart, TLineBundle, ToricSurface, line_bundle


class ConsistencyError(RuntimeError):
    """Two independent 1-PS specializations disagreed: an engine bug."""


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
    size n, ordered lexicographically over compositions, rev-lex partitions within."""
    if n < 0:
        raise ValueError("n must be non-negative")
    e = len(model.charts)
    out = []

    def rec(chart: int, remaining: int, acc):
        if chart == e - 1:
            for la in enumerate_partitions(remaining):
                out.append(tuple(acc + [la]))
            return
        for m in range(remaining, -1, -1):
            for la in enumerate_partitions(m):
                rec(chart + 1, remaining - m, acc + [la])

    rec(0, n, [])
    return out


# -- weight data --------------------------------------------------------------
#
# Orientation convention: within a chart with weights (w1, w2), the rows of
# the partition run along w1 and the columns along w2, a cell in row i /
# column j of the monomial ideal contributes the character -(i*w1 + j*w2)
# to the fibre of O^[n] (the monomial x^i y^j acts on functions, so its
# character is opposite to the tangent one), and the tangent space picks up
#   (leg+1)*w1 - arm*w2   and   -leg*w1 + (arm+1)*w2
# per cell.  This is the single Hilb-level convention; the fibre sign is
# invisible to the rank-symmetric Riemann-Roch checks and is pinned by the
# determinant twist series instead.


@lru_cache(maxsize=None)
def chart_tangent_weights(chart: Chart, la) -> tuple:
    """The 2|la| tangent characters of the partition la at one chart."""
    out = []
    w1, w2 = chart.w1, chart.w2
    for c in cells(la):
        a, l = c.arm, c.leg
        ch1 = ((l + 1) * w1[0] - a * w2[0], (l + 1) * w1[1] - a * w2[1])
        ch2 = (-l * w1[0] + (a + 1) * w2[0], -l * w1[1] + (a + 1) * w2[1])
        if ch1 == (0, 0) or ch2 == (0, 0):
            raise ConsistencyError("non-isolated fixed point (zero tangent character)")
        out.append(ch1)
        out.append(ch2)
    return tuple(out)


def tangent_weights(model: ToricSurface, fp: tuple) -> list:
    """The 2n tangent characters at fp (with multiplicity), chart by chart."""
    out = []
    for chart, la in zip(model.charts, fp):
        out.extend(chart_tangent_weights(chart, la))
    return out


def _cell_char(chart: Chart, i: int, j: int, base) -> tuple:
    return (
        base[0] - i * chart.w1[0] - j * chart.w2[0],
        base[1] - i * chart.w1[1] - j * chart.w2[1],
    )


def taut_weights(model: ToricSurface, fp: tuple, x: TautClass) -> list:
    """Fibre characters of x^[n] at fp as (character, multiplicity) pairs,
    summand by summand (each line bundle, then the trivial part) and chart
    by chart within one, so the j-th pair has the same multiplicity at every
    fixed point of Hilb^n."""
    cell_lists = [(chart, [(c.i, c.j) for c in cells(la)]) for chart, la in zip(model.charts, fp)]
    summands = [(bundle.local_weight, mult) for bundle, mult in x.line_bundles]
    if x.trivial:
        summands.append((lambda chart: (0, 0), x.trivial))
    out = []
    for local_weight, mult in summands:
        for chart, cell_list in cell_lists:
            lw = local_weight(chart)
            out.extend((_cell_char(chart, i, j, lw), mult) for i, j in cell_list)
    return out


def det_taut_weight(model: ToricSurface, fp: tuple, dets) -> list:
    """The c1-weights of L_n (x) E^r at fp, one per (L, r) in dets.

    det(F^[n]) = det(F)_n (x) E^{rk F} with E = det(O^[n]) gives
    weight(L_n (x) E^r) = sum weights(L^[n]) + (r-1) * sum weights(O^[n])
                        = sum_charts |la| lw(L) + r * sum weights(O^[n]),
    and the cells (i, j) of la contribute -(sum i) w1 - (sum j) w2 to the
    O^[n] sum, with sum i = sum_i i la_i and sum j = sum_i binom(la_i, 2).
    These partition moments are computed once for all entries of dets.
    """
    o0 = o1 = 0  # the weight of det O^[n]
    for chart, la in zip(model.charts, fp):
        si = sum(i * row for i, row in enumerate(la))
        sj = sum(row * (row - 1) // 2 for row in la)
        o0 -= si * chart.w1[0] + sj * chart.w2[0]
        o1 -= si * chart.w1[1] + sj * chart.w2[1]
    sized = [(chart, sum(la)) for chart, la in zip(model.charts, fp) if la]
    out = []
    for L, r in dets:
        acc0, acc1 = r * o0, r * o1
        for chart, size in sized:
            lw = L.local_weight(chart)
            acc0 += size * lw[0]
            acc1 += size * lw[1]
        out.append((acc0, acc1))
    return out


# -- 1-PS ladders ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _char_bound(model: ToricSurface, n: int):
    """1 + the largest |a1| over tangent characters with a2 != 0, and 1 + the
    largest |a2| over those with a1 != 0, at all fixed points of Hilb^n.

    A cell with arm a and leg l has a + l < n, and every such (a, l) occurs
    in some chart (a hook of size a + l + 1), so the bound walks the pairs
    (a, l) per chart instead of the fixed points.
    """
    b1 = b2 = 1
    for chart in model.charts:
        w1, w2 = chart.w1, chart.w2
        for a in range(n):
            for l in range(n - a):
                for x, y in ((l + 1, -a), (-l, a + 1)):
                    a1, a2 = x * w1[0] + y * w2[0], x * w1[1] + y * w2[1]
                    if a2 != 0:
                        b1 = max(b1, abs(a1))
                    if a1 != 0:
                        b2 = max(b2, abs(a2))
    return b1 + 1, b2 + 1


def one_ps_ladder(model: ToricSurface, n: int, name: str) -> list:
    """Two documented deterministic ladders of generic 1-parameter subgroups.

    'xi'  : (1, B), (1, B+1), ...  with B exceeding every |a1/a2|;
    'eta' : (B', 1), (B'+1, 1), ... with B' exceeding every |a2/a1|.
    The first entry of each ladder is already generic by construction.
    """
    b1, b2 = _char_bound(model, n)
    if name == "xi":
        return [(1, b1 + j) for j in range(4)]
    if name == "eta":
        return [(b2 + j, 1) for j in range(4)]
    raise ValueError(f"unknown ladder {name!r}")


def _specialize(char, spec) -> int:
    return char[0] * spec[0] + char[1] * spec[1]


def specialize_tangents(chars, spec) -> list:
    """The tangent characters chars at the 1-PS spec; ConsistencyError if one
    of them vanishes there, since the fixed point is then not isolated."""
    tvals = [_specialize(c, spec) for c in chars]
    if 0 in tvals:
        raise ConsistencyError("1-PS specialization hit a zero tangent weight")
    return tvals


# Symmetric functions of weights on a block of points, column by column:
# cols[j] is the column of the j-th weight over the block's width points, and
# each function comes back as one column over the same points.


def _column_power_sums(cols, width, order):
    """The columns [p_0, ..., p_order] with p_k = sum t^k over the weights cols."""
    p, x = [[len(cols)] * width], list(cols)
    for k in range(1, order + 1):
        p.append(list(map(sum, zip(*x))) if x else [0] * width)
        if k < order:
            for j, t in enumerate(cols):
                x[j] = list(map(mul, x[j], t))
    return p


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


class _ResidueSum:
    """Per-output sums of integer numerators over positive denominators (one
    per block of fixed points), kept as integer numerators over one running
    common denominator: the lcm of the denominators seen so far."""

    def __init__(self, size):
        self.acc = [0] * size
        self.den = 1

    def add(self, den, nums):
        up = den // gcd(self.den, den)
        if up != 1:
            self.acc = [a * up for a in self.acc]
            self.den *= up
        scale = self.den // den
        acc = self.acc
        for i, x in enumerate(nums):
            acc[i] += x * scale


def _residue_pass(model, n, ladder, size, at_block) -> list:
    """The size residue sums over the fixed points of Hilb^n, exact.

    The pass walks the fixed points in blocks of _BLOCK points, and each
    block is one term of the running sum: at a specialization spec, with
    cols[j] the column of the points' j-th specialized tangent weight, d =
    prod t their denominators and L the lcm of the block's d,
    at_block(block)(spec, cols, [L/d, ...]) returns the block's size
    integer sums of (L/d) * numerator, the points' numerators over d.  Each
    (chart, partition) is specialized once per pass and specialization; a
    zero weight raises ConsistencyError.  The sums of the two
    specializations are independent until they are compared, value by
    value, at the end."""
    specs = one_ps_ladder(model, n, ladder)[:2]
    sums = [_ResidueSum(size) for _ in specs]
    specialized = [[{} for _ in model.charts] for _ in specs]  # per chart: la -> weights
    points = enumerate_fixed_points(model, n)
    for start in range(0, len(points), _BLOCK):
        block = points[start : start + _BLOCK]
        block_sums = at_block(block)
        for spec, known, total in zip(specs, specialized, sums):
            tvals = []
            for fp in block:
                t = []
                for chart, la, seen in zip(model.charts, fp, known):
                    ts = seen.get(la)
                    if ts is None:
                        ts = seen[la] = specialize_tangents(chart_tangent_weights(chart, la), spec)
                    t += ts
                tvals.append(t)
            ds = list(map(prod, tvals))
            den = lcm(*ds)
            total.add(den, block_sums(spec, list(zip(*tvals)), [den // d for d in ds]))
    v1, v2 = ([Fraction(a, total.den) for a in total.acc] for total in sums)
    for a, b in zip(v1, v2):
        if a != b:
            raise ConsistencyError(
                f"specializations {specs[0]} and {specs[1]} disagree: {a} vs {b}"
            )
    return v1


# -- integrand ---------------------------------------------------------------------
#
# Every factor of the integrand at a fixed point is a function of its weight
# multisets (Hirzebruch's universal-genus viewpoint, as in `cobordism`), with
# p_k = sum m w^k their power sums and N = 2n:
#   prod_i Q(t_i eps) = Q(0)^N exp(sum_k s_k p_k(t) eps^k),  log(Q/Q(0)) = sum s_k x^k,
#   c(X) = prod (1 + w eps)^m   (virtual X too: m < 0).
# A Chern character or exp(c1) is a polynomial in Chern classes too
# (`Integrand.chern_character`, `universal.h_psi_phi`).
# Let D be an integer with D^k s_k integral for k = 1..N (it is grown from
# the denominators of the s_k, and stays far below their lcm).  Each factor
# is kept as its scaled coefficients X_m = m! D^m [eps^m], which are integers
# (the Chern polynomial's also times P, the lcm of its coefficients'
# denominators), and a product of factors is the binomial convolution
#   (XY)_m = sum_j C(m, j) X_j Y_{m-j}.
# The tangent exponential is
#   E_0 = 1,  E_m = sum_k (k D^k s_k) (m-1)!/(m-k)! p_k E_{m-k}.
# The integral is Q(0)^N / (N! D^N P) times the residue sum of these
# integers over prod t.  Every step runs on a block of points at once: each
# X_m is a column over the block's points, like the weights it comes from.


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
    def chern_monomial(la) -> "Integrand":
        return Integrand(
            poly=((Fraction(1), tuple(("T", int(p)) for p in la)),),
            bundles=(("T", "tangent"),),
        )

    @staticmethod
    def chern_character(x: TautClass, n: int, tangent_class: TruncSeries) -> "Integrand":
        """ch(x^[n]) times the tangent class on Hilb^n: n rank(x) + sum_k
        p_k / k!, k = 1..2n, each power sum p_k of the Chern roots of X =
        x^[n] a polynomial in its Chern classes by Newton's identities."""
        poly = [(Fraction(n * x.rank), ())]
        for k in range(1, 2 * n + 1):
            poly += [(c / factorial(k), tuple(("X", p) for p in la)) for la, c in _power_sum_in_e(k).items() if c]
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


class _IntegerIntegrand:
    """One integral's integrand over Hilb^n in the scaled integer form above:
    the constants depend on the integrand and n only, and `numerators` is
    the work on a block of points.  The bundles whose Chern classes the
    polynomial reads are keyed by position in the dict chern_slots
    (TautClass or "tangent" -> slot), which every integrand of one pass
    shares; c_k of the bundle at slot is the factor slot * (N + 1) + k."""

    def __init__(self, integrand: Integrand, n: int, chern_slots: dict):
        order = self.order = 2 * n
        self.scale, d, self.exp = _tangent_log(integrand.tangent_class, order)
        fd = [factorial(m) * d**m for m in range(order + 1)]
        self.binom = [comb(order, j) for j in range(order + 1)]
        poly_den = 1  # P
        self.terms = None  # per monomial: (sorted factors, degree, scaled coefficient)
        if integrand.poly != _UNIT_POLY:
            slot = {name: chern_slots.setdefault(src, len(chern_slots)) for name, src in integrand.bundles}
            merged = {}  # (degree, sorted factors) -> coefficient: equal monomials are one
            for c, monos in integrand.poly:
                deg = sum(k for _, k in monos)
                if deg <= order:
                    key = (deg, tuple(sorted(slot[name] * (order + 1) + k for name, k in monos)))
                    merged[key] = merged[key] + c if key in merged else Fraction(c)
            poly_den = lcm(1, *(c.denominator for c in merged.values()))
            self.terms = [(mono, deg, fd[deg] * int(c * poly_den)) for (deg, mono), c in merged.items() if c]
        self.denominator = fd[order] * poly_den

    def numerators(self, body, tangent_p, width) -> list:
        """The column of N! D^N P times the eps^N coefficient over a block of
        width points, from the scaled coefficients body of the polynomial
        (None for the unit polynomial) and the power sums tangent_p of the
        points' tangent weights, all columns."""
        order = self.order
        if self.exp is None:
            return [1 if order == 0 else 0] * width if body is None else body[order]
        e = _tangent_exponential(self.exp, tangent_p[1:], width, order)
        if body is None:
            return e[order]
        return _column_dot(self.binom, body, e[::-1], width)


def _integrate_family(model, n, integrands, ladder):
    """The integral of each integrand, from one residue pass.  On each
    block and specialization the tangent and tautological Chern classes and
    the tangent power sums are formed once, column by column, for every
    integrand that reads them."""
    order = 2 * n
    chern_slots = {}
    forms = [_IntegerIntegrand(integrand, n, chern_slots) for integrand in integrands]
    tangent_exp = any(form.exp is not None for form in forms)
    # one product walk for every polynomial: leaf i adds c x y to B_deg of form k
    terms = [(k, deg, c) for k, form in enumerate(forms) for _, deg, c in form.terms or ()]
    walk = _product_walk(tuple(mono for form in forms for mono, _, _ in form.terms or ()))

    def at_block(block):
        # per slot: None for the tangent bundle, else the multiplicities of
        # the class, the same at every point, and the columns of characters
        taut = []
        for x in chern_slots:
            pairs = None if x == "tangent" else [taut_weights(model, fp, x) for fp in block]
            taut.append(pairs and ([m for _, m in pairs[0]], list(zip(*([c for c, _ in p] for p in pairs)))))

        def sums(spec, cols, scales):
            width = len(scales)
            table = []  # the columns c_0, ..., c_N of each slot's bundle, slot by slot
            for x in taut:
                weights = cols if x is None else [[_specialize(c, spec) for c in col] for col in x[1]]
                table += _chern_classes(weights, width, order, repeat(1) if x is None else x[0])
            p = _column_power_sums(cols, width, order) if tangent_exp else None
            bodies = [None if form.terms is None else [[0] * width for _ in range(order + 1)] for form in forms]

            def leaf(i, xs, ys):  # a coefficient joins at its leaf
                k, deg, c = terms[i]
                bodies[k][deg] = [b + c * x * y for b, x, y in zip(bodies[k][deg], xs, ys)]

            _walk_products(walk, table, [1] * width, leaf)
            numerators = (form.numerators(body, p, width) for form, body in zip(forms, bodies))
            return [sum(map(mul, col, scales)) for col in numerators]

        return sums

    values = _residue_pass(model, n, ladder, len(forms), at_block)
    return [v * form.scale / form.denominator for v, form in zip(values, forms)]


def integrate(model: ToricSurface, n: int, integrand: Integrand, ladder: str = "xi") -> Fraction:
    """Bott-residue integral over Hilb^n(S), exact; ConsistencyError if the
    two specializations of the chosen 1-PS ladder disagree."""
    return _integrate_family(model, n, (integrand,), ladder)[0]


def surface_number(model: ToricSurface, monomials, bundles) -> tuple:
    """The integrals over S = Hilb^1(S) of monomials ((bundle_name, degree), ...) in Chern
    classes of the declared bundles, from one residue pass: intersection numbers, so
    ConsistencyError unless each is integral."""
    integrands = [Integrand(poly=((1, mono),), bundles=bundles) for mono in monomials]
    values = _integrate_family(model, 1, integrands, "xi")
    for value in values:
        if value.denominator != 1:
            raise ConsistencyError(f"non-integral surface number {value}")
    return tuple(int(value) for value in values)


# -- Chern numbers and the cobordism class of Hilb^n -------------------------------


def _partition_sums(model, n, ladder, factors) -> list:
    """The residue sums of prod_{p in la} f_p / prod t over the partitions la
    of 2n (rev-lex order), with factors(cols, width) the columns f_0, ...,
    f_2n over a block of width points whose tangent weights are the
    columns cols:
    symmetric functions of each point's weights t.

    The products run along the product walk of the partitions from the
    column of scales: each distinct nonempty prefix of a partition, parts
    smallest first, costs one column product (269 for 2n = 14, against 780
    parts), and the empty partition of n = 0 is the root.  A node's column
    is dropped once its last child is formed, so few columns are alive at
    once (4 for 2n = 14)."""
    lams = enumerate_partitions(2 * n)
    walk = _product_walk(lams)

    def sums(spec, cols, scales):
        out = [0] * len(lams)

        def leaf(i, xs, ys):
            out[i] = sum(map(mul, xs, ys))

        _walk_products(walk, factors(cols, len(scales)), scales, leaf)
        return out

    return _residue_pass(model, n, ladder, len(lams), lambda block: sums)


@lru_cache(maxsize=None)
def chern_numbers_hilb(model: ToricSurface, n: int, ladder: str = "xi") -> ChernVector:
    """All Chern numbers c_la(Hilb^n(S)), la a partition of 2n, exact: the
    residue sums of prod_{p in la} e_p(t) / prod t."""
    values = _partition_sums(model, n, ladder, partial(_chern_classes, order=2 * n, mults=repeat(1)))
    return ChernVector.from_dict(2 * n, dict(zip(enumerate_partitions(2 * n), values)))


@lru_cache(maxsize=None)
def _hilb_beta(model: ToricSurface, n: int):
    """The power-sum polynomial of Hilb^n(S): its integrals of p_mu are the
    residue sums of prod_{p in mu} p_p(t) / prod t."""
    factors = partial(_column_power_sums, order=2 * n)
    return beta_poly(2 * n, _partition_sums(model, n, "xi", factors))


def hilb_cobordism_series(model: ToricSurface, order: int) -> TruncSeries:
    """H(S) = sum [Hilb^n(S)] z^n to the requested order, by localization:
    term n is the power-sum polynomial of Hilb^n(S)."""
    return TruncSeries("z", order, [_hilb_beta(model, n) for n in range(order + 1)])


# -- chi(L_n (x) E^r): a product over the charts -------------------------------------
#
# At a fixed point (la_c) the tangent space is the sum of the charts' pieces
# T_{la_c}, and the weight of det(L_n (x) E^r) is the sum over the charts of
# |la_c| lw_c(L) + r o_c(la_c), with o_c(la) the weight of det O^[|la|] at
# the one-chart point la (`det_taut_weight`).  So, Q the Todd series,
#   sum_n chi(L_n (x) E^r) z^n = sum_n z^n [eps^{2n}] prod_c Z_c,
#   Z_c = sum_la z^{|la|} e^{|la| lw_c(L) eps} e^{r o_c(la) eps} prod_{t in T_la} Q(t eps) / t,
# exactly at each specialization: the sum over tuples of partitions becomes
# one sum over single partitions per chart.  With N = 2 order, the partitions
# of size <= order at a chart are the columns of the integrand's integer
# kernels (each one's 2|la| weights padded with zeros to N), r o_c(la)
# folded into the eps^1 term of the tangent exponential.  Summed by size m
# over their prod t, they give the chart's table
#   a_c[m][j] = N! L_c D^j [eps^j] (Z_c without e^{m lw_c(L) eps} at z^m),
# L_c the lcm of the chart's prod t, and e^{m lw_c(L) eps} is scaled the
# same way, N! D^j [eps^j].  Scaled factors multiply by plain convolution
# in (z, eps), each product gaining a factor N!.


@lru_cache(maxsize=None)
def _chart_characters(model: ToricSurface, order: int) -> tuple:
    """Per chart, for its partitions of size 0..order, size by size: their
    tangent characters and the characters o_c of det O^[n] at them."""
    lams = [la for m in range(order + 1) for la in enumerate_partitions(m)]
    trivial = line_bundle(model, [0] * len(model.rays))
    none = ((),) * len(model.charts)
    return tuple(
        (
            tuple(chart_tangent_weights(chart, la) for la in lams),
            tuple(det_taut_weight(model, none[:c] + (la,) + none[c + 1 :], [(trivial, 1)])[0] for la in lams),
        )
        for c, chart in enumerate(model.charts)
    )


@lru_cache(maxsize=None)
def _chart_columns(model: ToricSurface, order: int, spec) -> tuple:
    """Per chart at the specialization spec, over `_chart_characters`: the
    columns p_1, ..., p_N of the tangent weights' power sums (each
    partition's 2|la| weights padded with zeros to N), the column of o_c,
    and L_c with the column of the scales L_c / prod t.  A zero tangent
    weight raises ConsistencyError."""
    out = []
    for chars, o in _chart_characters(model, order):
        tvals = [specialize_tangents(c, spec) for c in chars]
        cols = list(zip(*(t + [0] * (2 * order - len(t)) for t in tvals)))
        ds = list(map(prod, tvals))
        den = lcm(*ds)
        p = tuple(map(tuple, _column_power_sums(cols, len(tvals), 2 * order)[1:]))
        out.append((p, tuple(_specialize(w, spec) for w in o), den, tuple(den // x for x in ds)))
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
    specialized weight, units[i] = N! / i!)."""
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


def chi_series(model: ToricSurface, order: int, bundles, r: int, ladder: str = "xi") -> list:
    """[[chi(L_n (x) E^r) for n = 0..order] for L in bundles], exact: the
    chart product above at each of the first two specializations of the
    1-PS ladder at order, which must agree value by value."""
    big = 2 * order
    _, d, exp = _tangent_log(todd_series("x", big), big)  # Todd: Q(0) = 1
    sizes = [len(enumerate_partitions(m)) for m in range(order + 1)]
    units = [factorial(big) // factorial(i) for i in range(big + 1)]
    specs = one_ps_ladder(model, order, ladder)[:2]
    values = []  # per specialization: numerators per bundle, and denominators
    for spec in specs:
        columns = _chart_columns(model, order, spec)
        sums = [_chart_sums(cols, sizes, r, d, exp, units) for cols in columns]
        # each chart's table and twist carry N!, its table L_c
        den = prod(cols[2] for cols in columns) * units[0] ** (2 * len(sums))
        rows = []
        for L in bundles:
            weights = [d * _specialize(L.local_weight(chart), spec) for chart in model.charts]
            rows.append(_chart_product([_twisted(table, w, units) for table, w in zip(sums, weights)]))
        values.append((rows, [den * d ** (2 * n) for n in range(order + 1)]))
    (rows, dens), (rows2, dens2) = values
    out = []
    for row, row2 in zip(rows, rows2):
        out.append([Fraction(v, den) for v, den in zip(row, dens)])
        for a, b, den, den2, value in zip(row, row2, dens, dens2, out[-1]):
            if a * den2 != b * den:
                other = Fraction(b, den2)
                raise ConsistencyError(f"specializations {specs[0]} and {specs[1]} disagree: {value} vs {other}")
    return out


def chi_via_RR(model: ToricSurface, n: int, L: TLineBundle, r: int = 0, ladder: str = "xi") -> Fraction:
    """chi(L_n (x) E^r) by equivariant Riemann-Roch: the Bott integral of
    td(T) exp(c1(L_n (x) E^r)), the term n of `chi_series`."""
    return chi_series(model, n, (L,), r, ladder)[0][n]
