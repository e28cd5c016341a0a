"""Torus fixed points of Hilb^n over a toric surface and the exact
Bott-residue integrator.

A fixed point assigns one partition per chart (monomial ideals at the
torus-fixed points of S), with total size n.  Tangent weights come from
the arm/leg formula; tautological weights from the cell grid shifted by
the local weight of the inducing line bundle.

Every number computed here is a residue sum over the fixed points of an
integer numerator over prod t, and one pass, `_residue_pass`, evaluates
them all.  It walks the fixed points in blocks of a few hundred and hands
each output the block's tangent weights as columns (one list over the
block's points per weight); the output supplies only its sums over the
block, formed column-wise by one set of kernels: for Chern numbers the
numerators are prod_{p in la} e_p(t), and for the power-sum polynomial of
Hilb^n(S) (the cobordism class that `hilb_cobordism_series` returns)
prod_{p in mu} p_p(t), one column per symmetric function and per
partition suffix.  Other integrands are evaluated on the same columns
from the power sums and Chern classes of the tangent and tautological
weights, each factor scaled so that its coefficients are integers (see
"integrand" below); `chi_via_RR_family` serves several determinant twists
from the same pass.
Characters stay symbolic (integer pairs) until the pass specializes them
along the first two members of a deterministic ladder of generic
one-parameter subgroups; each specialization keeps integer numerators
over one running common denominator, the lcm of the block denominators
seen so far, and the two exact sums must agree.

Numbers on the surface itself (intersection numbers, the gamma-vectors of
`universal`) are the case n = 1, since Hilb^1(S) = S: `surface_number`
integrates several Chern monomials there in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, sub

from .cobordism import ChernVector, beta_poly
from .partitions import cells, enumerate_partitions
from .records import Record
from .series import TruncSeries, todd_series
from .toric import Chart, TLineBundle, ToricSurface


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


def _column_elementary_symmetric(cols, width):
    """The columns [e_0, ..., e_len(cols)] of the elementary symmetric
    functions of the weights cols."""
    e = [[1] * width]
    for m, v in enumerate(cols, 1):
        e.append(list(map(mul, v, e[m - 1])))
        for k in range(m - 1, 0, -1):
            e[k] = list(map(add, e[k], map(mul, v, e[k - 1])))
    return e


def _column_power_sums(cols, width, order, mults=None):
    """The columns [p_0, ..., p_order] with p_k = sum m t^k over the weights
    cols, the j-th with multiplicity mults[j] (1 if mults is None)."""
    if mults is None:
        p, x = [[len(cols)] * width], list(cols)
    else:
        p, x = [[sum(mults)] * width], [[m * t for t in col] for m, col in zip(mults, cols)]
    for k in range(1, order + 1):
        p.append(list(map(sum, zip(*x))) if x else [0] * width)
        if k < order:
            for j, t in enumerate(cols):
                x[j] = list(map(mul, x[j], t))
    return p


def _chern_classes(cols, mults, order, width):
    """The columns [c_0, ..., c_order] of prod (1 + t eps)^m over the weights
    cols with multiplicities mults; a negative m divides by (1 + t eps)^|m|,
    which is still an integer series."""
    c = [[1] * width] + [[0] * width for _ in range(order)]
    for t, m in zip(cols, mults):
        for _ in range(m):
            for k in range(order, 0, -1):
                c[k] = list(map(add, c[k], map(mul, t, c[k - 1])))
        for _ in range(-m):
            for k in range(1, order + 1):
                c[k] = list(map(sub, c[k], map(mul, t, c[k - 1])))
    return c


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
#   c(X) = prod (1 + w eps)^m   (virtual X too: m < 0),
#   ch(X) = sum_k p_k(X) eps^k / k!,
#   e^{w eps} = sum_j w^j eps^j / j!.
# Let D be an integer with D^k s_k integral for k = 1..N (it is grown from
# the denominators of the s_k, and stays far below their lcm).  Each factor
# is kept as its scaled coefficients X_m = m! D^m [eps^m], which are integers
# (the Chern polynomial's also times P, the lcm of its coefficients'
# denominators), and a product of factors is the binomial convolution
#   (XY)_m = sum_j C(m, j) X_j Y_{m-j}.
# The tangent exponential is
#   E_0 = 1,  E_m = sum_k (k D^k s_k) (m-1)!/(m-k)! p_k E_{m-k},
# ch gives D^m p_m, and a determinant twist enters only the top coefficient
# of the product B:
#   N! D^N P top = sum_j C(N, j) (D w)^j B_{N-j}.
# The integral is Q(0)^N / (N! D^N P) times the residue sum of these
# integers over prod t.  Every step runs on a block of points at once: each
# X_m is a column over the block's points, like the weights it comes from.


_UNIT_POLY = ((Fraction(1), ()),)


class Integrand(Record):
    """A polynomial in Chern classes of declared bundles, optionally times
    the Todd class of the tangent bundle, exp of a determinant weight,
    a Chern character factor, and/or a multiplicative tangent class."""

    def __init__(
        self,
        poly: tuple = _UNIT_POLY,  # sum of (coeff, ((bundle_name, degree), ...))
        bundles: tuple = (),  # ((name, TautClass-or-"tangent"), ...)
        todd: bool = False,
        exp_det: tuple | None = None,  # (TLineBundle, r)
        ch_bundle: TautClass | None = None,
        tangent_class: TruncSeries | None = None,  # characteristic series Q(x)
    ):
        self._freeze(poly, bundles, todd, exp_det, ch_bundle, tangent_class)

    @staticmethod
    def chern_monomial(la) -> "Integrand":
        return Integrand(
            poly=((Fraction(1), tuple(("T", int(p)) for p in la)),),
            bundles=(("T", "tangent"),),
        )


@lru_cache(maxsize=None)
def _tangent_log(todd, tangent_class, order):
    """(Q(0)^order, D, exp) for Q the Todd series (if todd) times the tangent
    class, with log(Q/Q(0)) = sum s_k x^k, D as above and exp[m] the
    coefficients (m-1)!/(m-k)! k D^k s_k, k = 1..m, of the tangent
    exponential; (1, 1, None) if there is neither factor."""
    q = todd_series("x", order) if todd else None
    if tangent_class is not None:
        if tangent_class.order < order:
            raise ValueError("tangent characteristic series truncated below 2n")
        tc = tangent_class.truncate(order)
        q = tc if q is None else q * tc
    if q is None:
        return Fraction(1), 1, None
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


class _IntegerIntegrand:
    """One integral's integrand over Hilb^n in the scaled integer form above:
    the constants depend on the integrand and n only, and `numerators` is
    the work on a block of points.  The bundles whose Chern classes the
    polynomial reads, and the class of the Chern character, are keyed by
    position in the dicts chern_slots (TautClass or "tangent" -> slot) and
    ch_slots (TautClass -> slot), which every integrand of one pass shares."""

    def __init__(self, integrand: Integrand, n: int, chern_slots: dict, ch_slots: dict):
        order = self.order = 2 * n
        self.scale, d, self.exp = _tangent_log(integrand.todd, integrand.tangent_class, order)
        self.d = d
        self.dpow = [d**m for m in range(order + 1)]
        fd = [factorial(m) * d**m for m in range(order + 1)]
        self.binom = [[comb(m, j) for j in range(m + 1)] for m in range(order + 1)]
        poly_den = 1  # P
        self.poly = None
        if integrand.poly != _UNIT_POLY:
            slot = {name: chern_slots.setdefault(src, len(chern_slots)) for name, src in integrand.bundles}
            terms = [(sum(deg for _, deg in monos), Fraction(c), monos) for c, monos in integrand.poly]
            terms = [t for t in terms if t[0] <= order]
            for _, c, _ in terms:
                poly_den = lcm(poly_den, c.denominator)
            self.poly = [
                (deg, fd[deg] * int(c * poly_den), tuple((slot[name], k) for name, k in monos))
                for deg, c, monos in terms
            ]
        self.ch = None if integrand.ch_bundle is None else ch_slots.setdefault(integrand.ch_bundle, len(ch_slots))
        self.denominator = fd[order] * poly_den

    def _times(self, x, y, width):
        if x is None:
            return y
        return [_column_dot(self.binom[m], x, y[m::-1], width) for m in range(self.order + 1)]

    def numerators(self, chern, ch, tangent_p, dets, width) -> list:
        """The columns of N! D^N P times the eps^N coefficient over a block of
        width points, one per determinant weight column in dets (None: no
        determinant factor), from the points' Chern classes chern and
        Chern-character power sums ch (by slot) and the power sums tangent_p
        of their tangent weights, all columns."""
        order = self.order
        body = None
        if self.poly is not None:
            body = [[0] * width for _ in range(order + 1)]
            for deg, c, monos in self.poly:
                col = [c] * width
                for slot, k in monos:
                    col = list(map(mul, col, chern[slot][k]))
                body[deg] = list(map(add, body[deg], col))
        if self.ch is not None:
            p = [[dm * v for v in col] for dm, col in zip(self.dpow, ch[self.ch])]
            body = self._times(body, p, width)
        if self.exp is not None:
            e = [[1] * width]
            for m in range(1, order + 1):
                e.append(_column_dot(self.exp[m], tangent_p[1:], e[::-1], width))
            body = self._times(body, e, width)
        if body is None:
            body = [[1] * width] + [[0] * width for _ in range(order)]
        out = []
        top = None
        for w in dets:
            if w is None:
                out.append(body[order])
                continue
            if top is None:  # C(N, j) B_{N-j}, highest j first
                top = [[c * b for b in col] for c, col in zip(self.binom[order], reversed(body))][::-1]
            x = [self.d * v for v in w]
            acc = top[0]
            for u in top[1:]:
                acc = [a * t + b for a, t, b in zip(acc, x, u)]
            out.append(acc)
        return out


def _integrate_family(model, n, integrands, dets, ladder):
    """The integral of each integrand times e^{c1(L_n (x) E^r)} for each
    (L, r) in dets (an entry None means no determinant factor), integrand
    by integrand, from one residue pass.  On each block and specialization
    the tangent and tautological Chern classes and power sums are formed
    once, column by column, for every integrand that reads them."""
    order = 2 * n
    chern_slots, ch_slots = {}, {}
    forms = [_IntegerIntegrand(integrand, n, chern_slots, ch_slots) for integrand in integrands]
    classes = tuple(dict.fromkeys(x for x in (*chern_slots, *ch_slots) if x != "tangent"))
    chern_of = [None if x == "tangent" else classes.index(x) for x in chern_slots]
    ch_of = [classes.index(x) for x in ch_slots]
    tangent_exp = any(form.exp is not None for form in forms)

    def at_block(block):
        # per class: the multiplicities, the same at every point, and the
        # columns of characters
        taut = []
        for x in classes:
            pairs = [taut_weights(model, fp, x) for fp in block]
            taut.append(([m for _, m in pairs[0]], list(zip(*([c for c, _ in p] for p in pairs)))))
        det_cols = None if dets == (None,) else list(zip(*(det_taut_weight(model, fp, dets) for fp in block)))

        def sums(spec, cols, scales):
            width = len(scales)
            weights = [[[_specialize(c, spec) for c in col] for col in chars] for _, chars in taut]
            chern = [
                _column_elementary_symmetric(cols, width)
                if j is None
                else _chern_classes(weights[j], taut[j][0], order, width)
                for j in chern_of
            ]
            p = _column_power_sums(cols, width, order) if tangent_exp else None
            ch = [_column_power_sums(weights[j], width, order, taut[j][0]) for j in ch_of]
            ws = dets if det_cols is None else [[_specialize(c, spec) for c in col] for col in det_cols]
            return [sum(map(mul, col, scales)) for form in forms for col in form.numerators(chern, ch, p, ws, width)]

        return sums

    values = _residue_pass(model, n, ladder, len(forms) * len(dets), at_block)
    factors = [form.scale / form.denominator for form in forms for _ in dets]
    return [v * f for v, f in zip(values, factors)]


def integrate(model: ToricSurface, n: int, integrand: Integrand, ladder: str = "xi") -> Fraction:
    """Bott-residue integral over Hilb^n(S), exact; ConsistencyError if the
    two specializations of the chosen 1-PS ladder disagree."""
    return _integrate_family(model, n, (integrand,), (integrand.exp_det,), ladder)[0]


def surface_number(model: ToricSurface, monomials, bundles) -> tuple:
    """The integrals over S = Hilb^1(S) of monomials ((bundle_name, degree), ...) in Chern
    classes of the declared bundles, from one residue pass: intersection numbers, so
    ConsistencyError unless each is integral."""
    integrands = [Integrand(poly=((1, mono),), bundles=bundles) for mono in monomials]
    values = _integrate_family(model, 1, integrands, (None,), "xi")
    for value in values:
        if value.denominator != 1:
            raise ConsistencyError(f"non-integral surface number {value}")
    return tuple(int(value) for value in values)


# -- Chern numbers and the cobordism class of Hilb^n -------------------------------


@lru_cache(maxsize=None)
def _suffix_walk(m: int) -> tuple:
    """The depth-first walk over the tree of suffixes of the partitions of
    m, as preorder steps (depth, p, slot, last): the node (p, *parent) at
    depth extends the last node at depth - 1 (the empty suffix is the root,
    depth 0), slot is None for a proper suffix and the index of a whole
    partition, always a leaf, in enumerate_partitions(m), and last marks
    the parent's last child.  Children come largest part first, so the
    long chains of small parts are last children."""
    slots = {la: i for i, la in enumerate(enumerate_partitions(m))}
    steps = []

    def visit(suffix, rest):
        # the parts prepended later are >= p, so rest - p is 0 or >= p
        parts = [p for p in range(rest, (suffix[0] if suffix else 1) - 1, -1) if p == rest or 2 * p <= rest]
        for p in parts:
            node = (p, *suffix)
            steps.append((len(node), p, slots.get(node), p == parts[-1]))
            visit(node, rest - p)

    visit((), m)
    return tuple(steps)


def _partition_sums(model, n, ladder, factors) -> list:
    """The residue sums of prod_{p in la} f_p / prod t over the partitions la
    of 2n (rev-lex order), with factors(cols, width) the columns f_0, ...,
    f_2n over a block of width points whose tangent weights are the
    columns cols:
    symmetric functions of each point's weights t.

    The products walk the tree of partition suffixes depth first from the
    column of scales: each proper suffix costs one column product, each
    partition one sum, and a node's column is dropped once its last child
    is formed, so few columns are alive at once (4 for 2n = 14)."""
    steps = _suffix_walk(2 * n)
    size = len(enumerate_partitions(2 * n))

    def sums(spec, cols, scales):
        if not steps:  # n = 0: the empty partition only
            return [sum(scales)]
        f = factors(cols, len(scales))
        nodes = [scales] + [None] * (2 * n)
        out = [0] * size
        for depth, p, slot, last in steps:
            parent = nodes[depth - 1]
            if last:
                nodes[depth - 1] = None
            if slot is None:
                nodes[depth] = list(map(mul, f[p], parent))
            else:
                out[slot] = sum(map(mul, f[p], parent))
        return out

    return _residue_pass(model, n, ladder, size, lambda block: sums)


@lru_cache(maxsize=None)
def chern_numbers_hilb(model: ToricSurface, n: int, ladder: str = "xi") -> ChernVector:
    """All Chern numbers c_la(Hilb^n(S)), la a partition of 2n, exact: the
    residue sums of prod_{p in la} e_p(t) / prod t."""
    values = _partition_sums(model, n, ladder, _column_elementary_symmetric)
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


def chi_via_RR(model: ToricSurface, n: int, L: TLineBundle, r: int = 0, ladder: str = "xi") -> Fraction:
    """chi(L_n (x) E^r) by equivariant Riemann-Roch: the Bott integral of
    td(T) exp(c1(L_n (x) E^r))."""
    return integrate(model, n, Integrand(todd=True, exp_det=(L, r)), ladder)


def chi_via_RR_family(model: ToricSurface, n: int, bundles, r: int) -> list:
    """[chi(L_n (x) E^r) for L in bundles], from one pass over the fixed
    points for both specializations: the Todd factor is built once per point
    and specialization, and each L costs one Horner evaluation."""
    return _integrate_family(model, n, (Integrand(todd=True),), tuple((L, r) for L in bundles), "xi")
