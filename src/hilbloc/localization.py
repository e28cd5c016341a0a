"""Torus fixed points of Hilb^n over a toric surface and the exact
Bott-residue integrator.

A fixed point assigns one partition per chart (monomial ideals at the
torus-fixed points of S), with total size n.  Tangent weights come from
the arm/leg formula; tautological weights from the cell grid shifted by
the local weight of the inducing line bundle.

Every number computed here is a residue sum over the fixed points of an
integer numerator over prod t, and one pass, `_residue_pass`, evaluates
them all; each output supplies only its per-point numerators.  For Chern
numbers these are prod_{p in la} e_p(t), and for the power-sum polynomial
of Hilb^n(S) (the cobordism class that `hilb_cobordism_series` returns)
prod_{p in mu} p_p(t).  For other integrands they come
from the power sums and elementary symmetric functions of the point's
weights, each factor scaled so that its coefficients are integers (see
"integrand" below); `chi_via_RR_family` serves several determinant twists
from the same pass.  Characters stay symbolic (integer pairs) until the
pass specializes them along the first two members of a deterministic
ladder of generic one-parameter subgroups; each specialization keeps
integer numerators over one running common denominator, the lcm of the
point denominators seen so far, and the two exact sums must agree.

Numbers on the surface itself (intersection numbers, the gamma-vectors of
`universal`) are the case n = 1, since Hilb^1(S) = S: `surface_number`
integrates several Chern monomials there in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import mul

from .cobordism import ChernVector, beta_poly
from .partitions import cells, enumerate_partitions
from .series import TruncSeries, todd_series
from .toric import Chart, TLineBundle, ToricSurface


class ConsistencyError(RuntimeError):
    """Two independent 1-PS specializations disagreed: an engine bug."""


@dataclass(frozen=True)
class TautClass:
    """A K-theory class sum +/- [line bundle] + trivial * [O^triv]."""

    line_bundles: tuple = ()  # tuple of (TLineBundle, multiplicity)
    trivial: int = 0

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
    """Fibre characters of x^[n] at fp as (character, multiplicity) pairs."""
    out = []
    for chart, la in zip(model.charts, fp):
        cell_list = [(c.i, c.j) for c in cells(la)]
        for bundle, mult in x.line_bundles:
            lw = bundle.local_weight(chart)
            for i, j in cell_list:
                out.append((_cell_char(chart, i, j, lw), mult))
        if x.trivial:
            for i, j in cell_list:
                out.append((_cell_char(chart, i, j, (0, 0)), x.trivial))
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


def _power_sums(weights, order):
    """[p_0, ..., p_order] with p_k = sum m w^k over (w, m) pairs."""
    ws = [w for w, _ in weights]
    x = [m for _, m in weights]
    p = []
    for _ in range(order + 1):
        p.append(sum(x))
        x = list(map(mul, x, ws))
    return p


def _tangent_power_sums(tvals, order):
    """[p_0, ..., p_order] with p_k = sum t^k over the tangent weights t."""
    p, x = [len(tvals)], tvals
    for _ in range(order):
        p.append(sum(x))
        x = list(map(mul, x, tvals))
    return p


# -- residue sums ------------------------------------------------------------------


class _ResidueSum:
    """Per-output sums over fixed points of integer numerators over the point
    denominators d = prod t, kept as integer numerators over one running
    positive common denominator: the lcm of the d seen so far."""

    def __init__(self, size):
        self.acc = [0] * size
        self.den = 1

    def add(self, d, nums):
        up = abs(d) // gcd(self.den, d)
        if up != 1:
            self.acc = [a * up for a in self.acc]
            self.den *= up
        scale = self.den // d
        acc = self.acc
        for i, x in enumerate(nums):
            acc[i] += x * scale


def _residue_pass(model, n, ladder, size, at_point) -> list:
    """The size residue sums over the fixed points of Hilb^n, exact.

    at_point(fp) returns numerators(spec, tvals), the point's integer
    numerators over prod t at a specialization spec with tangent weights
    tvals.  The sums of the two specializations are independent until they
    are compared, value by value, at the end."""
    specs = one_ps_ladder(model, n, ladder)[:2]
    sums = [_ResidueSum(size) for _ in specs]
    for fp in enumerate_fixed_points(model, n):
        chars = tangent_weights(model, fp)
        numerators = at_point(fp)
        for spec, total in zip(specs, sums):
            tvals = specialize_tangents(chars, spec)
            total.add(prod(tvals), numerators(spec, tvals))
    v1, v2 = ([Fraction(a, total.den) for a in total.acc] for total in sums)
    for a, b in zip(v1, v2):
        if a != b:
            raise ConsistencyError(
                f"specializations {specs[0]} and {specs[1]} disagree: {a} vs {b}"
            )
    return v1


def _elementary_symmetric(values):
    e = [1] + [0] * len(values)
    for m, v in enumerate(values, 1):
        for k in range(m, 0, -1):
            e[k] += v * e[k - 1]
    return e


def _chern_classes(weights, order):
    """[c_0, ..., c_order] of prod (1 + w eps)^m over (w, m) pairs; a negative
    m divides by (1 + w eps)^|m|, which is still an integer series."""
    c = [1] + [0] * order
    for w, m in weights:
        if not w:
            continue
        for _ in range(m):
            for k in range(order, 0, -1):
                c[k] += w * c[k - 1]
        for _ in range(-m):
            for k in range(1, order + 1):
                c[k] -= w * c[k - 1]
    return c


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
# integers over prod t.


_UNIT_POLY = ((Fraction(1), ()),)


@dataclass(frozen=True)
class Integrand:
    """A polynomial in Chern classes of declared bundles, optionally times
    the Todd class of the tangent bundle, exp of a determinant weight,
    a Chern character factor, and/or a multiplicative tangent class."""

    poly: tuple = _UNIT_POLY  # sum of (coeff, ((bundle_name, degree), ...))
    bundles: tuple = ()  # ((name, TautClass-or-"tangent"), ...)
    todd: bool = False
    exp_det: tuple | None = None  # (TLineBundle, r)
    ch_bundle: TautClass | None = None
    tangent_class: TruncSeries | None = None  # characteristic series Q(x)

    @staticmethod
    def chern_monomial(la) -> "Integrand":
        return Integrand(
            poly=((Fraction(1), tuple(("T", int(p)) for p in la)),),
            bundles=(("T", "tangent"),),
        )


def _tangent_log(integrand, order):
    """(Q(0)^order, (s_0, ..., s_order)) with log(Q/Q(0)) = sum s_k x^k, for Q
    the Todd series times the tangent class; (1, None) if there is neither."""
    q = todd_series("x", order) if integrand.todd else None
    if integrand.tangent_class is not None:
        if integrand.tangent_class.order < order:
            raise ValueError("tangent characteristic series truncated below 2n")
        tc = integrand.tangent_class.truncate(order)
        q = tc if q is None else q * tc
    if q is None:
        return Fraction(1), None
    if q[0] == 0:
        raise ValueError("tangent characteristic series needs Q(0) != 0")
    return Fraction(q[0]) ** order, (q * (1 / Fraction(q[0]))).log().coeffs


class _IntegerIntegrand:
    """One integral's integrand over Hilb^n in the scaled integer form above:
    the constants depend on the integrand and n only, and `numerators` is
    the per-point work."""

    def __init__(self, integrand: Integrand, n: int):
        order = self.order = 2 * n
        self.scale, s = _tangent_log(integrand, order)
        d = 1
        for k, c in enumerate(s or ()):
            while (c * d**k).denominator != 1:
                d *= (c * d**k).denominator
        self.d = d
        self.fd = [factorial(m) * d**m for m in range(order + 1)]
        self.binom = [[comb(m, j) for j in range(m + 1)] for m in range(order + 1)]
        # E_m = sum_k ff[m][k-1] (a_k p_k) E_{m-k} with a_k = k D^k s_k and
        # ff[m][k-1] = (m-1)!/(m-k)!
        self.exp_a = self.exp_ff = None
        if s is not None:
            self.exp_a = [int(k * c * d**k) for k, c in enumerate(s)]
            self.exp_ff = [
                [factorial(m - 1) // factorial(m - k) for k in range(1, m + 1)]
                for m in range(order + 1)
            ]
        poly_den = 1  # P
        self.poly = None
        if integrand.poly != _UNIT_POLY:
            terms = [(sum(deg for _, deg in monos), Fraction(c), monos) for c, monos in integrand.poly]
            terms = [t for t in terms if t[0] <= order]
            for _, c, _ in terms:
                poly_den = lcm(poly_den, c.denominator)
            self.poly = [(deg, int(c * poly_den), monos) for deg, c, monos in terms]
        self.chern_of = dict(integrand.bundles) if self.poly is not None else {}
        self.ch_of = integrand.ch_bundle
        self.denominator = self.fd[order] * poly_den
        sources = [*self.chern_of.values(), self.ch_of]
        self.taut_classes = tuple(dict.fromkeys(x for x in sources if x not in (None, "tangent")))

    def _times(self, x, y):
        if x is None:
            return y
        return [
            sum(c * x[j] * y[m - j] for j, c in enumerate(self.binom[m]))
            for m in range(self.order + 1)
        ]

    def numerators(self, tvals, weights, dets) -> list:
        """N! D^N P times the eps^N coefficient at a point with tangent weights
        tvals, one per determinant weight in dets (None: no determinant
        factor); weights maps each tautological class to its (w, m) pairs."""
        order = self.order
        body = None
        if self.poly is not None:
            chern = {
                name: _elementary_symmetric(tvals) if src == "tangent" else _chern_classes(weights[src], order)
                for name, src in self.chern_of.items()
            }
            y = [0] * (order + 1)
            for deg, c, monos in self.poly:
                for name, k in monos:
                    c *= chern[name][k]
                y[deg] += c
            body = [f * v for f, v in zip(self.fd, y)]
        if self.ch_of is not None:
            p = _power_sums(weights[self.ch_of], order)
            body = self._times(body, [self.d**m * p[m] for m in range(order + 1)])
        if self.exp_a is not None:
            h = list(map(mul, self.exp_a, _tangent_power_sums(tvals, order)))[1:]
            e = [1]
            for ff in self.exp_ff[1:]:
                e.append(sum(map(mul, map(mul, ff, h), reversed(e))))
            body = self._times(body, e)
        if body is None:
            body = [1] + [0] * order
        out = []
        top = None
        for w in dets:
            if w is None:
                out.append(body[order])
                continue
            if top is None:  # C(N, j) B_{N-j}, highest j first
                top = [c * b for c, b in zip(self.binom[order], reversed(body))][::-1]
            x, acc = self.d * w, 0
            for u in top:
                acc = acc * x + u
            out.append(acc)
        return out


def _integrate_family(model, n, integrands, dets, ladder):
    """The integral of each integrand times e^{c1(L_n (x) E^r)} for each
    (L, r) in dets (an entry None means no determinant factor), integrand
    by integrand, from one residue pass."""
    forms = [_IntegerIntegrand(integrand, n) for integrand in integrands]
    taut_classes = tuple(dict.fromkeys(x for form in forms for x in form.taut_classes))

    def at_point(fp):
        taut = {x: taut_weights(model, fp, x) for x in taut_classes}
        det_chars = dets if dets == (None,) else det_taut_weight(model, fp, dets)

        def numerators(spec, tvals):
            weights = {x: [(_specialize(c, spec), m) for c, m in pairs] for x, pairs in taut.items()}
            ws = [None if c is None else _specialize(c, spec) for c in det_chars]
            return [v for form in forms for v in form.numerators(tvals, weights, ws)]

        return numerators

    values = _residue_pass(model, n, ladder, len(forms) * len(dets), at_point)
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


def _partition_sums(model, n, ladder, factors) -> list:
    """The residue sums of prod_{p in la} f_p / prod t over the partitions la
    of 2n (rev-lex order), with f = factors(t) the point's sequence f_0,
    ..., f_2n of symmetric functions of its tangent weights t."""
    lams = enumerate_partitions(2 * n)
    # each distinct suffix of a la costs one product f_p * (its tail's), and
    # sorting by length puts every tail first, the empty one at index 0
    suffixes = sorted({la[k:] for la in lams for k in range(len(la) + 1)}, key=len)
    index = {s: i for i, s in enumerate(suffixes)}
    plan = [(s[0], index[s[1:]]) for s in suffixes[1:]]
    pick = [index[la] for la in lams]

    def numerators(spec, tvals):
        f = factors(tvals)
        prods = [1]
        for p, tail in plan:
            prods.append(f[p] * prods[tail])
        return [prods[i] for i in pick]

    return _residue_pass(model, n, ladder, len(lams), lambda fp: numerators)


@lru_cache(maxsize=None)
def chern_numbers_hilb(model: ToricSurface, n: int, ladder: str = "xi") -> ChernVector:
    """All Chern numbers c_la(Hilb^n(S)), la a partition of 2n, exact: the
    residue sums of prod_{p in la} e_p(t) / prod t."""
    values = _partition_sums(model, n, ladder, _elementary_symmetric)
    return ChernVector.from_dict(2 * n, dict(zip(enumerate_partitions(2 * n), values)))


@lru_cache(maxsize=None)
def _hilb_beta(model: ToricSurface, n: int):
    """The power-sum polynomial of Hilb^n(S): its integrals of p_mu are the
    residue sums of prod_{p in mu} p_p(t) / prod t."""
    return beta_poly(2 * n, _partition_sums(model, n, "xi", lambda t: _tangent_power_sums(t, 2 * n)))


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
