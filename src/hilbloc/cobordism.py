"""The rational complex cobordism ring in power-sum coordinates.

A class of complex dimension d is its power-sum polynomial

    sum_mu b_mu beta_mu1 beta_mu2 ...,   b_mu = integral of p_mu(TM) / aut(mu),

a `Poly` in the variables beta1, beta2, ... (p_k is the k-th power sum of
the Chern roots, aut(mu) the product of the factorials of the part
multiplicities; `beta_poly` builds it from the integrals of the p_mu).
This is the integral of exp(sum_k beta_k p_k), so the product of classes
is the product of their polynomials, a graded series of classes such as
H(S) = sum_n [Hilb^n(S)] z^n is a `TruncSeries` in z of them, and a genus
with log Q(x) = sum_k s_k x^k is the substitution beta_k = s_k
(Hirzebruch, Topological Methods in Algebraic Geometry, Sections 1-4).
This module is the only one that knows the variable names and aut(mu).
`hilb_series(c1sq, c2, order)` is H(S) for the class with c1^2 = c1sq and
c2 = c2: `surface_series` of the localized series of the models P2 and P1xP1.

A `ChernVector`, the map {partitions la of d} -> Q of the Chern numbers
c_la = integral of c_la1 c_la2 ... (TM), is the form in which classes are
printed and compared; `to_beta` and `from_beta` convert by Newton's
identities.  `from_beta` works in integers: k! e_k has the integer
coefficients k!/z_nu in the p_nu, so c_la = sum_mu T[la][mu] b_mu / prod_i la_i!
with T[la][mu] = aut(mu) prod_i la_i! [p_mu] e_la an integer table, and the
b_mu of one monomial in the parameters are one integer vector over one
denominator; the vectors of all parameter monomials are packed into one
integer per mu, so a Chern number is one integer dot product.  The tables
multiply polynomials keyed by partitions on packed keys, the part
multiplicities in 8-bit fields, so a product of monomials is an int add
(dimensions below 256).  The basis of projective-space monomials
CP^{m_1} x ... x CP^{m_k} (`cp_product_class`, `basis_matrix`,
`to_cp_basis`, `from_cp_basis`) is kept on `ChernVector`s as an
independent reference for the tests; no computation here goes through it.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian_product
from math import comb, factorial, lcm, prod
from operator import mul

from .partitions import enumerate_partitions
from .records import Record
from .rings import IntPoly, Poly, _coerce, gauss_solve, linear_combination
from .series import TruncSeries
from .toric import p1xp1, p2


class ChernVector(Record):
    """A rational cobordism class: complex dimension + Chern numbers.

    Dimension 0 encodes a multiple of the point class; the single entry
    (keyed by the empty partition) is that multiple.  Values are Fractions
    or Polys in formal parameters.
    """

    def __init__(self, dim: int, numbers: tuple):
        # numbers: tuple of (partition, value), partitions in rev-lex order
        self._freeze(dim, numbers)

    @staticmethod
    def from_dict(dim: int, numbers: dict) -> "ChernVector":
        lams = enumerate_partitions(dim)
        if set(numbers) != set(lams):
            raise ValueError("keys must be exactly the partitions of dim")
        return ChernVector(dim, tuple((la, numbers[la]) for la in lams))

    @staticmethod
    def point(value=1) -> "ChernVector":
        return ChernVector(0, (((), _coerce(value)),))

    def as_dict(self) -> dict:
        return dict(self.numbers)

    def value(self, la) -> Fraction:
        return dict(self.numbers).get(tuple(la), Fraction(0))

    def scalar(self):
        if self.dim != 0:
            raise ValueError("not a point class")
        return self.numbers[0][1]


# -- Chern numbers of products of projective spaces ---------------------------
#
# Milnor's theorem makes the CP-monomials a basis of the rational cobordism
# ring.  This section and the next solve for coordinates in it by Gaussian
# elimination; the tests use them as an oracle for the power-sum ring.


@lru_cache(maxsize=None)
def cp_product_class(dims: tuple) -> ChernVector:
    """Chern numbers of CP^{d_1} x ... x CP^{d_k}.

    The total Chern class is prod_i (1+h_i)^{d_i+1} in the ring with
    h_i^{d_i+1} = 0, and the integral of h_1^{d_1}...h_k^{d_k} is 1.
    """
    dims = tuple(dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be positive integers")
    d = sum(dims)
    # graded pieces c_0..c_d: the factors are in distinct variables, so the
    # coefficient of h_1^e_1...h_k^e_k is prod_i binom(d_i + 1, e_i)
    graded = [dict() for _ in range(d + 1)]
    for exps in cartesian_product(*(range(di + 1) for di in dims)):
        graded[sum(exps)][exps] = Fraction(prod(comb(di + 1, e) for di, e in zip(dims, exps)))
    top = dims  # exponent vector of the point monomial
    numbers = {}
    for la in enumerate_partitions(d):
        acc = {(0,) * len(dims): Fraction(1)}
        for part in la:
            acc = _mul_trunc(acc, graded[part], dims)
        numbers[la] = acc.get(top, Fraction(0))
    return ChernVector.from_dict(d, numbers)


def _mul_trunc(a, b, caps):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if any(x > cap for x, cap in zip(e, caps)):
                continue
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


# -- basis conversion -----------------------------------------------------------


@lru_cache(maxsize=None)
def basis_matrix(d: int):
    """Rows: CP-monomials mu (partitions of d); columns: Chern numbers c_la.

    M[mu][la] = c_la(CP^{mu_1} x ... ).  Returned as a nested tuple in the
    rev-lex partition order.
    """
    lams = enumerate_partitions(d)
    rows = []
    for mu in lams:
        cls = cp_product_class(mu)
        rows.append(tuple(cls.value(la) for la in lams))
    return tuple(rows)


def to_cp_basis(x: ChernVector) -> dict:
    """Coefficients a_mu with x = sum_mu a_mu [CP^mu-product]."""
    if x.dim == 0:
        return {(): x.scalar()}
    lams = enumerate_partitions(x.dim)
    m = basis_matrix(x.dim)
    # solve sum_mu a_mu M[mu][la] = x_la  (transpose system)
    mt = [[m[j][i] for j in range(len(lams))] for i in range(len(lams))]
    xd = x.as_dict()
    try:
        sol = gauss_solve(mt, [xd[la] for la in lams])
    except ValueError as exc:  # pragma: no cover - Milnor guarantees this
        raise RuntimeError(f"cobordism basis matrix singular in dim {x.dim}") from exc
    return dict(zip(lams, sol))


def from_cp_basis(d: int, coeffs: dict) -> ChernVector:
    if d == 0:
        return ChernVector.point(coeffs.get((), Fraction(0)))
    lams = enumerate_partitions(d)
    m = basis_matrix(d)
    idx = {mu: i for i, mu in enumerate(lams)}
    numbers = {la: Fraction(0) for la in lams}
    for mu, a in coeffs.items():
        row = m[idx[mu]]
        if a:
            for j, la in enumerate(lams):
                numbers[la] = numbers[la] + a * row[j]
    return ChernVector.from_dict(d, numbers)


# -- power-sum coordinates ---------------------------------------------------------

# Polynomials in the e_k (Chern classes) or in the p_k (power sums) are
# `rings.IntPoly`s keyed by partitions: la stands for the monomial
# e_la1 e_la2 ..., packed as the multiplicities of the parts 1, 2, ... of la
# in fields of 8 bits (`_pack`), so the product of two monomials is an int
# add; partitions of 256 or more would carry a field, and `_product` refuses
# them.  No coefficient of these products cancels: the one of e_la in p_mu,
# and of p_nu in the product of the k! e_k, has the sign (-1)^(d - len).

_PART_BITS = 8


def _pack(la) -> int:
    """The packed key of the partition la: its multiplicity of the part p in
    the field p - 1."""
    return sum(1 << _PART_BITS * (p - 1) for p in la)


@lru_cache(maxsize=None)
def _partitions_by_key(d: int) -> dict:
    """{packed key: la} over the partitions la of d, in rev-lex order."""
    return {_pack(la): la for la in enumerate_partitions(d)}


def _aut(mu) -> int:
    """prod_i m_i! over the multiplicities m_i of the parts of mu."""
    return prod(factorial(mu.count(part)) for part in set(mu))


@lru_cache(maxsize=None)
def _product(single, mu) -> IntPoly:
    """prod_j single(mu_j) with packed keys, memoized on the suffixes of mu:
    p_mu in the e_la, or prod_j mu_j! e_mu_j in the p_nu."""
    if not mu:
        return IntPoly({0: 1})
    if sum(mu) >> _PART_BITS:
        raise ValueError(f"partitions of {sum(mu)} do not fit packed keys of {_PART_BITS}-bit multiplicities")
    return single(mu[0]) * _product(single, mu[1:])


@lru_cache(maxsize=None)
def _power_sum_in_e(k: int) -> IntPoly:
    """p_k in the e_la, keyed by packed la, by Newton's identity
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k."""
    if k >> _PART_BITS:
        raise ValueError(f"partitions of {k} do not fit packed keys of {_PART_BITS}-bit multiplicities")
    out = IntPoly({_pack((k,)): Fraction((-1) ** (k - 1) * k)})
    for i in range(1, k):
        out += IntPoly({_pack((i,)): Fraction((-1) ** (i - 1))}) * _power_sum_in_e(k - i)
    return out


def power_sum_in_chern(k: int) -> dict:
    """p_k in the e_la as {la: nonzero coefficient}."""
    partition = _partitions_by_key(k)
    return {partition[key]: c for key, c in _power_sum_in_e(k).terms.items()}


@lru_cache(maxsize=None)
def _factorial_elementary_in_p(k: int) -> IntPoly:
    """k! e_k = sum_{nu |- k} (-1)^{k - len(nu)} (k!/z_nu) p_nu, z_nu = aut(nu) prod nu,
    keyed by packed nu; k!/z_nu is the number of permutations of cycle type
    nu, an integer."""
    return IntPoly(
        {_pack(nu): (-1) ** (k - len(nu)) * (factorial(k) // (_aut(nu) * prod(nu))) for nu in enumerate_partitions(k)}
    )


@lru_cache(maxsize=None)
def _newton_table(d: int) -> tuple:
    """One row ((la, t), ...) per partition mu of d, in rev-lex order, with
    integral p_mu = sum t c_la, that is t = [e_la] p_mu."""
    partition = _partitions_by_key(d)
    return tuple(
        tuple((partition[key], c) for key, c in _product(_power_sum_in_e, mu).terms.items())
        for mu in enumerate_partitions(d)
    )


@lru_cache(maxsize=None)
def _readback_table(d: int) -> tuple:
    """(rows, slots, bound) over the partitions of d in rev-lex order: one
    row (den, js, ts) per partition la, with c_la = sum_i ts[i] b_mu / den
    for mu the js[i]-th partition of d (its slot): den = prod la_i! and
    t = aut(mu) [p_mu] prod_i la_i! e_la_i, a nonzero integer; slots maps
    beta_mu1 beta_mu2 ..., a Poly monomial, to the slot of mu; bound is the
    largest sum of |t| over a row."""
    lams = enumerate_partitions(d)
    packed_slot = {_pack(mu): j for j, mu in enumerate(lams)}
    auts = [_aut(mu) for mu in lams]
    rows = []
    for la in lams:
        expansion = _product(_factorial_elementary_in_p, la).terms
        js = tuple(packed_slot[key] for key in expansion)
        rows.append((prod(map(factorial, la)), js, tuple(t * auts[j] for j, t in zip(js, expansion.values()))))
    slots = {_beta_monomial(mu): j for j, mu in enumerate(lams)}
    return tuple(rows), slots, max(sum(map(abs, ts)) for _, _, ts in rows)


_BETA = "beta"


def beta_var(k: int) -> str:
    """The name of the power-sum variable beta_k."""
    return f"{_BETA}{k}"


@lru_cache(maxsize=None)
def _beta_monomial(mu) -> tuple:
    """beta_mu1 beta_mu2 ... as a Poly monomial."""
    return tuple(sorted((beta_var(k), mu.count(k)) for k in set(mu)))


def beta_poly(d: int, integrals) -> Poly:
    """The power-sum polynomial of the class of dimension d whose integral of
    p_mu is integrals[i] for the i-th partition mu of d (rev-lex order).

    Integrals that are Polys in parameters (c1sq, c2, y, ...) keep those
    variables next to the beta_k.
    """
    terms = {}
    for mu, v in zip(enumerate_partitions(d), integrals):
        if v:
            aut = _aut(mu)
            for mono, c in Poly.coerce(v).terms.items():
                terms[tuple(sorted(mono + _beta_monomial(mu)))] = c / aut
    return Poly(terms)


def beta_degree(b) -> int:
    """The complex dimension of a power-sum polynomial: the largest sum of
    k e over the factors beta_k^e of one of its monomials (0 if constant)."""
    return max(
        (sum(int(v[len(_BETA):]) * e for v, e in mono if v.startswith(_BETA)) for mono in Poly.coerce(b).terms),
        default=0,
    )


def to_beta(x: ChernVector) -> Poly:
    """The power-sum polynomial of a class given by its Chern numbers."""
    c = x.as_dict()
    return beta_poly(
        x.dim, [linear_combination((c[la], t) for la, t in row if c[la]) for row in _newton_table(x.dim)]
    )


def from_beta(d: int, b) -> ChernVector:
    """The class of dimension d whose power-sum polynomial is b; variables
    other than beta1, ..., beta<d> stay in its Chern numbers.  A Chern number
    is a Poly if its row of the table meets a coefficient of b that is not
    constant, and a Fraction otherwise.

    The coefficients of b are grouped by their monomial in the parameters,
    each group an integer vector over the slots of the beta-monomials over
    one denominator.  The groups are packed into one integer per slot, group
    g in the field g of w bits, with w wide enough for every row sum (the
    largest numerator times the table's bound on a row's sum of |t|), so a
    row is one dot product: adding 2^(w-1) to every field (a uniform sign
    offset) makes each field of the sum its group's row sum plus 2^(w-1)."""
    index = {beta_var(k): k for k in range(1, d + 1)}
    rows, slot, bound = _readback_table(d)
    groups = defaultdict(dict)  # parameter monomial -> {slot of mu: b_mu}
    parametric = set()  # the slots of the b_mu that are not constant
    for mono, c in Poly.coerce(b).terms.items():
        params = tuple(m for m in mono if m[0] not in index)
        beta = tuple(m for m in mono if m[0] in index)
        j = slot.get(beta)
        if j is None:
            raise ValueError(f"monomial {mono} has beta-degree {sum(index[v] * e for v, e in beta)}, expected {d}")
        groups[params][j] = c
        if params:
            parametric.add(j)
    monos, dens, vectors = [], [], []
    for mono, vec in groups.items():
        den = lcm(*(c.denominator for c in vec.values()))
        monos.append(mono)
        dens.append(den)
        vectors.append({j: c.numerator * (den // c.denominator) for j, c in vec.items()})
    top = max((abs(x) for vec in vectors for x in vec.values()), default=0)
    width = ((top * bound).bit_length() + 8) // 8  # bytes per field: |row sum| < 2^(8 width - 1)
    packed = [0] * len(rows)
    for g, vec in enumerate(vectors):
        for j, x in vec.items():
            packed[j] += x << 8 * width * g
    half = 1 << 8 * width - 1
    offset = sum(half << 8 * width * g for g in range(len(vectors)))
    numbers = []
    for la, (den, js, ts) in zip(enumerate_partitions(d), rows):
        fields = (sum(map(mul, ts, map(packed.__getitem__, js))) + offset).to_bytes(width * len(vectors), "little")
        terms = {}
        for g, (mono, vden) in enumerate(zip(monos, dens)):
            s = int.from_bytes(fields[g * width : (g + 1) * width], "little") - half
            if s:
                terms[mono] = Fraction(s, vden * den)
        numbers.append((la, terms.get((), Fraction(0)) if parametric.isdisjoint(js) else Poly._of(terms)))
    return ChernVector(d, tuple(numbers))


def multiply(x: ChernVector, y: ChernVector) -> ChernVector:
    """Ring product: the product of the power-sum polynomials."""
    return from_beta(x.dim + y.dim, to_beta(x) * to_beta(y))


# -- graded series over the cobordism ring ----------------------------------------


def surface_series(c1sq, c2, model_series, var: str, order: int) -> TruncSeries:
    """By the main theorem, exp(a log h_P2 + b log h_P1xP1) for [S] = a [P2] + b [P1xP1], that is
    (c1sq, c2) = (9a + 8b, 3a + 4b), a series in var to order from model_series(model), the series
    of Hilb^n classes (or of genera of them) of P2 or P1xP1; a model whose coefficient is 0 is not
    asked for.  Exact rationals give numeric series (K3 is (0, 24)), Polys the universal family."""
    a = (_coerce(c1sq) - 2 * _coerce(c2)) / 3
    b = (3 * _coerce(c2) - _coerce(c1sq)) / 4
    logs = [model_series(model).log() * c for model, c in ((p2(), a), (p1xp1(), b)) if c != 0]
    return sum(logs, TruncSeries.zero(var, order)).exp()


def hilb_series(c1sq, c2, order: int, ladder: str = "xi") -> TruncSeries:
    """H(S) = sum [Hilb^n(S)] z^n for c1^2(S) = c1sq and c2(S) = c2, the
    `surface_series` of the series of P2 and P1xP1 localized on the 1-PS
    ladder; term n is the power-sum polynomial of a class of dimension 2n.
    """
    # imported here: localization imports this module, and the benchmark
    # tracer (perfbench/tracer.py) looks hilb_series up in this module
    from .localization import hilb_cobordism_series

    return surface_series(c1sq, c2, lambda model: hilb_cobordism_series(model, order, ladder), "z", order)


def product_series(x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """The product of two series of classes, to the smaller of their orders."""
    return x * y
