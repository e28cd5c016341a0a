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
c2 = c2, built from the localized series of the models P2 and P1xP1.

A `ChernVector`, the map {partitions la of d} -> Q of the Chern numbers
c_la = integral of c_la1 c_la2 ... (TM), is the form in which classes are
printed and compared; `to_beta` and `from_beta` convert by Newton's
identities.  The basis of projective-space monomials
CP^{m_1} x ... x CP^{m_k} (`cp_product_class`, `basis_matrix`,
`to_cp_basis`, `from_cp_basis`) is kept on `ChernVector`s as an
independent reference for the tests; no computation here goes through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import enumerate_partitions, merge
from .records import Record
from .rings import Poly, gauss_solve, linear_combination
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
        return ChernVector(0, (((), _val(value)),))

    def as_dict(self) -> dict:
        return dict(self.numbers)

    def value(self, la) -> Fraction:
        return dict(self.numbers).get(tuple(la), Fraction(0))

    def scalar(self):
        if self.dim != 0:
            raise ValueError("not a point class")
        return self.numbers[0][1]


def _val(x):
    return x if isinstance(x, Poly) else Fraction(x)


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
    total = _expand_total_chern(dims)
    # split into graded pieces c_0..c_d  (degree = sum of exponents)
    graded = [dict() for _ in range(d + 1)]
    for exps, c in total.items():
        graded[sum(exps)][exps] = c
    top = dims  # exponent vector of the point monomial
    numbers = {}
    for la in enumerate_partitions(d):
        prod = {(0,) * len(dims): Fraction(1)}
        for part in la:
            prod = _mul_trunc(prod, graded[part], dims)
        numbers[la] = prod.get(top, Fraction(0))
    return ChernVector.from_dict(d, numbers)


def _expand_total_chern(dims):
    from math import comb

    k = len(dims)
    total = {(0,) * k: Fraction(1)}
    for i, di in enumerate(dims):
        factor = {}
        for e in range(di + 1):
            exps = [0] * k
            exps[i] = e
            factor[tuple(exps)] = Fraction(comb(di + 1, e))
        total = _mul_trunc(total, factor, dims)
    return total


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
    numbers = {la: _val(0) for la in lams}
    for mu, a in coeffs.items():
        row = m[idx[mu]]
        if a:
            for j, la in enumerate(lams):
                numbers[la] = numbers[la] + a * row[j]
    return ChernVector.from_dict(d, numbers)


# -- power-sum coordinates ---------------------------------------------------------

# Polynomials in the e_k (Chern classes) or in the p_k (power sums) are
# dicts keyed by partitions: la stands for the monomial e_la1 e_la2 ...


def _aut(mu) -> int:
    """prod_i m_i! over the multiplicities m_i of the parts of mu."""
    out = 1
    for part in set(mu):
        out *= factorial(mu.count(part))
    return out


def _mul_into(out: dict, a: dict, b: dict) -> dict:
    """out += a * b, concatenating the monomials."""
    for la, ca in a.items():
        if not ca:
            continue
        for mu, cb in b.items():
            key = merge(la, mu)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


@lru_cache(maxsize=None)
def _power_sum_in_e(k: int) -> dict:
    """p_k in the e_la by Newton's identity
    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k."""
    out = {(k,): Fraction((-1) ** (k - 1) * k)}
    for i in range(1, k):
        _mul_into(out, {(i,): Fraction((-1) ** (i - 1))}, _power_sum_in_e(k - i))
    return out


@lru_cache(maxsize=None)
def _elementary_in_p(k: int) -> dict:
    """e_k = sum_{nu |- k} (-1)^{k - len(nu)} p_nu / z_nu, z_nu = aut(nu) prod nu."""
    out = {}
    for nu in enumerate_partitions(k):
        z = _aut(nu)
        for part in nu:
            z *= part
        out[nu] = Fraction((-1) ** (k - len(nu)), z)
    return out


@lru_cache(maxsize=None)
def _expand(single, mu) -> dict:
    """prod_j single(mu_j): p_mu in the e_la, or e_mu in the p_nu."""
    if not mu:
        return {(): Fraction(1)}
    return _mul_into({}, single(mu[0]), _expand(single, mu[1:]))


@lru_cache(maxsize=None)
def _newton_table(d: int) -> tuple:
    """One row ((la, t), ...) per partition mu of d, in rev-lex order, with
    integral p_mu = sum t c_la, that is t = [e_la] p_mu."""
    return tuple(
        tuple((la, c) for la, c in _expand(_power_sum_in_e, mu).items() if c)
        for mu in enumerate_partitions(d)
    )


@lru_cache(maxsize=None)
def _from_beta_table(d: int) -> tuple:
    """Rows (la, ((mu, t), ...)) over the partitions la of d with
    c_la = sum t b_mu, that is t = aut(mu) [p_mu] e_la."""
    return tuple(
        (la, tuple((mu, c * _aut(mu)) for mu, c in _expand(_elementary_in_p, la).items() if c))
        for la in enumerate_partitions(d)
    )


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
    other than beta1, ..., beta<d> stay in its Chern numbers."""
    index = {beta_var(k): k for k in range(1, d + 1)}
    split = {}  # mu -> terms of the coefficient of beta_mu
    for mono, c in Poly.coerce(b).terms.items():
        mu = tuple(sorted((index[v] for v, e in mono if v in index for _ in range(e)), reverse=True))
        if sum(mu) != d:
            raise ValueError(f"monomial {mono} has beta-degree {sum(mu)}, expected {d}")
        split.setdefault(mu, {})[tuple(m for m in mono if m[0] not in index)] = c
    coeffs = {}
    for mu, terms in split.items():
        p = Poly(terms)
        coeffs[mu] = p.as_fraction() if p.is_constant() else p
    numbers = {
        la: linear_combination((coeffs[mu], t) for mu, t in row if mu in coeffs)
        for la, row in _from_beta_table(d)
    }
    return ChernVector.from_dict(d, numbers)


def multiply(x: ChernVector, y: ChernVector) -> ChernVector:
    """Ring product: the product of the power-sum polynomials."""
    return from_beta(x.dim + y.dim, to_beta(x) * to_beta(y))


# -- graded series over the cobordism ring ----------------------------------------


def hilb_series(c1sq, c2, order: int) -> TruncSeries:
    """H(S) = sum [Hilb^n(S)] z^n for c1^2(S) = c1sq and c2(S) = c2: by the
    main theorem, exp(a log H(P2) + b log H(P1xP1)) for [S] = a [P2] + b [P1xP1],
    that is (c1sq, c2) = (9a + 8b, 3a + 4b).  Exact rationals give numeric
    series (K3 is (0, 24)), Polys the universal family; term n is the
    power-sum polynomial of a class of dimension 2n.
    """
    # imported here: localization imports this module, and the benchmark
    # tracer (perfbench/tracer.py) looks hilb_series up in this module
    from .localization import hilb_cobordism_series

    a = (_val(c1sq) - 2 * _val(c2)) / 3
    b = (3 * _val(c2) - _val(c1sq)) / 4
    h_p2, h_p1xp1 = (hilb_cobordism_series(model, order) for model in (p2(), p1xp1()))
    return (h_p2.log() * a + h_p1xp1.log() * b).exp()


def product_series(x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """The product of two series of classes, to the smaller of their orders."""
    return x * y
