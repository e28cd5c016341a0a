"""Exact coefficient arithmetic: sparse polynomials and rational linear algebra.

Everything in this package works over Q (or Q[y, r, ...]); no floating
point appears anywhere.  A polynomial is a dict from monomials to
Fraction, where a monomial is a sorted tuple of (variable, exponent)
pairs with positive exponents.

Representation invariant: every value in `Poly.terms` is a nonzero
Fraction.  The public constructors (`Poly(...)`, `Poly.const`) coerce
int and Fraction coefficients, reject every other type (a float would
break exactness) and drop zeros.  `Poly._of` trusts its dict and does
neither; only code that has just built a dict of nonzero Fractions
itself calls it: the arithmetic in this module, and the integer series
kernels of `series` when they form their output coefficients.

Terms keep insertion order, and the JSON of a one-variable coefficient
(`cli._coeff_json`) lists them in that order, so the arithmetic fixes
it: a sum lists the left operand's terms first, then the new ones of the
right, and drops those that cancel; a product lists its terms by first
appearance over the pairs of factor terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

Scalar = (int, Fraction)


def _fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients are int or Fraction, not {type(c).__name__}")


def _merge_monomials(m1, m2):
    """The monomial m1 * m2.  The empty monomial and a pair of powers of one
    variable, the most common cases, skip the dict and the sort."""
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) == len(m2) == 1 and m1[0][0] == m2[0][0]:
        e = m1[0][1] + m2[0][1]
        return ((m1[0][0], e),) if e else ()
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _add_into(terms: dict, other: dict) -> None:
    """terms += other in place, both dicts of nonzero Fractions; a sum
    that cancels is removed."""
    for m, c in other.items():
        s = terms.get(m)
        if s is None:
            terms[m] = c
        else:
            s += c
            if s:
                terms[m] = s
            else:
                del terms[m]


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = _fraction(c)
                if c:
                    self.terms[mono] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def _of(terms: dict) -> "Poly":
        """The Poly with exactly these terms: every value must already be a
        nonzero Fraction (see the module docstring)."""
        p = object.__new__(Poly)
        p.terms = terms
        return p

    @staticmethod
    def const(c) -> "Poly":
        c = _fraction(c)
        return Poly._of({(): c} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if exp == 0:
            return Poly.const(1)
        return Poly._of({((name, exp),): Fraction(1)})

    @staticmethod
    def coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    # -- queries -------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return self.constant_term()

    def variables(self):
        names = set()
        for mono in self.terms:
            for v, _ in mono:
                names.add(v)
        return sorted(names)

    def coefficient_map(self, name: str):
        """For a univariate polynomial in `name`, return {exponent: Fraction}."""
        out = {}
        for mono, c in self.terms.items():
            if len(mono) > 1 or (mono and mono[0][0] != name):
                raise ValueError(f"polynomial is not univariate in {name}")
            out[mono[0][1] if mono else 0] = c
        return out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            other = other.terms
        elif isinstance(other, Scalar):
            if not other:
                return self
            other = {(): Fraction(other)}
        else:
            return NotImplemented
        terms = dict(self.terms)
        _add_into(terms, other)
        return Poly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Poly, *Scalar)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            if not other:
                return Poly._of({})
            return Poly._of({m: v * other for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                s = terms.get(m)
                terms[m] = c1 * c2 if s is None else s + c1 * c2
        return Poly._of({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            return self * (1 / Fraction(other))
        if isinstance(other, Poly) and other.is_constant():
            return self * (1 / other.as_fraction())
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Poly.const(1) if out is None else out

    def substitute(self, assignment: dict):
        """Substitute values (scalars or Poly) for variables.  When every
        variable gets an int or Fraction, the value is summed in Fractions
        and returned as a constant Poly."""
        if all(isinstance(assignment.get(v), Scalar) for v in self.variables()):
            total = Fraction(0)
            powers = {}
            for mono, c in self.terms.items():
                for ve in mono:
                    p = powers.get(ve)
                    if p is None:
                        p = powers[ve] = _fraction(assignment[ve[0]]) ** ve[1]
                    c = c * p
                total += c
            return Poly.const(total)
        out = {}
        powers = {}
        for mono, c in self.terms.items():
            term = Poly._of({(): c})
            for v, e in mono:
                p = powers.get((v, e))
                if p is None:
                    val = assignment.get(v)
                    p = powers[v, e] = Poly.var(v, e) if val is None else Poly.coerce(val) ** e
                term = term * p
            _add_into(out, term.terms)
        return Poly._of(out)

    def __call__(self, **kwargs):
        res = self.substitute(kwargs)
        return res.as_fraction() if res.is_constant() else res

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.is_constant() and self.constant_term() == other
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (sum(e for _, e in m), m)):
            c = self.terms[mono]
            mstr = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
            if mono == ():
                bits.append(str(c))
            elif c == 1:
                bits.append(mstr)
            elif c == -1:
                bits.append(f"-{mstr}")
            else:
                bits.append(f"{c}*{mstr}")
        return " + ".join(bits).replace("+ -", "- ")

    def __bool__(self):
        return bool(self.terms)


def linear_combination(pairs):
    """sum(c * t for c, t in pairs) from Fraction(0), for Fractions or Polys
    c and scalars t: the same value, type and term order, accumulated in one
    dict instead of a copy per step."""
    acc, terms = Fraction(0), None  # terms: from the first Poly on
    for c, t in pairs:
        x = c * t
        if terms is not None:
            _add_into(terms, x.terms if isinstance(x, Poly) else {(): Fraction(x)} if x else {})
        elif isinstance(x, Poly):
            terms = dict(x.terms)
            if acc:
                _add_into(terms, {(): acc})
        else:
            acc += x
    return acc if terms is None else Poly._of(terms)


def binomial(x, n: int):
    """Generalized binomial coefficient C(x, n) = x(x-1)...(x-n+1)/n!.

    Works for integer, Fraction and Poly arguments alike; for x = p/q it
    forms prod_{i<n} (p - q i) / (q^n n!) in integers.
    """
    if not isinstance(x, Poly):
        x = _fraction(x)
        if n < 0:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        num = 1
        for i in range(n):
            num *= p - q * i
        return Fraction(num, q**n * factorial(n))
    if n < 0:
        return Poly.const(0)
    num = Poly.const(1)
    for i in range(n):
        num = num * (x - i)
    return num / factorial(n)


def gauss_solve(matrix, rhs):
    """Solve M x = rhs exactly.  M is a square matrix of Fractions; the
    right-hand-side entries may be Fractions or Polys (anything that is a
    Q-vector-space element).  Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    m = [[Fraction(e) for e in row] for row in matrix]
    b = list(rhs)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("gauss_solve requires a square system")
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [e * inv for e in m[col]]
        b[col] = b[col] * inv
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * c for a, c in zip(m[r], m[col])]
                b[r] = b[r] - f * b[col]
    return b


def format_fraction(x) -> str:
    """Serialize an exact rational as 'p' or 'p/q' (q > 0, gcd(p,q)=1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
