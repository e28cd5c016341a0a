"""Exact coefficient arithmetic: sparse polynomials and rational linear algebra.

Everything in this package works over Q (or Q[y, r, ...]); no floating
point appears anywhere.  A polynomial is a dict from monomials to
Fraction, where a monomial is a sorted tuple of (variable, exponent)
pairs with positive exponents.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

Scalar = (int, Fraction)


def _merge_monomials(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[mono] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): Fraction(c)})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): Fraction(1)})

    @staticmethod
    def coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    # -- queries -------------------------------------------------------

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

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
        if isinstance(other, Scalar):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            c = Fraction(other)
            return Poly({m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, Poly) and other.is_constant():
            return self * (Fraction(1) / other.as_fraction())
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute(self, assignment: dict):
        """Substitute values (scalars or Poly) for variables."""
        out = Poly.const(0)
        for mono, c in self.terms.items():
            term = Poly.const(c)
            for v, e in mono:
                val = assignment.get(v)
                if val is None:
                    term = term * Poly.var(v, e)
                else:
                    term = term * (Poly.coerce(val) ** e)
            out = out + term
        return out

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


def binomial(x, n: int):
    """Generalized binomial coefficient C(x, n) = x(x-1)...(x-n+1)/n!.

    Works for integer, Fraction and Poly arguments alike; for x = p/q it
    forms prod_{i<n} (p - q i) / (q^n n!) in integers.
    """
    if not isinstance(x, Poly):
        if n < 0:
            return Fraction(0)
        x = Fraction(x)
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
