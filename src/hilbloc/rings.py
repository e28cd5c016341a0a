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
itself calls it: the arithmetic in this module, and the integer kernels
of `series` and `cobordism.from_beta` when they form their output
coefficients.

Terms keep insertion order, and the JSON of a one-variable coefficient
(`cli._coeff_json`) lists them in that order, so the arithmetic fixes
it: a sum lists the left operand's terms first, then the new ones of the
right, and drops those that cancel; a product lists its terms by first
appearance over the pairs of factor terms.

Packed exponents.  The package has one polynomial product,
`IntPoly.__mul__`, on packed monomial keys: a monomial's exponents in one
int, a 32-bit field per variable (assigned at first sight, fixed for the
process), so a product of monomials is an int add.  `_KEYS` encodes each
monomial once, `_MONOMIALS` decodes each key once.  A key holds exponents
1 .. 2^31 - 1, so two keys add without a carry; `_KEYS` raises ValueError
for any other, and so does `Poly * Poly`, which multiplies on these keys
(a power of one term multiplies none).  The series kernels multiply many
keys into one, so a series keeps its exponents below 2^24 (`series`).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

Scalar = (int, Fraction)


def _fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients are int or Fraction, not {type(c).__name__}")


def _coerce(c):
    """A coefficient as a Poly or Fraction; TypeError for anything else,
    floats included."""
    return c if isinstance(c, Poly) else _fraction(c)


def _add_into(terms: dict, other: dict) -> None:
    """terms += other in place, both dicts of nonzero coefficients; a sum
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
        a = IntPoly({_KEYS[m]: c for m, c in self.terms.items()})
        b = IntPoly({_KEYS[m]: c for m, c in other.terms.items()})
        return Poly._of({_MONOMIALS[k]: c for k, c in (a * b).terms.items()})

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
        if n and len(self.terms) == 1:  # c m: c^n and m's exponents times n
            ((m, c),) = self.terms.items()
            return Poly._of({tuple((v, e * n) for v, e in m): c**n})
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


_FIELD = 32  # bits per variable in a packed monomial key
_KEY_BOUND = 1 << 31  # a key's exponents stay below it: two keys add without a carry
_EXP_BOUND = 1 << 24  # a series' exponents stay below it (see `series`)
_SHIFTS = {}  # variable -> the shift of its field


class _Monomials(dict):
    """packed key -> monomial, each decoded once."""

    def __missing__(self, key):
        mask = (1 << _FIELD) - 1
        mono = self[key] = tuple(sorted((v, e) for v, shift in _SHIFTS.items() if (e := key >> shift & mask)))
        return mono


class _Keys(dict):
    """monomial -> packed key, each encoded once; ValueError for an exponent
    outside 1 .. 2^31 - 1.  `wide` has the bits at and above 2^24 of every
    assigned field set: a key that meets it holds an exponent that no series
    may."""

    wide = 0

    def __missing__(self, mono):
        key = 0
        for v, e in mono:
            if not 0 < e < _KEY_BOUND:
                raise ValueError(f"exponent {e} of {v} cannot be packed: a monomial key holds 1 <= e < 2^31")
            shift = _SHIFTS.get(v)
            if shift is None:
                shift = _SHIFTS[v] = _FIELD * len(_SHIFTS)
                self.wide |= ((1 << _FIELD) - _EXP_BOUND) << shift
            key += e << shift
        self[mono] = key
        _MONOMIALS.setdefault(key, mono)
        return key


_MONOMIALS = _Monomials()
_KEYS = _Keys()


class IntPoly:
    """A polynomial {packed monomial key: nonzero int or Fraction}: the key
    of a product of monomials is the sum of their keys (the caller keeps its
    bit fields from carrying), and 0 is the constant monomial.  It mixes with
    ints under `+`, unary `-` and `*` with the term order of `Poly`, and `//`
    by an int divides every term exactly.  `Poly * Poly`, the numerators of
    `series` and the Newton tables of `cobordism` multiply on it."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other = {0: other}
        else:
            other = other.terms
        terms = dict(self.terms)
        _add_into(terms, other)
        return IntPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly({m: -x for m, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly({m: x * other for m, x in self.terms.items()} if other else {})
        if len(other.terms) == 1:  # one term: nothing collides or cancels
            ((m2, x2),) = other.terms.items()
            return IntPoly({m1 + m2: x1 * x2 for m1, x1 in self.terms.items()})
        terms = {}
        get, right = terms.get, other.terms.items()
        for m1, x1 in self.terms.items():
            for m2, x2 in right:
                m = m1 + m2
                terms[m] = get(m, 0) + x1 * x2
        if all(terms.values()):  # nothing cancelled: keep the dict
            return IntPoly(terms)
        return IntPoly({m: x for m, x in terms.items() if x})

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return IntPoly({m: x // other for m, x in self.terms.items()})

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


def _rational_arg(x, name: str):
    """x if it is an int or a Fraction; otherwise a TypeError that names the
    argument, name being "function: argument"."""
    if isinstance(x, Scalar):
        return x
    raise TypeError(f"{name} must be rational (int or Fraction), not {type(x).__name__} {x!r}")


def binomial(x, n: int) -> Fraction:
    """Generalized binomial coefficient C(x, n) = x(x-1)...(x-n+1)/n! of a
    rational x (an int or a Fraction; TypeError otherwise), 0 for n < 0.

    For x = p/q it forms prod_{i<n} (p - q i) / (q^n n!) in integers.
    """
    x = _rational_arg(x, "binomial: x")
    if n < 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    return Fraction(prod(range(p, p - q * n, -q)), q**n * factorial(n))


def gauss_solve(matrix, rhs):
    """Solve M x = rhs exactly: M square, of ints or Fractions, and rhs of
    ints, Fractions or Polys; TypeError on any other entry, floats included,
    and ValueError on a singular matrix.
    """
    n = len(matrix)
    m = [[_fraction(e) for e in row] for row in matrix]
    b = [_coerce(x) for x in rhs]
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
