"""Truncated formal power series with exact coefficients.

Coefficients are Fractions, or Polys in declared parameters (y, r, ...).
All arithmetic is exact; a binary operation truncates to the smaller of
the two operand orders so precision is never silently invented.

Every operation runs on integers.  A list of coefficients is written as
integer numerators over their positive lcm denominator L (`_int_form`): a
Fraction coefficient as one int, a Poly coefficient as an `_IntPoly`, the
numerators of its terms keyed by the monomial's exponent vector packed into
one int, a 32-bit field per variable (fields are assigned to variables at
first sight and fixed for the process).  A product of monomials is then an
int add, and each output monomial is decoded once, through a dict.  An
exponent of 2^24 or more entering a kernel raises (also one that a
kernel inside `log` or `pow` has formed): a kernel multiplies at most
`order` numerators into one term, so below order 256 no field can carry
into the next, and above it `_int_form` checks the largest exponent times
the order against 2^32.  `*` (by a series, or by an int, Fraction or Poly
scalar), `inverse` and `exp` each have this one implementation and form
one coefficient per output term:
- a product is the integer convolution of the numerators over L_a L_b;
- the inverse of F/L is g_n = L H_n / F_0^(n+1) with H_0 = 1 and
  H_n = -sum_{k>=1} F_k F_0^(k-1) H_(n-k);
- the exponential of C/L (C_0 = 0) is out_m = E_m / (m! L^m) with E_0 = 1
  and E_m = sum_{k>=1} k C_k L^(k-1) (m-1)!/(m-k)! E_(m-k).
On a series of Fractions, `log` and `pow` are integer recurrences too:
- the logarithm of F/L (F_0 = L) is l_n = M_n / (n L^n) with
  M_n = n F_n L^(n-1) - sum_{0<k<n} M_k F_(n-k) L^(n-k-1);
- the power (F/L)^(p/q) (F_0 = L, p != 0) is out_m = G_m / (m! (qL)^m) with
  G_0 = 1 and G_m = sum_{k>=1} ((p+q)k - qm) F_k (qL)^(k-1) (m-1)!/(m-k)!
  G_(m-k), J.C.P. Miller's recurrence n g_n = sum_k ((e+1)k - n) f_k g_(n-k)
  for f^e (Knuth, TAOCP vol. 2, 4.7).
On a series with Poly coefficients, `log` is derivative * inverse, then
integral, and `pow` is a repeated product or exp(e log): both are built
from the kernels above, which fixes the term order of their Poly
coefficients.  Results have the coefficients, types and term order of the
plain coefficient loops.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .rings import Poly, _fraction, binomial


def _coerce(c):
    """A coefficient as a Poly or Fraction; TypeError for anything else,
    floats included."""
    return c if isinstance(c, Poly) else _fraction(c)


_FIELD = 32  # bits per variable in a packed monomial key
_EXP_BOUND = 1 << 24  # input exponents stay below it
_SHIFTS = {}  # variable -> the shift of its field


class _Monomials(dict):
    """packed key -> monomial, each decoded once."""

    def __missing__(self, key):
        mask = (1 << _FIELD) - 1
        mono = self[key] = tuple(sorted((v, e) for v, shift in _SHIFTS.items() if (e := key >> shift & mask)))
        return mono


class _Keys(dict):
    """monomial -> packed key, each encoded once; ValueError for an exponent
    outside 1 .. 2^24 - 1."""

    def __missing__(self, mono):
        key = 0
        for v, e in mono:
            if not 0 < e < _EXP_BOUND:
                raise ValueError(f"exponent {e} of {v} cannot be packed: a monomial key holds 1 <= e < 2^24")
            key += e << _SHIFTS.setdefault(v, _FIELD * len(_SHIFTS))
        self[mono] = key
        _MONOMIALS.setdefault(key, mono)
        return key


_MONOMIALS = _Monomials()
_KEYS = _Keys()


class _IntPoly:
    """The integer numerators of a Poly coefficient: a dict {packed monomial
    key: nonzero int}.  It mixes with ints under `+`, unary `-` and `*`,
    which is all the integer kernels use, and keeps the type and term order
    that the same operations on Polys give: a sum puts the left operand's
    terms first and drops cancelled ones, and a product lists its terms by
    first appearance."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other = {0: other}
        else:
            other = other.c
        c = dict(self.c)
        for m, x in other.items():
            x += c.get(m, 0)
            if x:
                c[m] = x
            else:
                del c[m]
        return _IntPoly(c)

    __radd__ = __add__

    def __neg__(self):
        return _IntPoly({m: -x for m, x in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return _IntPoly({m: x * other for m, x in self.c.items()} if other else {})
        c = {}
        get, right = c.get, other.c.items()
        for m1, x1 in self.c.items():
            for m2, x2 in right:
                m = m1 + m2
                c[m] = get(m, 0) + x1 * x2
        return _IntPoly({m: x for m, x in c.items() if x})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.c)


def _int_form(cs):
    """(numerators, den): the coefficients cs as integer numerators over
    their positive lcm denominator den, an int for a Fraction coefficient
    and an `_IntPoly` for a Poly.  ValueError if an exponent cannot be
    packed, or if more than 256 coefficients could carry a field."""
    dens = []
    for c in cs:
        if isinstance(c, Poly):
            dens.extend(v.denominator for v in c.terms.values())
        else:
            dens.append(c.denominator)
    den = lcm(*dens)
    out = [
        _IntPoly({_KEYS[m]: v.numerator * (den // v.denominator) for m, v in c.terms.items()})
        if isinstance(c, Poly) else c.numerator * (den // c.denominator)
        for c in cs
    ]
    if len(cs) * _EXP_BOUND > 1 << _FIELD:  # a term multiplies at most len(cs) numerators
        top = max((e for c in cs if isinstance(c, Poly) for m in c.terms for _, e in m), default=0)
        if top * len(cs) >> _FIELD:
            raise ValueError(f"exponent {top} at order {len(cs) - 1} cannot be packed: products would pass 2^32")
    return out, den


def _lower(num, den):
    """The coefficient num / den: a Fraction for an int num, a Poly for an
    `_IntPoly`."""
    if isinstance(num, int):
        return Fraction(num, den)
    return Poly._of({_MONOMIALS[m]: Fraction(x, den) for m, x in num.c.items()})


class TruncSeries:
    """A power series in one variable, truncated at order N inclusive."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs=()):
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = [_coerce(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.var = var
        self.order = order
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _of(var: str, order: int, coeffs) -> "TruncSeries":
        """The series with exactly these coefficients: order + 1 of them,
        each already a Fraction or a Poly.  Arithmetic forms its results
        through it and skips the coercion of `__init__`."""
        s = object.__new__(TruncSeries)
        s.var, s.order, s.coeffs = var, order, tuple(coeffs)
        return s

    @staticmethod
    def zero(var: str, order: int) -> "TruncSeries":
        return TruncSeries(var, order)

    @staticmethod
    def one(var: str, order: int) -> "TruncSeries":
        return TruncSeries(var, order, [1])

    @staticmethod
    def x(var: str, order: int) -> "TruncSeries":
        return TruncSeries(var, order, [0, 1])

    # -- helpers -----------------------------------------------------------

    def __getitem__(self, n: int):
        return self.coeffs[n] if 0 <= n <= self.order else Fraction(0)

    def truncate(self, order: int) -> "TruncSeries":
        order = min(order, self.order)
        return TruncSeries._of(self.var, order, self.coeffs[: order + 1])

    def agrees_to(self, other: "TruncSeries", order: int) -> bool:
        """Whether self and other have the same coefficients through
        var^order; both must be known that far.  `==` also compares orders."""
        if order > self._common(other):
            raise ValueError(f"agreement to order {order} beyond the known orders {self.order}, {other.order}")
        return self.coeffs[: order + 1] == other.coeffs[: order + 1]

    def _common(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        return min(self.order, other.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return TruncSeries._of(self.var, self.order, cs)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common(other)
        return TruncSeries._of(self.var, n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._of(self.var, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly, TruncSeries)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):  # each numerator times the scalar's
            a, da = _int_form(self.coeffs)
            (s,), ds = _int_form((other,))
            return TruncSeries._of(self.var, self.order, [_lower(c * s, da * ds) for c in a])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common(other)
        a, da = _int_form(self.coeffs[: n + 1])
        b, db = _int_form(other.coeffs[: n + 1])
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        den = da * db
        return TruncSeries._of(self.var, n, [_lower(c, den) for c in out])

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        c0 = self.coeffs[0]
        if isinstance(c0, Poly):
            if not c0.is_constant():
                raise ZeroDivisionError("non-unit divisor: constant term not scalar")
            c0 = c0.as_fraction()
        if c0 == 0:
            raise ZeroDivisionError("non-unit divisor: zero constant term")
        f, den = _int_form(self.coeffs)
        f0, fp = c0.numerator * (den // c0.denominator), 1  # F_0 as an int; fp = F_0^(k-1)
        scaled = [0]  # F_k F_0^(k-1)
        for fk in f[1:]:
            scaled.append(fk * fp)
            fp *= f0
        h, out = [1], [Fraction(den, f0)]
        for n in range(1, self.order + 1):
            h.append(-sum(scaled[k] * h[n - k] for k in range(1, n + 1) if scaled[k]))
            out.append(_lower(den * h[n], f0 ** (n + 1)))
        return TruncSeries._of(self.var, self.order, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self * (1 / Poly.coerce(other).as_fraction())
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common(other)
        return self.truncate(n) * other.truncate(n).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        """Same variable, same order, same coefficients; `agrees_to`
        compares two series only through a given order."""
        if isinstance(other, TruncSeries):
            return self.var == other.var and self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.order, self.coeffs))

    def __repr__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    bits.append(f"{c}")
                else:
                    bits.append(f"({c})*{self.var}^{i}")
        return " + ".join(bits) if bits else "0"

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "TruncSeries":
        if not self.order:
            return TruncSeries(self.var, 0)
        return TruncSeries._of(self.var, self.order - 1, [self.coeffs[i] * i for i in range(1, self.order + 1)])

    def integral(self) -> "TruncSeries":
        """Antiderivative with zero constant term (order rises by one)."""
        out = [Fraction(0)]
        for i in range(self.order + 1):
            out.append(self.coeffs[i] / (i + 1))
        return TruncSeries._of(self.var, self.order + 1, out)

    # -- exp / log / pow -------------------------------------------------------

    def exp(self) -> "TruncSeries":
        if self.coeffs[0] != 0:
            raise ValueError("exp requires zero constant term")
        n = self.order
        c, den = _int_form(self.coeffs)
        kcl, lp = [0], 1  # k C_k L^(k-1); lp = L^(k-1)
        for k in range(1, n + 1):
            kcl.append(k * c[k] * lp)
            lp *= den
        e, out, scale = [1], [Fraction(1)], 1  # scale = m! L^m
        for m in range(1, n + 1):
            acc, ff = 0, 1  # ff = (m-1)!/(m-k)!
            for k in range(1, m + 1):
                if kcl[k]:
                    acc += kcl[k] * ff * e[m - k]
                ff *= m - k
            e.append(acc)
            scale *= m * den
            out.append(_lower(acc, scale))
        return TruncSeries._of(self.var, n, out)

    def log(self) -> "TruncSeries":
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        n = self.order
        if any(isinstance(c, Poly) for c in self.coeffs):
            return (self.derivative() * self.truncate(n - 1).inverse()).integral() \
                if n > 0 else TruncSeries(self.var, 0)
        f, den = _int_form(self.coeffs)
        fl, lp = [0], 1  # F_k L^(k-1); lp = L^(k-1)
        for fk in f[1:]:
            fl.append(fk * lp)
            lp *= den
        m, out, scale = [0], [Fraction(0)], 1  # scale = L^n
        for k in range(1, n + 1):
            acc = k * fl[k]
            for j in range(1, k):
                if m[j] and fl[k - j]:
                    acc -= m[j] * fl[k - j]
            m.append(acc)
            scale *= den
            out.append(Fraction(acc, k * scale))
        return TruncSeries._of(self.var, n, out)

    def pow(self, e) -> "TruncSeries":
        """f**e for exact rational e; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("pow requires constant term 1")
        e = _fraction(e)
        n = self.order
        if e == 0:
            return TruncSeries.one(self.var, n)
        if any(isinstance(c, Poly) for c in self.coeffs):
            if e.denominator == 1 and 0 < e.numerator <= n:
                out = self
                for _ in range(e.numerator - 1):
                    out = out * self
                return out
            return (self.log() * e).exp()
        f, den = _int_form(self.coeffs)
        q = e.denominator
        pq, ql = e.numerator + q, q * den
        a, qlp = [0], 1  # F_k (qL)^(k-1); qlp = (qL)^(k-1)
        for fk in f[1:]:
            a.append(fk * qlp)
            qlp *= ql
        g, out, scale = [1], [Fraction(1)], 1  # scale = m! (qL)^m
        for m in range(1, n + 1):
            acc, ff, qm = 0, 1, q * m  # ff = (m-1)!/(m-k)!
            for k in range(1, m + 1):
                if a[k]:
                    acc += (pq * k - qm) * a[k] * ff * g[m - k]
                ff *= m - k
            g.append(acc)
            scale *= m * ql
            out.append(Fraction(acc, scale))
        return TruncSeries._of(self.var, n, out)


# -- named series ----------------------------------------------------------------


def geometric(var: str, order: int) -> TruncSeries:
    """1/(1-x) = sum x^n."""
    return TruncSeries(var, order, [1] * (order + 1))


def exp_series(var: str, order: int, scale=1) -> TruncSeries:
    """exp(scale * x)."""
    sc = _coerce(scale)
    out, acc = [], _coerce(1)
    for n in range(order + 1):
        out.append(acc / factorial(n))
        acc = acc * sc
    return TruncSeries(var, order, out)


@lru_cache(maxsize=None)
def todd_series(var: str, order: int) -> TruncSeries:
    """x / (1 - e^{-x}), the Todd characteristic series (cached: series are
    never changed in place)."""
    em = exp_series(var, order + 1, -1)
    denom_over_x = TruncSeries(
        var, order, [-(em[i + 1]) for i in range(order + 1)]
    )  # (1 - e^{-x})/x
    return denom_over_x.inverse()


def solve_v(a: int, order: int) -> TruncSeries:
    """The unique series v(z), v(0)=0, with z = v (1+v)^a.

    Computed by Lagrange inversion and checked by substitution: with
    v(0) = 0 the equation has exactly one solution, so v (1+v)^a = z
    proves the coefficients.
    """
    if a < 0:
        raise ValueError("a must be non-negative")
    coeffs = [Fraction(0)]
    for n in range(1, order + 1):
        # [w^{n-1}] (1+w)^{-a n} / n
        coeffs.append(Fraction(binomial(Fraction(-a * n), n - 1), n))
    v = TruncSeries("z", order, coeffs)
    if v * (v + 1).pow(a) != TruncSeries.x("z", order):
        raise AssertionError("Lagrange inversion does not solve z = v (1+v)^a")
    return v


def fg_series(kind: str, y, a: int, order: int) -> TruncSeries:
    """The combinatorial series f_{y,a} and g_{y,a}.

    f_{y,a} = sum_n C(y - a(n-1), n) z^n
    g_{y,a} = 1 + sum_{n>=1} y/(y-an) * C(y-an, n) z^n

    y may be an exact rational or a Poly parameter.  The apparent pole of
    the g coefficient at y = a*n cancels exactly against the leading factor
    of C(y-an, n), so every coefficient is a polynomial in y.
    """
    if kind not in ("f", "g"):
        raise ValueError("kind must be 'f' or 'g'")
    coeffs = [Fraction(1)]
    if isinstance(y, Poly):
        for n in range(1, order + 1):
            if kind == "f":
                coeffs.append(binomial(y - a * (n - 1), n))
            else:
                # y/(y-an) * C(y-an, n) with the (y-an) factor cancelled
                coeffs.append(y * binomial(y - a * n - 1, n - 1) / n)
        return TruncSeries._of("z", order, coeffs)
    # for y = p/q both are one integer product over q^n n!:
    # f_n = prod_{i<n} (p - q(a(n-1) + i)),  g_n = p prod_{i<n-1} (p - q(an + 1 + i))
    y = _fraction(y)
    p, q = y.numerator, y.denominator
    scale = 1  # q^n n!
    for n in range(1, order + 1):
        scale *= q * n
        if kind == "f":
            num, start, count = 1, p - q * a * (n - 1), n
        else:
            num, start, count = p, p - q * (a * n + 1), n - 1
        for i in range(count):
            num *= start - q * i
        coeffs.append(Fraction(num, scale))
    return TruncSeries._of("z", order, coeffs)


def fg_identities(a: int, ys, order: int) -> list:
    """The identities of the power-series lemma to z^order, one dict
    {identity: holds} per y in ys: the closed form f_{0,a} = (1+v)^(a+1) /
    (1 + (a+1) v) with z = v (1+v)^a, g_{y,a} = g_{1,a}^y, f_{y,a} =
    g_{1,a}^y f_{0,a}, and g'_{y,a} = y f_{y-2a-1,a} (to z^(order-1)).
    v, f_{0,a} and g_{1,a} are built once for all of ys."""
    v = solve_v(a, order)
    f0 = fg_series("f", 0, a, order)
    closed = f0 == (v + 1).pow(a + 1) / ((a + 1) * v + 1)
    g1 = fg_series("g", 1, a, order)
    out = []
    for y in ys:
        g = fg_series("g", y, a, order)
        g1y = g1.pow(y)
        out.append(
            {
                "f0_closed_form": closed,
                "g_is_g1_pow_y": g == g1y,
                "f_is_g1_pow_y_times_f0": fg_series("f", y, a, order) == g1y * f0,
                "g_prime": g.derivative().agrees_to(fg_series("f", y - 2 * a - 1, a, order) * y, order - 1),
            }
        )
    return out


def partition_product(factors, order: int) -> TruncSeries:
    """prod over (eps, m) of prod_{k>=1} (1 - y^{k+eps} z^k)^{-m}.

    Returns a series in z with Poly-in-y coefficients.
    """
    out = TruncSeries.one("z", order)
    for eps, m in factors:
        if m < 1:
            raise ValueError("multiplicity must be positive")
        for k in range(1, order + 1):
            if k + eps < 0:
                raise ValueError(f"negative y-exponent at k={k}, eps={eps}")
            cs = [Fraction(0)] * (order + 1)
            cs[0] = Fraction(1)
            cs[k] = -Poly.var("y", k + eps) if k + eps else Fraction(-1)
            factor = TruncSeries("z", order, cs).inverse()
            for _ in range(m):
                out = out * factor
    return out
