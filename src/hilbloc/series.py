"""Truncated formal power series with exact coefficients.

Coefficients are Fractions, or Polys in declared parameters (y, r, ...).
All arithmetic is exact; a binary operation truncates to the smaller of
the two operand orders so precision is never silently invented.

What a series stores.  Its integer form: the numerators of its
coefficients over one common positive denominator, an int for a Fraction
coefficient and a `rings.IntPoly`, the package's one polynomial product,
for a Poly: the numerators of its terms on the packed monomial keys of
`rings` (see "Packed exponents" there).  Every operation forms it reduced
by the gcd of its denominator and numerators (one multi-argument
`math.gcd` for a series of rationals), so a series of rationals holds it
in normal form.  A series built from coefficients with a Poly among them
gets it from `_int_form` when an operation first reads it, and keeps it.
The coefficients, Fractions and Polys, are built from the integer form
only when asked for, by `coeffs` (all of them, then kept) or `s[n]`
(one), with the type and term order that the plain coefficient loops
give.

Every operation (`+`, `-`, `*` by a series or by an int, Fraction or Poly
scalar, `inverse`, `exp`, `log`, `pow`, `derivative`, `integral`,
`truncate`) reads the integer form and writes one, so `_int_form` runs
only on coefficients handed in from outside, Poly scalars among them,
and once per series.  Each kernel below is a recurrence in integers X_m
for out_m = X_m / (K B^m), with a base B and a constant K; its inputs
enter as F_k B^(k-1), k >= 1, and its outputs are X_m B^(N-m) over K B^N
to order N: one step, `_geometric`, scales both.  With a common
denominator L:
- a product is the integer convolution of the numerators over L_a L_b;
- the inverse of F/L (B = K = F_0) is g_n = L H_n / F_0^(n+1) with H_0 = 1
  and H_n = -sum_{k>=1} F_k F_0^(k-1) H_(n-k) (the step multiplies in L,
  kept out of the recurrence so that its integers stay small);
- the exponential of C/L (C_0 = 0; B = L, K = N!) is out_m = G_m / (N! L^m)
  with G_0 = N! and m G_m = sum_{k>=1} k C_k L^(k-1) G_(m-k).
On a series of rationals, `log` and `pow` are integer recurrences too:
- the logarithm of F/L (F_0 = L; B = L, K = lcm(1..N)) is
  l_n = M_n / (n L^n) with
  M_n = n F_n L^(n-1) - sum_{0<k<n} M_k F_(n-k) L^(n-k-1);
- the power (F/L)^(p/q) (F_0 = L, p != 0; B = qL, K = N!) is
  out_m = H_m / (N! (qL)^m) with H_0 = N! and
  m H_m = sum_{k>=1} ((p+q)k - qm) F_k (qL)^(k-1) H_(m-k), J.C.P. Miller's
  recurrence n g_n = sum_k ((e+1)k - n) f_k g_(n-k) for f^e (Knuth, TAOCP
  vol. 2, 4.7).
On a series with Poly coefficients, `log` is derivative * inverse, then
integral, and `pow` is a repeated product or exp(e log): both are built
from the kernels above, which fixes the term order of their Poly
coefficients.

Packed exponents.  An exponent of 2^24 or more entering any operation
raises, also one that an earlier kernel formed: a kernel result whose
monomial keys hold one is lowered at once and keeps no integer form, so
the next operation reads its coefficients through `_int_form`, which
refuses it; the coefficients themselves can still be read, compared and
hashed.  A kernel multiplies at most `order` numerators into one term, so
below order 256 no field can carry into the next, and above it the kernel
checks the largest exponent times the order against 2^32.

Equality and hash.  Two series are equal when they have the same
variable, order and coefficient values.  Two series of rationals compare
their normal forms; otherwise coefficients are compared, where a
constant Poly equals the Fraction of its value.  The hash is that of the
variable, the order and the coefficients, and a constant Poly hashes as
its Fraction, so a series and its copy with constant Poly coefficients
hash equal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, gcd, lcm, prod
from operator import mul, or_

from .rings import _EXP_BOUND, _FIELD, _KEYS, _MONOMIALS, IntPoly, Poly, _coerce, _fraction, _rational_arg, binomial


def _int_form(cs):
    """(numerators, den): the coefficients cs as integer numerators over
    their positive lcm denominator den, an int for a Fraction coefficient
    and an `IntPoly` for a Poly.  ValueError for an exponent of 2^24 or
    more."""
    dens = []
    for c in cs:
        if isinstance(c, Poly):
            dens.extend(v.denominator for v in c.terms.values())
        else:
            dens.append(c.denominator)
    den = lcm(*dens)
    num = [
        IntPoly({_KEYS[m]: v.numerator * (den // v.denominator) for m, v in c.terms.items()})
        if isinstance(c, Poly) else c.numerator * (den // c.denominator)
        for c in cs
    ]
    if reduce(or_, (k for c in num if type(c) is not int for k in c.terms), 0) & _KEYS.wide:
        raise ValueError("an exponent of 2^24 or more cannot be packed into a series")
    return num, den


def _scalar(c):
    """(numerators, den): the integer form of an int, Fraction or Poly
    scalar, one numerator long."""
    return _int_form((c,)) if isinstance(c, Poly) else ((c.numerator,), c.denominator)


def _dot(xs, ys, poly: bool):
    """sum_k xs[k] ys[-1-k] over the shorter list: the convolution step of a
    recurrence.  With poly, zero xs[k] are skipped, as the Poly loops skip
    them, which keeps a zero result an int."""
    if poly:
        return sum(x * y for x, y in zip(xs, reversed(ys)) if x)
    return sum(map(mul, xs, reversed(ys)))


def _lower(num, den):
    """The coefficient num / den: a Fraction for an int num, a Poly for an
    `IntPoly`."""
    if isinstance(num, int):
        return Fraction(num, den)
    return Poly._of({_MONOMIALS[m]: Fraction(x, den) for m, x in num.terms.items()})


def _geometric(xs, base, first=1):
    """[first x_0, first x_1 base, first x_2 base^2, ...]: the kernels' one
    rescaling step, on their inputs and on their reversed outputs."""
    out, p = [], first
    for x in xs:
        out.append(x * p)
        p *= base
    return out


@lru_cache(maxsize=None)
def _lcm_to(n: int) -> int:
    """lcm(1, ..., n)."""
    return lcm(*range(1, n + 1))


class TruncSeries:
    """A power series in one variable, truncated at order N inclusive.

    Stored (see the module docstring) as `_num` over `_den`, the integer
    form, in normal form for a series of rationals; `_cs`, the coefficient
    tuple, once built or as handed in; and `_poly`, whether a coefficient is
    a Poly.  `_num` is None for a series built from Poly coefficients until
    `_form` first reads it, and for a kernel result lowered at once; `_cs`
    until the coefficients are read; never both.  Nothing stored is changed
    in place."""

    __slots__ = ("var", "order", "_poly", "_num", "_den", "_cs")

    def __init__(self, var: str, order: int, coeffs=()):
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = [_coerce(c) for c in coeffs[: order + 1]]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.var, self.order, self._cs = var, order, tuple(cs)
        self._poly = any(isinstance(c, Poly) for c in cs)
        self._num, self._den = (None, 0) if self._poly else _int_form(cs)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _new(var: str, order: int, num, den: int) -> "TruncSeries":
        """The series num / den that an operation formed (den != 0, of either
        sign), reduced by the gcd of den and every numerator: the normal
        form of a series of rationals.  A series of Polys is lowered at
        once, and keeps no integer form, if an exponent in it cannot be
        packed."""
        try:
            g, keys = gcd(den, *num), None  # math.gcd takes ints only
        except TypeError:  # an `IntPoly` among num
            keys, vals = 0, [den]
            for c in num:
                if type(c) is int:
                    vals.append(c)
                else:
                    vals.extend(c.terms.values())
                    keys = reduce(or_, c.terms, keys)
            g = gcd(*vals)
        if den < 0:
            g = -g
        if g != 1:
            num, den = [c // g for c in num], den // g
        s = object.__new__(TruncSeries)
        s.var, s.order, s._poly = var, order, keys is not None
        if s._poly and keys & _KEYS.wide:
            s._num, s._den, s._cs = None, 0, tuple([_lower(c, den) for c in num])
        else:
            s._num, s._den, s._cs = num, den, None
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

    @property
    def coeffs(self) -> tuple:
        """The coefficients of var^0 .. var^order, Fractions and Polys."""
        if self._cs is None:
            den = self._den
            self._cs = tuple([_lower(c, den) for c in self._num])
        return self._cs

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            return Fraction(0)
        return self._cs[n] if self._cs is not None else _lower(self._num[n], self._den)

    def _form(self):
        """(numerators, den): the integer form, which every operation reads;
        built from the coefficients on first use and kept.  ValueError if an
        exponent cannot be packed."""
        if self._num is None:
            self._num, self._den = _int_form(self._cs)
        return self._num, self._den

    def _int(self, n: int):
        """(numerators of var^0 .. var^n, their denominator), for a kernel
        that multiplies at most n + 1 of them into one term: `_form`, and
        ValueError if such a product could carry an exponent past 2^32."""
        num, den = self._form()
        if n < self.order:
            num = num[: n + 1]
        if (n + 1) * _EXP_BOUND > 1 << _FIELD and self._poly:
            top = max((e for c in num if type(c) is not int for m in c.terms for _, e in _MONOMIALS[m]), default=0)
            if top * (n + 1) >> _FIELD:
                raise ValueError(f"exponent {top} at order {n} cannot be packed: products would pass 2^32")
        return num, den

    def _rational(self, other) -> bool:
        return not (self._poly or other._poly)

    def truncate(self, order: int) -> "TruncSeries":
        if order >= self.order:
            return self
        num, den = self._form()
        return TruncSeries._new(self.var, order, num[: order + 1], den)

    def agrees_to(self, other: "TruncSeries", order: int) -> bool:
        """Whether self and other have the same coefficients through
        var^order; both must be known that far.  `==` also compares orders."""
        if order > self._common(other):
            raise ValueError(f"agreement to order {order} beyond the known orders {self.order}, {other.order}")
        if self._rational(other):
            da, db = self._den, other._den
            return [a * db for a in self._num[: order + 1]] == [b * da for b in other._num[: order + 1]]
        return self.coeffs[: order + 1] == other.coeffs[: order + 1]

    def _common(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
        return min(self.order, other.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            n, (b, db) = self.order, _scalar(other)
        elif isinstance(other, TruncSeries):
            n = self._common(other)
            b, db = other._form()
        else:
            return NotImplemented
        a, da = self._form()
        den = lcm(da, db)
        num = [x * (den // da) for x in a[: n + 1]]
        for i, x in enumerate(b[: n + 1]):  # one numerator for a scalar
            num[i] += x * (den // db)
        return TruncSeries._new(self.var, n, num, den)

    __radd__ = __add__

    def __neg__(self):
        num, den = self._form()
        return TruncSeries._new(self.var, self.order, [-c for c in num], den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly, TruncSeries)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):  # each numerator times the scalar's
            a, da = self._int(self.order)
            (s,), ds = _scalar(other)
            return TruncSeries._new(self.var, self.order, [c * s for c in a], da * ds)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common(other)
        a, da = self._int(n)
        b, db = other._int(n)
        if self._rational(other):
            rb = b[::-1]
            out = [sum(map(mul, a, rb[n - k :])) for k in range(n + 1)]
        else:
            out = [0] * (n + 1)
            for i, ai in enumerate(a):
                if ai:
                    for j in range(n + 1 - i):
                        if b[j]:
                            out[i + j] += ai * b[j]
        return TruncSeries._new(self.var, n, out, da * db)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        c0 = self[0]
        if isinstance(c0, Poly):
            if not c0.is_constant():
                raise ZeroDivisionError("non-unit divisor: constant term not scalar")
            c0 = c0.as_fraction()
        if c0 == 0:
            raise ZeroDivisionError("non-unit divisor: zero constant term")
        n = self.order
        f, den = self._int(n)
        f0 = c0.numerator * (den // c0.denominator)  # F_0 as an int
        scaled = _geometric(f[1:], f0)  # F_k F_0^(k-1), k >= 1
        h = [1]
        for m in range(1, n + 1):
            h.append(-_dot(scaled, h, self._poly))
        return TruncSeries._new(self.var, n, _geometric(h[::-1], f0, den)[::-1], f0 ** (n + 1))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self * (1 / Poly.coerce(other).as_fraction())
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common(other)
        return self.truncate(n) * other.truncate(n).inverse()

    def __eq__(self, other):
        """Same variable, same order, same coefficient values; `agrees_to`
        compares two series only through a given order."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.var != other.var or self.order != other.order:
            return False
        if self._rational(other):
            return self._den == other._den and self._num == other._num
        return self.coeffs == other.coeffs

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
        n = self.order
        if not n:
            return TruncSeries(self.var, 0)
        num, den = self._form()
        return TruncSeries._new(self.var, n - 1, [num[i] * i for i in range(1, n + 1)], den)

    def integral(self) -> "TruncSeries":
        """Antiderivative with zero constant term (order rises by one)."""
        n = self.order
        num, den = self._form()
        big = _lcm_to(n + 1)
        return TruncSeries._new(self.var, n + 1, [0] + [x * (big // (i + 1)) for i, x in enumerate(num)], den * big)

    # -- exp / log / pow -------------------------------------------------------

    def exp(self) -> "TruncSeries":
        if self[0] != 0:
            raise ValueError("exp requires zero constant term")
        n = self.order
        c, den = self._int(n)
        kcl = [k * x for k, x in enumerate(_geometric(c[1:], den), 1)]  # k C_k L^(k-1), k >= 1
        g = [factorial(n)]
        for m in range(1, n + 1):
            g.append(_dot(kcl, g, self._poly) // m)
        return TruncSeries._new(self.var, n, _geometric(g[::-1], den)[::-1], g[0] * den**n)

    def log(self) -> "TruncSeries":
        if self[0] != 1:
            raise ValueError("log requires constant term 1")
        n = self.order
        if self._poly:
            return (self.derivative() * self.truncate(n - 1).inverse()).integral() \
                if n > 0 else TruncSeries(self.var, 0)
        f, den = self._int(n)
        fl = [0] + _geometric(f[1:], den)  # F_k L^(k-1)
        m = []  # M_1, M_2, ...
        for k in range(1, n + 1):
            m.append(k * fl[k] - sum(map(mul, m, fl[k - 1 : 0 : -1])))
        big = _lcm_to(n)
        ls = [0] + [mk * (big // k) for k, mk in enumerate(m, 1)]  # big M_k / k
        return TruncSeries._new(self.var, n, _geometric(ls[::-1], den)[::-1], big * den**n)

    def pow(self, e) -> "TruncSeries":
        """f**e for exact rational e; requires constant term 1."""
        if self[0] != 1:
            raise ValueError("pow requires constant term 1")
        e = _fraction(e)
        n = self.order
        if e == 0:
            return TruncSeries.one(self.var, n)
        if self._poly:
            if e.denominator == 1 and 0 < e.numerator <= n:
                out = self
                for _ in range(e.numerator - 1):
                    out = out * self
                return out
            return (self.log() * e).exp()
        if e == 1:
            return self
        f, den = self._int(n)
        p, q = e.numerator, e.denominator
        ql = q * den
        a = _geometric(f[1:], ql)  # F_k (qL)^(k-1), k >= 1
        ka = [k * x for k, x in enumerate(a, 1)]
        h = [factorial(n)]
        for m in range(1, n + 1):
            s1 = sum(map(mul, ka, reversed(h)))
            s2 = sum(map(mul, a, reversed(h)))
            h.append(((p + q) * s1 - q * m * s2) // m)
        return TruncSeries._new(self.var, n, _geometric(h[::-1], ql)[::-1], h[0] * ql**n)


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
    """The combinatorial series f_{y,a} and g_{y,a} at a rational y (an
    int or a Fraction; TypeError otherwise).

    f_{y,a} = sum_n C(y - a(n-1), n) z^n
    g_{y,a} = 1 + sum_{n>=1} y/(y-an) * C(y-an, n) z^n

    The apparent pole of the g coefficient at y = a*n cancels exactly
    against the leading factor of C(y-an, n): g_n = y C(y-an-1, n-1) / n.
    """
    if kind not in ("f", "g"):
        raise ValueError("kind must be 'f' or 'g'")
    y = _rational_arg(y, "fg_series: y")
    # for y = p/q both are one integer product over q^n n!:
    # f_n = prod_{i<n} (p - q(a(n-1) + i)),  g_n = p prod_{i<n-1} (p - q(an + 1 + i))
    p, q = y.numerator, y.denominator
    num = [1]
    for n in range(1, order + 1):
        if kind == "f":
            start = p - q * a * (n - 1)
            num.append(prod(range(start, start - q * n, -q)))
        else:
            start = p - q * (a * n + 1)
            num.append(p * prod(range(start, start - q * (n - 1), -q)))
    scale = 1  # q^(order-n) order!/n!: every term over q^order order!
    for n in range(order, 0, -1):
        num[n] *= scale
        scale *= q * n
    num[0] = scale
    return TruncSeries._new("z", order, num, scale)


def fg_identities(a: int, ys, order: int) -> list:
    """The identities of the power-series lemma to z^order, one dict
    {identity: holds} per y in ys: the closed form f_{0,a} = (1+v)^(a+1) /
    (1 + (a+1) v) with z = v (1+v)^a, g_{y,a} = g_{1,a}^y, f_{y,a} =
    g_{1,a}^y f_{0,a}, and g'_{y,a} = y f_{y-2a-1,a} (to z^(order-1)).
    Each y must be rational (an int or a Fraction), since g_{1,a}^y is a
    power of a series of rationals; TypeError otherwise.  v, f_{0,a} and
    g_{1,a} are built once for all of ys."""
    ys = [_rational_arg(y, "fg_identities: y") for y in ys]
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
