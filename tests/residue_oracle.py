"""The per-point residue pass of the partition sums, kept as the oracle of the
blocked, column-wise kernel in `hilbloc.localization`.

Every fixed point is evaluated on its own: its tangent characters are
specialized, the symmetric functions f_0, ..., f_2n of its weights are built
by scalar recurrences, the products prod_{p in la} f_p are shared over
partition suffixes, and the point's numerators join a running sum over the
lcm of the denominators prod t seen so far.  The factor functions are this
module's own scalar kernels, `elementary_symmetric` and
`tangent_power_sums`, independent of the column kernels that the package
runs on every residue sum, and its tangent weights are specialized here
(`specialize_tangents`), not read from the package's chart tables.
`chern_monomial` is the integrand of one Chern number, which the tests
integrate against the Chern-number pass.
"""

from fractions import Fraction
from math import gcd, prod

from hilbloc.localization import (
    ConsistencyError,
    Integrand,
    enumerate_fixed_points,
    one_ps_ladder,
    tangent_weights,
)
from hilbloc.partitions import enumerate_partitions


def chern_monomial(la) -> Integrand:
    """c_la(T) = prod_{p in la} c_p(T) as an integrand."""
    return Integrand(poly=((Fraction(1), tuple(("T", int(p)) for p in la)),), bundles=(("T", "tangent"),))


def specialize_tangents(chars, spec) -> list:
    """The tangent characters chars at the 1-PS spec; ConsistencyError if one
    of them vanishes there, since the fixed point is then not isolated."""
    tvals = [c[0] * spec[0] + c[1] * spec[1] for c in chars]
    if 0 in tvals:
        raise ConsistencyError("1-PS specialization hit a zero tangent weight")
    return tvals


def elementary_symmetric(values):
    """[e_0, ..., e_len(values)] of the weights values."""
    e = [1] + [0] * len(values)
    for m, v in enumerate(values, 1):
        for k in range(m, 0, -1):
            e[k] += v * e[k - 1]
    return e


def tangent_power_sums(tvals, order):
    """[p_0, ..., p_order] with p_k = sum t^k over the tangent weights t."""
    p, x = [len(tvals)], tvals
    for _ in range(order):
        p.append(sum(x))
        x = [a * t for a, t in zip(x, tvals)]
    return p


class _RunningSum:
    """Integer numerators over the running lcm of the point denominators."""

    def __init__(self, size):
        self.acc = [0] * size
        self.den = 1

    def add(self, d, nums):
        up = abs(d) // gcd(self.den, d)
        if up != 1:
            self.acc = [a * up for a in self.acc]
            self.den *= up
        scale = self.den // d
        for i, x in enumerate(nums):
            self.acc[i] += x * scale


def partition_sums(model, n, ladder, factors):
    """The residue sums of prod_{p in la} f_p / prod t over the partitions la
    of 2n (rev-lex order), with factors(t) the point's f_0, ..., f_2n."""
    lams = enumerate_partitions(2 * n)
    # each distinct suffix of a la costs one product f_p * (its tail's), and
    # sorting by length puts every tail first, the empty one at index 0
    suffixes = sorted({la[k:] for la in lams for k in range(len(la) + 1)}, key=len)
    index = {s: i for i, s in enumerate(suffixes)}
    plan = [(s[0], index[s[1:]]) for s in suffixes[1:]]
    pick = [index[la] for la in lams]
    specs = one_ps_ladder(model, n, ladder)
    sums = [_RunningSum(len(lams)) for _ in specs]
    for fp in enumerate_fixed_points(model, n):
        chars = tangent_weights(model, fp)
        for spec, total in zip(specs, sums):
            tvals = specialize_tangents(chars, spec)
            f = factors(tvals)
            prods = [1]
            for p, tail in plan:
                prods.append(f[p] * prods[tail])
            total.add(prod(tvals), [prods[i] for i in pick])
    v1, v2 = ([Fraction(a, total.den) for a in total.acc] for total in sums)
    if v1 != v2:
        raise ConsistencyError(f"specializations {specs[0]} and {specs[1]} disagree")
    return v1
