"""The Fraction readback of power-sum polynomials, kept as the oracle of the
integer table in `hilbloc.cobordism.from_beta`.

Each e_la is expanded in the p_mu with the Fraction coefficients
(-1)^{k - len(nu)} / z_nu of e_k, and c_la = sum_mu aut(mu) [p_mu] e_la b_mu
is summed coefficient by coefficient with `linear_combination`, so a
Chern number is a Poly exactly when one of its b_mu is.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from hilbloc.cobordism import ChernVector, beta_var
from hilbloc.partitions import enumerate_partitions
from hilbloc.rings import Poly, linear_combination
from partition_counts import merge


def _aut(mu):
    out = 1
    for part in set(mu):
        out *= factorial(mu.count(part))
    return out


@lru_cache(maxsize=None)
def elementary_in_p(k):
    """e_k = sum_{nu |- k} (-1)^{k - len(nu)} p_nu / z_nu, z_nu = aut(nu) prod nu."""
    out = {}
    for nu in enumerate_partitions(k):
        z = _aut(nu)
        for part in nu:
            z *= part
        out[nu] = Fraction((-1) ** (k - len(nu)), z)
    return out


@lru_cache(maxsize=None)
def elementary_product_in_p(la):
    """e_la1 e_la2 ... in the p_mu, one factor at a time."""
    out = {(): Fraction(1)}
    for part in la:
        step = {}
        for mu, a in out.items():
            for nu, c in elementary_in_p(part).items():
                key = merge(mu, nu)
                step[key] = step.get(key, Fraction(0)) + a * c
        out = step
    return out


@lru_cache(maxsize=None)
def from_beta_table(d):
    """Rows (la, ((mu, t), ...)) over the partitions la of d with
    c_la = sum t b_mu, that is t = aut(mu) [p_mu] e_la."""
    return tuple(
        (la, tuple((mu, c * _aut(mu)) for mu, c in elementary_product_in_p(la).items() if c))
        for la in enumerate_partitions(d)
    )


def from_beta(d, b):
    """The class of dimension d whose power-sum polynomial is b."""
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
        la: linear_combination((coeffs[mu], t) for mu, t in row if mu in coeffs) for la, row in from_beta_table(d)
    }
    return ChernVector.from_dict(d, numbers)


# -- the integer tables of `cobordism` as they were built on partition keys
# (`_mul_into` and `_expand`), before the products moved to packed keys


def _mul_into(out, a, b):
    """out += a * b, concatenating the monomials."""
    for la, ca in a.items():
        if not ca:
            continue
        for mu, cb in b.items():
            key = merge(la, mu)
            out[key] = out.get(key, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def power_sum_in_e(k):
    """p_k in the e_la by Newton's identity, zero coefficients kept."""
    out = {(k,): Fraction((-1) ** (k - 1) * k)}
    for i in range(1, k):
        _mul_into(out, {(i,): Fraction((-1) ** (i - 1))}, power_sum_in_e(k - i))
    return out


@lru_cache(maxsize=None)
def factorial_elementary_in_p(k):
    """k! e_k in the p_nu, integer coefficients."""
    return {nu: (-1) ** (k - len(nu)) * (factorial(k) // (_aut(nu) * prod(nu))) for nu in enumerate_partitions(k)}


@lru_cache(maxsize=None)
def expand(single, mu):
    """prod_j single(mu_j), one factor at a time from the last."""
    if not mu:
        return {(): 1}
    return _mul_into({}, single(mu[0]), expand(single, mu[1:]))


def newton_table(d):
    return tuple(
        tuple((la, c) for la, c in expand(power_sum_in_e, mu).items() if c) for mu in enumerate_partitions(d)
    )


def readback_table(d):
    lams = enumerate_partitions(d)
    slot = {mu: j for j, mu in enumerate(lams)}
    rows = []
    for la in lams:
        row = [(slot[mu], t * _aut(mu)) for mu, t in expand(factorial_elementary_in_p, la).items()]
        rows.append((prod(map(factorial, la)), *zip(*row)))
    return slot, tuple(rows)
