"""Partition counts, the oracles for the number of fixed points of Hilb^n
and for the coefficients of `series.partition_product`, and the product of
partition-keyed monomials that the oracles of the cobordism tables use."""

from functools import lru_cache


@lru_cache(maxsize=None)
def count_with_parts(n: int, r: int) -> int:
    """p(n, r): the number of partitions of n into exactly r positive parts."""
    if n < 0 or r < 0:
        raise ValueError("arguments must be non-negative")
    if n == 0:
        return 1 if r == 0 else 0
    if r == 0 or r > n:
        return 0
    # either smallest part is 1, or subtract 1 from every part
    return count_with_parts(n - 1, r - 1) + count_with_parts(n - r, r)


def count_partitions(n: int) -> int:
    """p(n), partitions of n with any number of parts."""
    return sum(count_with_parts(n, r) for r in range(n + 1))


def merge(la, mu):
    """Multiset union, re-sorted: the product of monomials c_la * c_mu."""
    return tuple(sorted(la + mu, reverse=True))
