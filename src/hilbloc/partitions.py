"""Partition enumeration and Young-diagram combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is ().  They index both Chern-number monomials and the
monomial-ideal fixed points of Hilbert schemes.
"""

from __future__ import annotations

from functools import lru_cache

Partition = tuple  # weakly decreasing tuple of positive ints


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple:
    """All partitions of n, in reverse lexicographic order.

    enumerate_partitions(4) == ((4,), (3,1), (2,2), (2,1,1), (1,1,1,1)).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(_gen(n, n))


def _gen(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _gen(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def arm_legs(la: Partition) -> tuple:
    """The (arm, leg) of each cell (i, j) of the Young diagram of la, row by
    row: arm = la[i] - j - 1 boxes to its right and leg = la'[j] - i - 1
    below it, la' the conjugate partition."""
    conj = [sum(row > j for row in la) for j in range(la[0] if la else 0)]
    return tuple((row - j - 1, conj[j] - i - 1) for i, row in enumerate(la) for j in range(row))


def partition_key(la: Partition) -> str:
    """Comma-joined parts, used as a JSON object key: (2,2) -> "2,2"."""
    return ",".join(str(p) for p in la) if la else ""
