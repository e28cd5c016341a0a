"""Partition enumeration and Young-diagram combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty partition is ().  They index both Chern-number monomials and the
monomial-ideal fixed points of Hilbert schemes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

Partition = tuple  # weakly decreasing tuple of positive ints


Cell = namedtuple("Cell", "i j arm leg")
Cell.__doc__ = "A box (row i, column j) of a Young diagram with its arm and leg."


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


def cells(la: Partition) -> list:
    """The cells of the Young diagram of la with arm and leg lengths.

    arm(i,j) = la[i] - j - 1 (boxes strictly to the right),
    leg(i,j) = #{i' > i : la[i'] > j} (boxes strictly below).
    """
    out = []
    for i, row in enumerate(la):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for rr in la[i + 1:] if rr > j)
            out.append(Cell(i, j, arm, leg))
    return out


def partition_key(la: Partition) -> str:
    """Comma-joined parts, used as a JSON object key: (2,2) -> "2,2"."""
    return ",".join(str(p) for p in la) if la else ""
