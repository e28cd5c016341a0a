from hypothesis import given, strategies as st

from hilbloc.partitions import (
    Cell,
    cells,
    enumerate_partitions,
    partition_key,
)
from partition_counts import count_partitions, count_with_parts, merge

# p(0)..p(12)
P_TABLE = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_counts_match_table():
    for n, p in enumerate(P_TABLE):
        assert count_partitions(n) == p
        assert len(enumerate_partitions(n)) == p


def test_enumeration_is_revlex_and_valid():
    parts = enumerate_partitions(6)
    assert parts[0] == (6,)
    assert parts[-1] == (1,) * 6
    for la in parts:
        assert sum(la) == 6
        assert all(la[i] >= la[i + 1] for i in range(len(la) - 1))
    assert list(parts) == sorted(parts, reverse=True)


def test_count_with_parts_brute():
    for n in range(10):
        for r in range(n + 2):
            brute = sum(1 for la in enumerate_partitions(n) if len(la) == r)
            assert count_with_parts(n, r) == brute


def brute_arm_leg(la, i, j):
    arm = la[i] - j - 1
    leg = sum(1 for ii in range(len(la)) if ii > i and la[ii] > j)
    return arm, leg


def test_cells_arm_leg():
    for n in range(8):
        for la in enumerate_partitions(n):
            got = {(c.i, c.j): (c.arm, c.leg) for c in cells(la)}
            want = {
                (i, j): brute_arm_leg(la, i, j)
                for i in range(len(la))
                for j in range(la[i])
            }
            assert got == want


@given(st.integers(0, 6), st.integers(0, 6))
def test_merge_commutes(a, b):
    for la in enumerate_partitions(a)[:3]:
        for mu in enumerate_partitions(b)[:3]:
            assert merge(la, mu) == merge(mu, la)
            assert sum(merge(la, mu)) == a + b


def test_partition_key():
    assert partition_key((3, 1)) == "3,1"
    assert partition_key(()) == ""
