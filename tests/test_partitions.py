from hypothesis import given, strategies as st

from hilbloc.partitions import arm_legs, enumerate_partitions, partition_key
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
            boxes = [(i, j) for i in range(len(la)) for j in range(la[i])]
            assert arm_legs(la) == tuple(brute_arm_leg(la, i, j) for i, j in boxes)


def conjugate(la):
    return tuple(sum(row > j for row in la) for j in range(la[0] if la else 0))


@given(st.integers(0, 10), st.data())
def test_conjugate_swaps_arm_and_leg(n, data):
    # the box (i, j) of la is the box (j, i) of its conjugate, with arm and leg exchanged
    la = data.draw(st.sampled_from(enumerate_partitions(n)))
    mu = conjugate(la)
    table = dict(zip([(i, j) for i in range(len(la)) for j in range(la[i])], arm_legs(la)))
    swapped = dict(zip([(i, j) for j in range(len(mu)) for i in range(mu[j])], arm_legs(mu)))
    assert sum(mu) == n and conjugate(mu) == la
    assert swapped == {box: (leg, arm) for box, (arm, leg) in table.items()}


@given(st.integers(0, 6), st.integers(0, 6))
def test_merge_commutes(a, b):
    for la in enumerate_partitions(a)[:3]:
        for mu in enumerate_partitions(b)[:3]:
            assert merge(la, mu) == merge(mu, la)
            assert sum(merge(la, mu)) == a + b


def test_partition_key():
    assert partition_key((3, 1)) == "3,1"
    assert partition_key(()) == ""
