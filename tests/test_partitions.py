import pytest
from hypothesis import given, strategies as st

from schurquot.partitions import (
    Partition,
    SkewShape,
    one_box_chain,
    one_box_pairs,
    partition_contains,
    partitions_of,
)


def test_partition_validation():
    Partition((3, 2, 1))
    Partition(())
    Partition((2, 2, 0, 0))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    with pytest.raises(ValueError):
        Partition((2.5, 1))  # not silently truncated to (2, 1)


def test_trailing_zeros_ignored_by_equality_and_hash():
    assert Partition((2, 1)) == Partition((2, 1, 0, 0))
    assert hash(Partition((2, 1))) == hash(Partition((2, 1, 0)))
    assert Partition((2, 1)) != Partition((2, 2))


def test_part_and_padding():
    p = Partition((3, 1))
    assert p.part(1) == 3
    assert p.part(2) == 1
    assert p.part(5) == 0
    assert p.padded(4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        p.padded(1)


def test_containment():
    assert partition_contains(Partition((2, 1)), Partition((3, 1)))
    assert not partition_contains(Partition((2, 2)), Partition((3, 1)))
    assert Partition((3, 1)).contains(Partition((2, 1)))


def test_removable_corners_and_remove_box():
    p = Partition((3, 3, 1))
    assert p.removable_corners() == [2, 3]
    assert p.remove_box(2) == Partition((3, 2, 1))
    with pytest.raises(ValueError):
        p.remove_box(4)


def test_skew_shape_cells_row_major():
    shape = SkewShape(Partition((3, 2)), Partition((1,)))
    assert shape.cells() == ((1, 2), (1, 3), (2, 1), (2, 2))
    assert (1, 1) not in shape
    assert (2, 2) in shape
    assert shape.size == 4


def test_row_strip():
    shape = SkewShape.row_strip(Partition((3, 2)), 2)
    assert shape.cells() == ((1, 3), (2, 1), (2, 2))
    assert SkewShape.row_strip(Partition((3, 2)), 0) == SkewShape.straight(
        Partition((3, 2))
    )
    with pytest.raises(ValueError):
        SkewShape.row_strip(Partition((3, 2)), 4)


def test_skew_shape_rejects_non_contained_inner():
    with pytest.raises(ValueError):
        SkewShape(Partition((2, 1)), Partition((3,)))


def test_one_box_chain_example():
    chain = one_box_chain(Partition((2, 2)), Partition((1,)))
    assert chain == [
        Partition((2, 2)),
        Partition((2, 1)),
        Partition((2, 0)),
        Partition((1, 0)),
    ]


def test_one_box_chain_endpoints_and_steps():
    chain = one_box_chain(Partition((4, 3, 1)), Partition((2, 1)))
    assert chain[0] == Partition((4, 3, 1))
    assert chain[-1] == Partition((2, 1))
    for upper, lower in zip(chain, chain[1:]):
        assert upper.size == lower.size + 1
        assert partition_contains(lower, upper)


def test_one_box_chain_rejects_non_contained():
    with pytest.raises(ValueError):
        one_box_chain(Partition((2,)), Partition((1, 1)))


def test_partitions_of_counts():
    # p(n) for n = 0..6
    for n, count in enumerate([1, 1, 2, 3, 5, 7, 11]):
        assert sum(1 for _ in partitions_of(n)) == count


def test_one_box_pairs_are_one_box():
    pairs = list(one_box_pairs(4))
    assert (Partition((1,)), Partition(()), 1) in pairs
    for rho, lam, r in pairs:
        assert rho.size == lam.size + 1
        assert rho.remove_box(r) == lam


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5))
def test_partition_accepts_any_sorted_tuple(parts):
    parts = tuple(sorted(parts, reverse=True))
    p = Partition(parts)
    assert p.size == sum(parts)
    assert p.nrows == sum(1 for x in parts if x > 0)


@given(st.integers(min_value=0, max_value=8))
def test_partitions_of_are_partitions(n):
    for parts in partitions_of(n):
        assert sum(parts) == n
        assert all(a >= b for a, b in zip(parts, parts[1:]))
