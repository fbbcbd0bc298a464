import random
from fractions import Fraction

import pytest

from tauforge.partitions import (
    FrobeniusCoordinates,
    Partition,
    enumerate_partitions,
    from_frobenius,
    hook_shape,
    maya_canonicalize,
    maya_set,
    pochhammer_content,
    pochhammer_content_frobenius,
)


def test_construction_normalizes_and_validates():
    assert Partition([3, 2, 0, 0]).parts == (3, 2)
    assert Partition([]).parts == ()
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_frobenius_known_values():
    # (9,7,6,3,2,1,1) = (8,5,3 | 6,3,1)
    f = Partition([9, 7, 6, 3, 2, 1, 1]).frobenius()
    assert f == FrobeniusCoordinates((8, 5, 3), (6, 3, 1))
    # (5,4,1,1) = (4,2 | 3,0)
    assert Partition([5, 4, 1, 1]).frobenius() == FrobeniusCoordinates((4, 2), (3, 0))
    assert Partition([]).frobenius() == FrobeniusCoordinates((), ())


def test_frobenius_matches_the_column_definition():
    # the one-pass read against arms lambda_i - i and legs col(i) - i over
    # the diagonal i <= d, every shape of weight <= 12
    shapes = enumerate_partitions(12)
    assert len(shapes) == 272  # p(0) + p(1) + ... + p(12)
    for lam in shapes:
        d = lam.diagonal_size
        want = FrobeniusCoordinates(
            tuple(lam.part(i) - i for i in range(1, d + 1)),
            tuple(lam.col(i) - i for i in range(1, d + 1)),
        )
        assert lam.frobenius() == want, lam


def test_frobenius_round_trip():
    for lam in enumerate_partitions(10):
        assert from_frobenius(*lam.frobenius()) == lam


def test_transpose_involution_and_frobenius_swap():
    for lam in enumerate_partitions(10):
        t = lam.transpose()
        assert t.transpose() == lam
        assert lam.weight == t.weight
        a, b = lam.frobenius()
        assert t.frobenius() == FrobeniusCoordinates(b, a)


def test_sign_exponent():
    assert Partition([]).sign_exponent() == 0
    assert Partition([1]).sign_exponent() == 1
    # (8,5,3|6,3,1): 7 + 4 + 2 = 13
    assert from_frobenius((8, 5, 3), (6, 3, 1)).sign_exponent() == 13


def test_hook_lengths():
    lam = Partition([9, 7, 6, 3, 1, 1, 1])
    assert lam.hook_length(2, 3) == 7
    assert Partition([1]).hook_length(1, 1) == 1
    assert Partition([3, 1]).hook_length(1, 1) == 4
    with pytest.raises(ValueError):
        Partition([2]).hook_length(2, 1)


def test_hook_product():
    assert hook_shape(2, 1) == Partition([3, 1])
    assert Partition([3, 1]).hook_product() == 2 * 1 * (2 + 1 + 1)
    assert Partition([]).hook_product() == 1
    assert Partition([2, 1]).hook_product() == 3


def test_hook_count_and_transpose_invariance():
    for lam in enumerate_partitions(10):
        assert sum(1 for _ in lam.boxes()) == lam.weight
        assert lam.hook_product() == lam.transpose().hook_product()


def test_pochhammer_content():
    assert pochhammer_content(Fraction(7, 3), Partition([])) == 1
    assert pochhammer_content(1, Partition([2])) == 2  # contents 0, 1 -> 1*2
    lam = Partition([5, 4, 1, 1])
    want = Fraction(1)
    for i, j in lam.boxes():
        want *= Fraction(5, 2) + j - i
    assert pochhammer_content(Fraction(5, 2), lam) == want


def test_pochhammer_frobenius_form_agrees():
    rng = random.Random(7)
    shapes = enumerate_partitions(8)
    for _ in range(20):
        lam = rng.choice(shapes)
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        assert pochhammer_content(u, lam) == pochhammer_content_frobenius(u, lam)


def test_maya_set_membership():
    sea = maya_set(0, Partition([]))
    assert all(sea.contains(k) for k in range(-6, 0))
    assert not any(sea.contains(k) for k in range(0, 6))

    m = maya_set(0, Partition([1]))
    assert m.contains(0) and not m.contains(-1)
    assert m.contains(-2) and m.contains(-3)

    big = maya_set(2, from_frobenius((8, 5, 3), (6, 3, 1)))
    for k in (10, 7, 5):
        assert big.contains(k)
    for k in (-5, -2, 0):
        assert not big.contains(k)


def test_maya_occupied_matches_row_form():
    for lam in enumerate_partitions(6):
        for n in range(-3, 4):
            m = maya_set(n, lam)
            floor = n - lam.length - 3
            want = frozenset(
                x for x in lam.maya_modes(n, lam.length + 3 + 3) if x >= floor
            )
            assert m.occupied_above(floor) == want


def test_maya_canonicalize_round_trip():
    for lam in enumerate_partitions(10):
        for n in range(-3, 4):
            m = maya_set(n, lam)
            floor = n - lam.length - 2
            got = maya_canonicalize(floor, m.occupied_above(floor))
            assert got == (n, lam)
    with pytest.raises(ValueError):
        maya_canonicalize(0, [-1, 2])


def test_enumerate_partitions_order():
    assert enumerate_partitions(0) == [Partition([])]
    assert enumerate_partitions(2) == [
        Partition([]),
        Partition([1]),
        Partition([2]),
        Partition([1, 1]),
    ]
    assert enumerate_partitions(4, max_rows=1) == [
        Partition([w]) if w else Partition([]) for w in range(5)
    ]
    # no duplicates, all constraints honored
    all10 = enumerate_partitions(10)
    assert len(all10) == len(set(all10)) == 139
    boxed = enumerate_partitions(8, max_rows=2, max_cols=3)
    assert all(p.length <= 2 and (p.part(1) <= 3) for p in boxed)


def test_json_round_trip():
    lam = Partition([9, 7, 6, 3, 2, 1, 1])
    assert Partition.from_json(lam.to_json()) == lam
    assert Partition([]).to_json() == []


def test_frobenius_constructor_validation():
    with pytest.raises(ValueError):
        FrobeniusCoordinates((1, 2), (1, 0)).to_partition()  # arms not decreasing
    with pytest.raises(ValueError):
        FrobeniusCoordinates((2,), (0, 1)).to_partition()  # length mismatch
    with pytest.raises(ValueError):
        FrobeniusCoordinates((-1,), (0,)).to_partition()
