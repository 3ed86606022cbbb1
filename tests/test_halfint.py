from fractions import Fraction

import pytest

from hypercore import HalfInt
from hypercore.halfint import half_max


def test_construction_and_value():
    assert HalfInt(3).doubled == 6
    assert HalfInt.from_doubled(3).as_fraction() == Fraction(3, 2)
    assert HalfInt(0).doubled == 0


def test_whole_must_be_int():
    with pytest.raises(TypeError):
        HalfInt(1.5)


def test_arithmetic_exact():
    h = HalfInt.from_doubled(3)  # 3/2
    assert (h + 1).doubled == 5
    assert (1 + h).doubled == 5
    assert (h - 2).doubled == -1
    assert (2 - h).doubled == 1
    assert (h * 4).doubled == 12
    assert (4 * h) == 6
    assert (-h).doubled == -3
    assert h + h == 3


def test_ordering_against_ints_and_halfints():
    assert HalfInt.from_doubled(3) > 1
    assert HalfInt.from_doubled(3) < 2
    assert HalfInt.from_doubled(4) == 2
    assert 2 == HalfInt.from_doubled(4)
    assert HalfInt.from_doubled(1) <= HalfInt.from_doubled(2)
    assert max(HalfInt(1), HalfInt.from_doubled(3)) == HalfInt.from_doubled(3)


def test_floor_ceil_including_negatives():
    assert HalfInt.from_doubled(3).floor() == 1
    assert HalfInt.from_doubled(3).ceil() == 2
    assert HalfInt.from_doubled(4).floor() == 2
    assert HalfInt.from_doubled(4).ceil() == 2
    assert HalfInt.from_doubled(-3).floor() == -2
    assert HalfInt.from_doubled(-3).ceil() == -1


def test_str_and_flags():
    assert str(HalfInt(2)) == "2"
    assert str(HalfInt.from_doubled(5)) == "5/2"
    assert HalfInt(2).is_integer
    assert not HalfInt.from_doubled(5).is_integer
    assert float(HalfInt.from_doubled(5)) == 2.5
    # a value near the float limit converts, and one past it overflows
    assert float(HalfInt(10**308)) == 1e308
    with pytest.raises(OverflowError):
        float(HalfInt(10**400))
    assert not HalfInt(0)
    assert HalfInt.from_doubled(1)


def test_hash_consistent_with_fraction():
    assert hash(HalfInt.from_doubled(4)) == hash(Fraction(2))
    assert len({HalfInt(1), HalfInt.from_doubled(2)}) == 1


def test_half_max():
    assert half_max(HalfInt.from_doubled(3), 1) == HalfInt.from_doubled(3)
    assert half_max(0, 2, HalfInt.from_doubled(3)) == 2
    with pytest.raises(ValueError):
        half_max()
