"""Exact half-integer scalars.

Four-point constants, Gromov products, and the ball radii derived from them
are always integers or half-integers.  Storing twice the value as a plain
int keeps every comparison and every radius formula exact; nothing in this
package compares such quantities through floats.
"""

from __future__ import annotations

import functools
from fractions import Fraction


@functools.total_ordering
class HalfInt:
    """A number of the form k/2, stored as the integer ``doubled`` = k."""

    __slots__ = ("doubled",)

    def __init__(self, whole: int = 0):
        if not isinstance(whole, int):
            raise TypeError(f"HalfInt(whole) wants an int, got {type(whole).__name__}")
        self.doubled = 2 * whole

    @classmethod
    def from_doubled(cls, doubled: int) -> "HalfInt":
        h = cls.__new__(cls)
        h.doubled = int(doubled)
        return h

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def floor(self) -> int:
        return self.doubled // 2

    def ceil(self) -> int:
        return -((-self.doubled) // 2)

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    # arithmetic: + and - accept HalfInt or int, * accepts int scalars only
    # (a product of two strict half-integers would leave the domain)

    def _other_doubled(self, other) -> int | None:
        if isinstance(other, HalfInt):
            return other.doubled
        if isinstance(other, int):
            return 2 * other
        return None

    def __add__(self, other):
        od = self._other_doubled(other)
        return NotImplemented if od is None else HalfInt.from_doubled(self.doubled + od)

    __radd__ = __add__

    def __sub__(self, other):
        od = self._other_doubled(other)
        return NotImplemented if od is None else HalfInt.from_doubled(self.doubled - od)

    def __rsub__(self, other):
        od = self._other_doubled(other)
        return NotImplemented if od is None else HalfInt.from_doubled(od - self.doubled)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt.from_doubled(self.doubled * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return HalfInt.from_doubled(-self.doubled)

    def __eq__(self, other):
        od = self._other_doubled(other)
        return NotImplemented if od is None else self.doubled == od

    def __lt__(self, other):
        od = self._other_doubled(other)
        return NotImplemented if od is None else self.doubled < od

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.doubled != 0

    def __float__(self):
        # int / int rounds once, and overflows only when the value does
        return self.doubled / 2

    def __str__(self):
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self):
        return f"HalfInt.from_doubled({self.doubled})"


def half_max(*values: HalfInt | int) -> HalfInt:
    """Exact maximum of a mix of HalfInt and int values, as a HalfInt."""
    if not values:
        raise ValueError("half_max needs at least one value")
    return max(v if isinstance(v, HalfInt) else HalfInt(v) for v in values)
