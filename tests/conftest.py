"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def counted_ints():
    """An int subclass that counts its products, and the one-item counter list.

    Sums, differences and quotients of counted values stay counted, so every
    product a determinant route computes from counted entries is seen.
    """
    count = [0]

    class Counted(int):
        def __mul__(self, other):
            count[0] += 1
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

        def __sub__(self, other):
            return Counted(int(self) - int(other))

        def __rsub__(self, other):
            return Counted(int(other) - int(self))

        def __neg__(self):
            return Counted(-int(self))

        def __divmod__(self, other):
            q, r = divmod(int(self), int(other))
            return Counted(q), Counted(r)

    return Counted, count
