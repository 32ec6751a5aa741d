"""Iterative recurrence evaluators and exact closed forms.

These are the independent oracles the determinant routes are checked
against: plain iteration for the order-r recurrence (initial conditions
``u_0 = 1`` and ``u_j = 0`` for ``j < 0``), the Fibonacci, Lucas and r-acci
sequences, the cycle-type multinomial sum, and exact golden-ratio closed
forms evaluated in the quadratic field (no floating point anywhere).  The
iteration keeps only its last ``r`` values.  With a polynomial coefficient
it packs the coefficients once and runs in that packing: each ``u_m`` is
one multiply-accumulate, and only ``u_n`` is unpacked.  Each Fibonacci and
Lucas value, iterated or closed, is held to the digit cap, and ``racci``
holds its value and iteration to ``caps.check_iteration`` once, before it
builds its list of ones and runs ``eval_recurrence``'s guard-free loop on
them.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import mul
from typing import Sequence

from .caps import check_cap, check_digits, check_iteration
from .digraph import cycle_type_sum
from .poly import PHI, SQRT5, MultiPoly, QuadExt, _mul_sum, _pack, _Packed


def eval_recurrence(coeffs: Sequence, n: int):
    """Value ``u_n`` of ``u_m = c_1 u_{m-1} + ... + c_r u_{m-r}``.

    ``u_0 = 1`` and ``u_j = 0`` for ``j < 0``; coefficients may be any exact
    scalar, including polynomials.  ``u_n`` reads ``c_1..c_n`` only.  With
    integer coefficients the value and its iteration are held to
    ``caps.check_iteration`` before the first step, so every path that
    iterates them shares that guard.  With a polynomial among ``c_1..c_n``
    the call packs them once, ints as packed constants, with ``poly._pack``
    and the bound ``n * max deg c_t``, which covers every ``u_m``; each step
    is then one multiply-accumulate (``poly._mul_sum``), and only ``u_n`` is
    unpacked, a ``MultiPoly``.  ``u_0`` is the int 1.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if n == 0:
        return 1
    coeffs = coeffs[:n]
    if not any(isinstance(c, MultiPoly) for c in coeffs):
        if all(isinstance(c, int) for c in coeffs):
            check_iteration(n, coeffs)
        return _iterate(coeffs, n)
    polys = [MultiPoly._coerce(c) for c in coeffs]
    if None in polys:
        raise TypeError("recurrence coefficients with a polynomial must be ints or polynomials")
    return _iterate(_pack(polys, n * max(map(MultiPoly.degree, polys))), n).unpack()


def _iterate(coeffs: Sequence, n: int):
    """``eval_recurrence``'s loop, run by it and by ``racci`` after each one's own guard.

    It keeps the last ``r`` values, newest first, so that ``coeffs`` and
    them pair up as ``c_t`` and ``u_(m-t)``.  Packed coefficients step by
    ``poly._mul_sum``, and any others by ``sum(map(mul, coeffs, recent))``
    inline, with no call of its own per step.
    """
    recent = deque([1], maxlen=len(coeffs))  # u_(m-1), ..., u_(m-r)
    if type(coeffs[0]) is _Packed:
        for _ in range(n):
            recent.appendleft(_mul_sum(coeffs, recent))
    else:
        for _ in range(n):
            recent.appendleft(sum(map(mul, coeffs, recent)))
    return recent[0]


def _check_ones(n: int, r: int) -> None:
    """The guard of every r-acci value: ``check_iteration`` of ``r`` ones.

    Fibonacci and Lucas values are guarded with ``r = 2``.  No list of the
    ones is built, so a huge ``r`` costs nothing before the refusal.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    check_iteration(n, repeat(1, r))


def fibonacci(n: int) -> int:
    """Fibonacci numbers with ``f_0 = f_1 = 1``.

    Like ``lucas``, ``binet_fib`` and ``binet_lucas``, it raises ``TooLarge``
    before any work when ``check_iteration`` refuses ``n`` for ``1, 1``, and
    once computed when the value has more than ``caps.MAX_DIGITS`` digits.
    """
    _check_ones(n, 2)
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    check_digits(a)
    return a


def lucas(n: int) -> int:
    """Lucas numbers with seeds ``l_0 = 2, l_1 = 1``, guarded as ``fibonacci``."""
    _check_ones(n, 2)
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    check_digits(a)
    return a


def racci(n: int, r: int) -> int:
    """r-acci numbers: ``F_n = F_{n-1} + ... + F_{n-r}`` with ``F_0 = 1``.

    Guarded as ``fibonacci``, with ``r`` ones: a refused ``n`` or ``r``
    raises ``TooLarge`` before the list of coefficients is built.  That one
    guard is its only ``check_iteration``: it runs ``eval_recurrence``'s
    loop, not ``eval_recurrence``, on its ones.
    """
    if r < 1:
        raise ValueError("order must be positive")
    _check_ones(n, r)
    return _iterate([1] * min(r, max(n, 1)), n)  # u_n reads c_1..c_n only


def racci_multinomial(n: int, r: int) -> int:
    """r-acci number as a sum of cycle-type multinomials.

    Sums, over every cycle type with ``2*i_2 + ... + r*i_r <= n``, the
    number of linear subdigraphs of the width-r banded digraph with that
    type: ``cycle_type_sum`` with unit weights.  No cycle is longer than
    ``n``, so the band is cut to ``n``.
    """
    if r < 1:
        raise ValueError("order must be positive")
    check_cap("racci_sum", n)
    if n == 0:
        return 1
    return cycle_type_sum(n, [1] * min(r, n))


def binet_fib(n: int) -> QuadExt:
    """Fibonacci closed form ``(phi**(n+1) - psi**(n+1)) / sqrt(5)``, exactly.

    ``psi**(n+1)`` is the conjugate of ``phi**(n+1)`` (``sqrt(5) ->
    -sqrt(5)`` maps ``phi`` to ``psi``), so one power serves both.  The
    result always has zero radical part and an integer rational part.
    Guarded as ``fibonacci``.
    """
    _check_ones(n, 2)
    p = PHI ** (n + 1)
    value = (p - p.conjugate()) / SQRT5
    check_digits(value._a)  # the value is the integer a: den is 1, the radical part 0
    return value


def binet_lucas(n: int) -> QuadExt:
    """Lucas closed form ``phi**n + psi**n``, exactly.

    ``psi**n`` is the conjugate of ``phi**n``, so one power serves both.
    Guarded as ``fibonacci``.
    """
    _check_ones(n, 2)
    p = PHI ** n
    value = p + p.conjugate()
    check_digits(value._a)  # the value is the integer a: den is 1, the radical part 0
    return value
