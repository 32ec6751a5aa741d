"""Size caps for the exhaustive enumerators and the symmetric polynomials.

Every enumeration in the library is exhaustive, so each entry point checks a
cap before doing any work and raises ``TooLarge`` beyond it.  The default
caps keep the full verification sweep in the seconds range.

A symmetric polynomial ``e_k`` or ``h_k`` is as large as its term count, a
binomial that grows without bound in the degree and the variable count.
``check_terms`` holds it to the fixed ``MAX_TERMS``.  ``check_recurrence``
holds the iteration that computes the recurrence value ``u_n`` with
symbolic coefficients to ``MAX_RECURRENCE_WORK``, and ``check_schur_work``
holds a Schur polynomial's division work bound to ``MAX_SCHUR_WORK``.  No
environment variable changes these fixed limits.

The environment variable ``DETREC_MAX_N`` replaces the default cap of every
enumeration listed below, clamped to a per-operation hard limit (the hard
limits exist because e.g. dense linear-subdigraph enumeration is factorial).
Any value that is not a positive integer is rejected with ``ValueError``.
"""

import os

from .errors import TooLarge

# name -> (default cap, hard limit)
_CAPS = {
    "lsd": (12, 14),
    "tilings": (20, 24),
    "circular_tilings": (20, 24),
    "words": (12, 14),
    "pie_linear": (10, 12),
    "cyclic_words": (20, 22),
    "pie_cyclic": (16, 18),
    "racci_sum": (30, 40),
}

# h_10 in 10 variables (92,378 terms) takes about 1.4 s to build and print
# with Python 3.11 on a 2-core VM
MAX_TERMS = 100_000

# The symbolic recurrence's time follows its work bound (see
# check_recurrence), about 1.2-2.9 us a unit on that VM, where a step of
# the iteration costs as much as _STEP_TERMS terms.  --r 10 --n 40 (work
# 1,154,280) takes 1.4-1.7 s; the slowest accepted cases measured,
# --r 3 --n 238, --r 2 --n 1531 and --r 1 --n 299999, take 2.5-3.0 s;
# --r 10 --n 50 (work 4,941,240) took 9 s.
MAX_RECURRENCE_WORK = 1_200_000
_STEP_TERMS = 3

# The slowest accepted Schur polynomials measured on that VM: s_(1,1) and
# s_(2) in 8 variables (bound 1,451,520) take 2.5-2.8 s, s_(900) in 3
# variables (bound 2,438,106) 2.2 s, and s_(4,3,2,1) in 6 variables
# (bound 2,162,160) 0.4 s.  s_(3,2,1) in 7 variables (bound 4,656,960)
# took 2.0 s and is refused, as are s_(5,3,2,1) in 7 variables (62M, 39 s)
# and s_(3,2,1) in 8 (69M, over 40 s).
MAX_SCHUR_WORK = 2_500_000


def cap(name: str) -> int:
    """Effective size cap for the named enumeration."""
    default, hard = _CAPS[name]
    raw = os.environ.get("DETREC_MAX_N")
    if raw is None:
        return default
    try:
        requested = int(raw)
    except ValueError:
        requested = 0  # rejected below, like any other value under 1
    if requested < 1:
        raise ValueError(f"DETREC_MAX_N must be a positive integer, got {raw!r}")
    return min(hard, requested)


def check_cap(name: str, n: int) -> None:
    """Raise ``TooLarge`` if ``n`` exceeds the effective cap for ``name``."""
    limit = cap(name)
    if n > limit:
        raise TooLarge(f"{name}: size {n} exceeds cap {limit}")


def _comb_exceeds(n: int, k: int, limit: int) -> bool:
    """Whether ``comb(n, k) > limit``, for any ``n`` and ``k``, cheaply.

    The binomial is built one factor at a time, ``C(n-k+i, i)`` for
    ``i = 1..k`` with ``k <= n - k``, and that sequence grows, so the loop
    stops at the first value past the limit.
    """
    k = min(k, n - k)
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > limit:
            return True
    return False


def check_terms(name: str, n: int, k: int) -> None:
    """Raise ``TooLarge`` if ``comb(n, k)``, a result's term count, exceeds ``MAX_TERMS``."""
    if _comb_exceeds(n, k, MAX_TERMS):
        raise TooLarge(f"{name}: result has more than {MAX_TERMS} terms")


def check_recurrence(n: int, r: int) -> None:
    """Raise ``TooLarge`` if ``u_n`` with symbolic ``c_1..c_r`` costs too much to compute.

    The iteration builds every ``u_m`` with ``m <= n``, whose terms are the
    partitions of ``m`` into parts ``<= r`` (one monomial per multiset of
    tile lengths), and passes each to up to ``r`` products.  Its time
    follows ``r`` times the summed term counts plus ``_STEP_TERMS`` a step,
    which is held to ``MAX_RECURRENCE_WORK``.  Every ``u_m`` has at least
    one term, and with parts 1 and 2 at least ``m // 2 + 1``, so that work
    is at least ``r * (n + 1) * (1 + _STEP_TERMS)``, and then over
    ``n**2 / 2``: a larger ``r`` or ``n`` is refused at once.  Otherwise one
    O(n) pass per part size counts the partitions, stopping once the work
    is past the limit.
    """
    if n < 0 or r < 1:
        return  # the evaluator rejects these
    too_large = TooLarge(f"recurrence: iteration work bound exceeds {MAX_RECURRENCE_WORK}")
    overhead = r * (n + 1) * _STEP_TERMS
    if r * (n + 1) + overhead > MAX_RECURRENCE_WORK:
        raise too_large
    if min(r, n) < 2:
        return  # each u_m is a single term
    if n * n > 2 * MAX_RECURRENCE_WORK:
        raise too_large
    counts = [1] * (n + 1)  # counts[m]: partitions of m into the parts so far
    for part in range(2, min(r, n) + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
        if r * sum(counts) + overhead > MAX_RECURRENCE_WORK:
            raise too_large


def check_schur_work(weight: int, n_vars: int) -> None:
    """Raise ``TooLarge`` if a Schur polynomial's division work bound exceeds ``MAX_SCHUR_WORK``.

    The bound is ``comb(weight + n_vars - 1, n_vars - 1) * n_vars!``: the
    monomials of the partition's weight, a bound on the quotient's terms,
    times the terms of the Vandermonde divisor's expansion.  Both factors
    are built one step at a time and stop once past the limit.
    """
    too_large = TooLarge(f"schur: division work bound exceeds {MAX_SCHUR_WORK}")
    factorial = 1
    for i in range(2, n_vars + 1):
        factorial *= i
        if factorial > MAX_SCHUR_WORK:
            raise too_large
    if _comb_exceeds(weight + n_vars - 1, n_vars - 1, MAX_SCHUR_WORK // factorial):
        raise too_large
