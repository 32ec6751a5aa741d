"""Size caps for the exhaustive enumerators and the symmetric polynomials.

Every enumeration in the library is exhaustive, so each entry point checks a
cap before doing any work and raises ``TooLarge`` beyond it.  The default
caps keep the full verification sweep in the seconds range.

A symmetric polynomial ``e_k`` or ``h_k`` is as large as its term count, a
binomial that grows without bound in the degree and the variable count.
``check_terms`` holds it to the fixed ``MAX_TERMS``, which no environment
variable changes.

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


def check_terms(name: str, n: int, k: int) -> None:
    """Raise ``TooLarge`` if ``comb(n, k)``, a result's term count, exceeds ``MAX_TERMS``.

    The binomial is built one factor at a time, ``C(n-k+i, i)`` for
    ``i = 1..k`` with ``k <= n - k``, and that sequence grows, so the check
    stops at the first value past the limit and stays cheap for any input.
    """
    k = min(k, n - k)
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > MAX_TERMS:
            raise TooLarge(f"{name}: result has more than {MAX_TERMS} terms")
