"""Size caps for the exhaustive enumerators.

Every enumeration in the library is exhaustive, so each entry point checks a
cap before doing any work and raises ``TooLarge`` beyond it.  The default
caps keep the full verification sweep in the seconds range.

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
