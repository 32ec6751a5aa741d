"""Size caps for the verifiers, the exhaustive enumerators and the printed values.

Every computation checks a cap before doing any work and raises
``TooLarge`` beyond it.  An identity's argument bounds are declared in its
registry entry (see ``identities``), so this module names no identity.

Every limit is a fixed constant, so identical arguments give identical
output.  ``_CAPS`` holds the size of each exhaustive enumeration;
``MAX_TERMS`` the term count of a symmetric polynomial, the increasing
words listing ``h_k`` and the weights printed for the linear subdigraphs
of ``E``, and ``MAX_FACTORS`` the variables its terms print and the letters
of those words; ``MAX_SCHUR_WORK``, ``MAX_RECURRENCE_WORK`` and
``MAX_RECURRENCE_STEPS`` the modelled work of a Schur polynomial, of a
symbolic recurrence or elimination, and of an integer iteration;
``MAX_DIGITS`` an integer value, ``MAX_CELLS`` a matrix and
``COFACTOR_MAX_N`` cofactor expansion.
"""

from itertools import islice
from math import comb, log10
from typing import Iterable

from .errors import TooLarge

COFACTOR_MAX_N = 8

# enumeration -> the largest size it accepts; linear subdigraphs of a
# dense matrix are factorial in its size, the others exponential
_CAPS = {
    "lsd": 12,
    "tilings": 20,
    "circular_tilings": 20,
    "pie_linear": 10,
    "cyclic_words": 20,
    "pie_cyclic": 16,
    "racci_sum": 30,
}

# h_10 in 10 variables (92,378 terms) takes about 1.4 s to build and print
# with Python 3.11 on a 2-core VM
MAX_TERMS = 100_000

# A term prints each of its variables: e_999 in 1000 variables (999,000
# factors, 4.9 MB) takes 2.1 s on that VM, and e_99999 in 100,000 (10**10)
# ran out of memory.  h and s_lam, with at most min(k, n) variables a term,
# stay under this bound whenever they meet MAX_TERMS.
MAX_FACTORS = 1_000_000

# The symbolic recurrence's time follows its work bound (see
# check_recurrence), about 0.2-0.4 us a unit on that VM from the command
# line, where a step of the iteration costs as much as _STEP_TERMS terms;
# the iteration runs in one packing.  The slowest accepted cases measured,
# --r 10 --n 40 (work 1,154,280), --r 3 --n 238, --r 2 --n 1531 and
# --r 1 --n 299999, take 0.25, 0.29, 0.28-0.31 and 0.41-0.43 s;
# --r 10 --n 50 (work 4,941,240), refused, iterates in 0.6 s in process.
# The elimination of E runs at 0.5-1.3 us a unit of check_det_E, and that
# of S at about 1.3 us a unit of check_det_S: compute det --family E --n
# 30 --vars 4 (work 1,198,442) takes 1.5 s from the command line, and S of
# size 153 1.9 s.  Refused: E --n 40 --vars 4 (3,655,867, 2.9 s), --n 10
# --vars 10 (19.0M, 10.6 s), --n 2 --vars 446 (44.7M, 10.4 s), and S of
# size 200 (2,666,666, 3.5 s).
MAX_RECURRENCE_WORK = 1_200_000
_STEP_TERMS = 3

# The slowest accepted Schur polynomials measured on that VM, from the
# command line, printing included: s_(33,2) in 5 variables (work
# 1,499,630, 82k terms) takes 3.1 s, s_(6,3,2,2) in 8 (1,448,640) 2.3 s
# and s_(7,5,2,2) in 7 (1,485,321) 2.2-2.5 s; s_(5,3,2,1) in 7 (104,318)
# takes 0.2 s.  In-process the model runs at 0.15-1.3 us a unit: the
# degree bound on a minor's terms is loosest in few variables.  Refused:
# s_(60,60) in 3 variables (work 7,155,545, 1.7 s), s_(6,4) in 10
# (5,277,957, 5.4 s) and s_(9,5,3,3,3) in 6 (134M, 20 s).
MAX_SCHUR_WORK = 1_500_000

# A 2000 x 2000 matrix: compute det --family A --n 2000 takes 1.5 s,
# --family C --n 2000 --r 1 1.5 s and --family G --n 2000 --r 3 1.2 s on
# that VM, most of it building the dense rows; --family A --n 3000 took
# 2.95 s.
MAX_CELLS = 4_000_000

# Python's default limit on the digits of an int it converts to text
MAX_DIGITS = 4300

# The integer iteration takes n steps of r terms each, about 0.26-0.54 us a
# term on that VM: racci --n 14285 --r 100 (1,428,500) takes 0.8 s, --r 210
# (2,999,850) 1.5-1.6 s, and --coeffs 1 --n 3000000 0.8 s.
MAX_RECURRENCE_STEPS = 3_000_000


def check_cap(name: str, n: int) -> None:
    """Raise ``TooLarge`` if ``n`` exceeds the cap for ``name``."""
    if n > _CAPS[name]:
        raise TooLarge(f"{name}: size {n} exceeds cap {_CAPS[name]}")


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


def check_terms(name: str, n: int, k: int, factors: int = 1) -> None:
    """Raise ``TooLarge`` past ``MAX_TERMS`` terms, ``comb(n, k)``, or ``MAX_FACTORS`` factors."""
    if _comb_exceeds(n, k, MAX_TERMS):
        raise TooLarge(f"{name}: result has more than {MAX_TERMS} terms")
    if factors > 1 and comb(n, k) * factors > MAX_FACTORS:
        raise TooLarge(f"{name}: result has more than {MAX_FACTORS} factors")


def check_lsds_E(n: int, n_vars: int) -> None:
    """Raise ``TooLarge`` if the LSDs of ``build_E(n, n_vars)`` print over ``MAX_TERMS`` terms.

    Each weight, a signed product of ``e_t`` of total degree ``n``, has at
    most the terms of ``h_n``.  The LSDs are the ``racci(n, min(n, n_vars))``
    compositions of ``n`` into parts ``<= n_vars``, counted one length at a
    time; the count never falls, so the loop stops past the bound, within
    25 lengths when ``n_vars >= 2``.
    """
    check_terms("lsds", n + n_vars - 1, n)
    if n < 1 or n_vars < 2:
        return  # at most one LSD, or build_E rejects it
    counts = [1]  # counts[m]: compositions of m into parts <= n_vars
    for _ in range(n):
        counts.append(sum(counts[-n_vars:]))
        if counts[-1] * comb(n + n_vars - 1, n) > MAX_TERMS:
            raise TooLarge(f"lsds: weights have more than {MAX_TERMS} terms")


def check_recurrence(n: int, r: int, limit: int = MAX_RECURRENCE_WORK) -> None:
    """Raise ``TooLarge`` if ``u_n`` with symbolic ``c_1..c_r`` costs too much to compute.

    ``u_n`` reads ``c_1..c_n`` only, so ``r`` counts at most ``max(n, 1)``
    of them.  The iteration builds every ``u_m`` with ``m <= n``, whose
    terms are the partitions of ``m`` into parts ``<= r`` (one monomial per
    multiset of tile lengths), and passes each to up to ``r`` products.
    Its time follows ``r`` times the summed term counts plus
    ``_STEP_TERMS`` a step, which is held to ``limit``.  Every ``u_m`` has
    at least one term, and with parts 1 and 2 at least ``m // 2 + 1``, so
    that work is at least ``r * (n + 1) * (1 + _STEP_TERMS)``, and then
    over ``n**2 / 2``: a larger ``r`` or ``n`` is refused at once.
    Otherwise one O(n) pass per part size counts the partitions, stopping
    once the work is past the limit.
    """
    if n < 0 or r < 1:
        return  # the evaluator rejects these
    r = min(r, max(n, 1))
    too_large = TooLarge(f"recurrence: iteration work bound exceeds {limit}")
    overhead = r * (n + 1) * _STEP_TERMS
    if r * (n + 1) + overhead > limit:
        raise too_large
    if r < 2:
        return  # each u_m is a single term
    if n * n > 2 * limit:
        raise too_large
    counts = [1] * (n + 1)  # counts[m]: partitions of m into the parts so far
    for part in range(2, r + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
        if r * sum(counts) + overhead > limit:
            raise too_large


def check_det_E(n: int, n_vars: int) -> None:
    """Raise ``TooLarge`` if ``det(build_E(n, n_vars))``, which is ``h_n``, is too large to compute.

    ``check_terms`` holds ``h_n`` to ``MAX_TERMS``.  Bareiss elimination on
    the band matrix ``E`` divides nothing: it is the recurrence iteration
    ``h_m = sum_t (-1)**(t-1) * e_t * h_(m-t)``.  Step ``k`` multiplies the
    pivot ``h_k`` by each ``e_t``, ``t <= min(n_vars, n - k)``, of the next
    row: ``comb(k + n_vars - 1, n_vars - 1) * comb(n_vars, t)`` monomial
    products, whose terms are at most the ``comb(k + t + n_vars - 1,
    n_vars - 1)`` monomials of degree ``k + t``.  The model charges
    ``n_vars`` for each of those terms too, the cost of unpacking them over
    ``n_vars`` variables.  That charge is an over-count: an ``E`` of size 3
    or more with ``n_vars >= 2`` runs in one packing
    (``detmat._run_packed``) and unpacks only ``h_n``, and with
    ``n_vars == 1`` every product is of one-term polynomials and packs
    nothing.  The work, summed, is held to ``MAX_RECURRENCE_WORK``; the sum
    stops once past it.
    """
    check_terms("det", n + n_vars - 1, n)
    if n_vars < 1:
        return  # build_E rejects it
    work = 0
    for k in range(1, n):
        pivot = comb(k + n_vars - 1, n_vars - 1)
        for t in range(1, min(n_vars, n - k) + 1):
            products = pivot * comb(n_vars, t)
            work += products + n_vars * min(products, comb(k + t + n_vars - 1, n_vars - 1))
        if work > MAX_RECURRENCE_WORK:
            raise TooLarge(f"det: elimination work bound exceeds {MAX_RECURRENCE_WORK}")


def check_det_S(n: int) -> None:
    """Raise ``TooLarge`` if the symbolic ``det(build_S(a, b, n))`` costs too much to compute.

    Bareiss elimination on ``S`` fills its last row, and each step divides
    that row's entries, of about ``k`` terms at step ``k``, by the previous
    pivot, ``(a**k - b**k) / (a - b)`` up to sign, of ``k`` terms.  Its work,
    ``n**3 / 3``, is held to ``MAX_RECURRENCE_WORK``.
    """
    if n ** 3 // 3 > MAX_RECURRENCE_WORK:
        raise TooLarge(f"det: elimination work bound exceeds {MAX_RECURRENCE_WORK}")


def check_cells(n: int) -> None:
    """Raise ``TooLarge`` if an ``n x n`` matrix has more than ``MAX_CELLS`` entries."""
    if n > 0 and n * n > MAX_CELLS:
        raise TooLarge(f"matrix: {n}x{n} has more than {MAX_CELLS} cells")


def check_iteration(n: int, coeffs: Iterable[int]) -> None:
    """Raise ``TooLarge`` if the integer ``u_n`` is too long or its iteration too slow.

    ``u_m = c_1 u_{m-1} + ... + c_r u_{m-r}``, ``u_0 = 1``, reads ``c_1..c_n``
    only.  Its bound ``rho**n``, where ``sum |c_i| / rho**i = 1``, is held to
    ``MAX_DIGITS + 1`` digits, which it passes exactly when the sum at
    ``x = 10**((MAX_DIGITS + 1) / n)`` is at least 1; Fibonacci, Lucas and
    r-acci values exceed a tenth of it, so all that fit pass.  ``n`` steps
    of a term per coefficient, held to ``MAX_RECURRENCE_STEPS``, bound the
    values that stay short (``c_1 = 1``) or grow slowly over many terms.
    """
    if n < 1:
        return
    step = (MAX_DIGITS + 1) / n
    total = 0.0
    r = 0
    for r, c in enumerate(islice(coeffs, n), start=1):
        if c:
            total += 10 ** min(0.0, log10(abs(c)) - r * step)
            if total >= 1:
                raise TooLarge(f"value: more than {MAX_DIGITS} digits")
    if n * r > MAX_RECURRENCE_STEPS:
        raise TooLarge(f"recurrence: {n * r} iteration steps exceed {MAX_RECURRENCE_STEPS}")


_DIGITS_LIMIT = 10 ** MAX_DIGITS


def check_digits(value: int) -> None:
    """Raise ``TooLarge`` if the integer ``value`` has more than ``MAX_DIGITS`` digits."""
    if abs(value) >= _DIGITS_LIMIT:
        raise TooLarge(f"value: more than {MAX_DIGITS} digits")
