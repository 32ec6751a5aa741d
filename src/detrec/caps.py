"""Size caps for the verifiers, the exhaustive enumerators and the printed values.

Every computation checks a cap before doing any work and raises
``TooLarge`` beyond it.  An identity's argument bounds are declared in its
registry entry (see ``identities``), so this module names no identity.

Every limit is a fixed constant, so identical arguments give identical
output.  ``_CAPS`` holds the size of each exhaustive enumeration;
``MAX_TERMS`` the term count of a symmetric polynomial, the increasing
words listing ``h_k`` and the weights printed for the linear subdigraphs
of ``E``, and ``MAX_FACTORS`` the variables its terms print and the letters
of those words; ``MAX_WORK`` the price of a symbolic route, and
``MAX_RECURRENCE_STEPS`` the steps of an integer iteration; ``MAX_DIGITS``
an integer value, ``MAX_CELLS`` a matrix and ``COFACTOR_MAX_N`` cofactor
expansion.

A symbolic route is priced by running it, before the real run, over one
term-count ring: ``_Price`` and its ``_Bound``s, a bound being a
polynomial's term count and degree.  The route's own ring code runs on
the bounds, packed or not as it would run on the polynomials, so the
price reaches the same products, quotients and sums, skips the same zeros
and follows the same packing; each operation charges the term work of
its loop.  ``detmat.price_C``, ``detmat.price_S`` and ``symfunc.price_E``
price Bareiss elimination, ``recurrence.price_recurrence`` the
iteration, and ``symfunc.schur_price`` the Jacobi-Trudi expansion, and
``tools/envelope.py`` finds the largest command each accepts.
"""

from itertools import accumulate, islice
from math import comb, log10
from typing import Iterable, Sequence

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

# The price of a symbolic route (see _Price), in units of a term a loop
# touches: a packed term pair, a term a sum copies, a term unpacked over
# one variable.  A ring operation's call costs _CALL units besides, as much
# as the short loops of one-term polynomials, so that a route of many small
# operations, the iteration with r = 1 or the expansion of a wide matrix,
# is priced by its calls.  The largest accepted command of each ladder,
# found by tools/envelope.py, with its median time over three runs from
# the command line (Python 3.11, 2-core VM): compute det --family E --n 53
# --vars 4 (11.2M units) 1.52 s, --n 1628 --vars 2 (12.0M) 1.78 s, --n 9
# --vars 10 (6.2M) 1.08 s, --n 2 --vars 278 (11.9M) 1.09 s, --n 2000
# --vars 1 0.78 s; --family S --n 179 (11.9M) 0.89 s; --family C --n 204
# --r 3 (11.9M) 1.51 s, --n 1283 --r 2 (12.0M) 1.91 s, --n 53 --r 6 1.06
# s, --n 39 --r 10 1.09 s; compute recurrence --r 1 --n 599999 (12.0M)
# 1.71 s, --r 2 --n 2608 1.24 s, --r 3 --n 337 0.84 s, --r 10 --n 49
# (10.8M) 0.76 s; compute schur --parts 19,4 --vars 6 (11.2M, 98k terms
# printed) 2.24-2.35 s, --parts 68,68 --vars 3 (11.8M) 1.57 s, --parts
# 6,4 --vars 10 (8.3M) 1.49 s, --parts 9,2,2 --vars 8 (9.0M) 1.46 s and
# --parts 34,2 --vars 5 (4.5M) 1.51 s.  The same commands ran up to 1.3x
# slower in a slow spell of the VM.  A unit
# costs 0.06-0.3 us: least for S's small packed quotients, most for the
# large packed products of E in many variables and the big coefficients
# of C.  Refused: E --n 10 --vars 10 (14.0M), --n 2 --vars 446 (47.4M),
# compute recurrence --r 10 --n 60 (45.7M) and schur 9,5,3,3,3 in 6
# variables (136.5M).
MAX_WORK = 12_000_000
_CALL = 8

# A 2000 x 2000 matrix: compute det --family A --n 2000 takes 0.6 s,
# --family G --n 2000 --r 3 0.4 s, and --family C --n 2000 --r 1 and E
# --n 2000 --vars 1 0.8 s, priced first on a matrix of bounds, on that VM,
# most of it building the dense rows; --family A --n 3000 took 2.95 s.
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


def check_terms(name: str, n: int, k: int, factors: int = 1) -> None:
    """Raise ``TooLarge`` past ``MAX_TERMS`` terms, ``comb(n, k)``, or ``MAX_FACTORS`` factors.

    The binomial is built one factor at a time, ``C(n-k+i, i)`` for ``i =
    1..k`` with ``k <= n - k``, and that sequence grows, so the loop stops
    at the first value past the bound, for any ``n`` and ``k``.
    """
    if not 0 <= k <= n:
        return  # no term
    count, k = 1, min(k, n - k)
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > MAX_TERMS:
            raise TooLarge(f"{name}: result has more than {MAX_TERMS} terms")
    if count * factors > MAX_FACTORS:
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
    total, r = 0.0, 0
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


class _Price:
    """One priced run of a route: the term-count ring its bounds share, and its work.

    ``monomials[d]`` is the number of monomials of degree ``d <= top`` in
    variables of the given ``degrees``: ``x_i`` has degree 1 and a
    symbolic ``c_t`` degree ``t``.  Building that table costs its
    ``len(degrees) * top`` steps, charged first.  Every charge adds to
    ``work``, and while the price is ``held``, the first that takes it past
    ``MAX_WORK`` raises ``TooLarge``, so a route that would cost too much
    stops as soon as its price says so, and one whose table alone would is
    refused at once.
    ``packed`` is the route's own packing decision, which ``run`` sets and
    the bounds' operations follow.
    """

    __slots__ = ("name", "monomials", "n_vars", "packed", "work", "held")

    def __init__(self, name: str, degrees: Sequence[int], top: int, held: bool = True):
        self.name, self.n_vars, self.held, self.work = name, len(degrees), held, 0
        self.charge(len(degrees) * top)
        self.monomials = counts = [1] + [0] * top
        for w in degrees:  # counts[d] += counts[d - w] for d = w..top, a prefix sum per residue
            for r in range(min(w, top + 1)):
                counts[r::w] = accumulate(counts[r::w])

    def charge(self, units: int) -> None:
        self.work += units
        if self.held and self.work > MAX_WORK:
            raise TooLarge(f"{self.name} work bound exceeds {MAX_WORK}")

    def entry(self, terms: int, degree: int):
        """The bound of a built entry of ``terms`` terms; none is 0.

        Building it costs each term's pairs, up to its degree or the
        variables, whichever is fewer.
        """
        return terms and _Bound(terms, degree, self, terms * min(degree or 1, self.n_vars))

    def run(self, packed: bool, route, *args):
        """``route(*args)`` on bounds of this price, run packed or not: the bound of its value.

        A packed route is charged its closing unpack, the value's terms
        times the variables.
        """
        self.packed = packed
        value = route(*args)
        self.charge(getattr(value, "terms", 0) * self.n_vars if packed else 0)  # an int has none
        return value


class _Bound:
    """A nonzero polynomial's term count and degree, in the ring of one ``_Price``.

    A route's ring code runs on bounds as it runs on polynomials, and each
    operation charges the price the term work its loop does, and ``_CALL``
    for the call itself: a product its term pairs and the terms of the map
    it builds, a sum or difference the terms it touches, an exact quotient
    its remainder and its quotient times divisor pairs.  A route that runs
    unpacked, on tuple monomials, makes its products as ``MultiPoly``
    does: one factor of a single term merges each pair in a call of
    ``poly._mono_mul``, so each pair costs a call, and two multi-term
    factors are packed over every variable for the product, whose terms
    are then unpacked.  A result's terms are capped by the monomials of
    its degree.  The routes priced are graded, so a sum adds two bounds of
    one degree, or 0 and a bound; an int factor is a constant.
    """

    __slots__ = ("terms", "degree", "price")

    def __init__(self, terms: int, degree: int, price: _Price, work: int):
        """A value of at most ``terms`` terms, once ``price`` is charged the ``work`` it took."""
        price.work += work  # price.charge, inlined: a bound is made at every ring operation
        if price.work > MAX_WORK and price.held:
            price.charge(0)
        cap = price.monomials[degree]
        self.terms, self.degree, self.price = terms if terms < cap else cap, degree, price

    def __mul__(self, other):
        terms, degree = (other.terms, other.degree) if type(other) is _Bound else (1, 0)
        pairs, degree, price = self.terms * terms, self.degree + degree, self.price
        cap = price.monomials[degree]
        out = pairs if pairs < cap else cap
        # packed; one factor of one term, on tuple monomials; two multi-term ones, unpacked
        work = pairs if price.packed else pairs * _CALL if min(self.terms, terms) < 2 else \
            pairs + (self.terms + terms + out) * price.n_vars
        return _Bound(out, degree, price, work + out + _CALL)

    def __add__(self, other=0):
        terms = self.terms + (other.terms if other else 0)
        return _Bound(terms, self.degree, self.price, terms + _CALL)

    def __truediv__(self, other):
        degree = self.degree - other.degree
        quotient = self.price.monomials[degree]
        return _Bound(quotient, degree, self.price, self.terms + quotient * other.terms + _CALL)

    # a negation touches each term once, as adding 0 does
    __radd__ = __sub__ = __rsub__ = __neg__ = __add__
    __rmul__ = __mul__


def symbolic_bounds(name: str, n: int, r: int, top: int) -> list[_Bound]:
    """The bounds of the symbolic ``c_1..c_r`` that ``u_n`` reads, in a new ``_Price`` of ``name``.

    Each ``c_t`` is one term of degree ``t``, and ``top`` bounds the
    degrees the route forms; ``u_n`` reads ``c_1..c_n`` only.
    """
    price = _Price(name, range(1, min(r, max(n, 1)) + 1), max(top, 1))
    return [price.entry(1, t) for t in range(1, price.n_vars + 1)]
