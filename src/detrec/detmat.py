"""Structured matrices and exact determinant algorithms.

The constructors build the banded recurrence matrix family (``C`` and its
unit-coefficient specializations ``G`` and ``F``) and the circulant-like
two-variable family (``S`` and its golden-ratio instance ``A``).
``build_C`` is the one band builder: the banded matrix of elementary
symmetric polynomials, ``symfunc.build_E``, is ``C`` of the signed
``e_1, -e_2, e_3, ...``.

Determinants come in two independent flavours here: first-row cofactor
expansion (the small reference oracle) and fraction-free Bareiss elimination
(the scalable exact route).  Both are written once against plain ring
operators, so integer, polynomial and quadratic-field matrices all work;
Bareiss divides through ``_exact_div``, one rule for ints, polynomials and
field elements.  On a matrix of size 3 or more with a polynomial entry of
two or more terms (``SquareMatrix._multiterm``) each route,
``digraph.det_via_lsd`` too, runs that ring code on the entries packed in
one packing with one bound, two minors (``_run_packed``), and unpacks only
the determinant; every other matrix runs on its entries as they are.
Cofactor expansion memoises each minor on its column set for the length of
one call, so it expands ``2**n`` minors at most rather than ``n!`` paths.
``price_C`` and ``price_S`` price Bareiss elimination before it runs: the
route's own code runs over the term counts of the entries (``caps._Bound``),
packed or not as ``_run_packed`` decides for the real matrix.

Every matrix built here is sparse: ``C``/``G``/``F`` are banded upper
Hessenberg and ``S``/``A`` tridiagonal plus two corners.  Bareiss computes
no product with a zero factor and leaves alone every row whose entry in the
pivot column is zero, so its work follows the nonzero entries: on these
matrices it does O(n) ring operations for a fixed band width, where the
textbook loop does O(n^3).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .caps import COFACTOR_MAX_N, _Bound, _Price, symbolic_bounds
from .errors import DimensionTooSmall, ExactDivisionFailure, NotDivisible, TooLarge
from .poly import PHI, PSI, MultiPoly, _pack_rows, _Packed, exact_divide, scalar_str


class SquareMatrix:
    """Immutable square matrix over any exact scalar type.

    ``_multiterm`` records whether some entry is a polynomial of two or
    more terms, which decides how the determinant routes run (see
    ``_run_packed``).  It is found once, when the matrix is built: the
    constructor scans the entries, and the builders below, through
    ``_square``, read it off the few values they place.
    """

    __slots__ = ("_rows", "_multiterm")

    def __init__(self, rows: Iterable[Iterable]):
        frozen = tuple(tuple(row) for row in rows)
        n = len(frozen)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for row in frozen:
            if len(row) != n:
                raise ValueError("matrix must be square")
        _init(self, frozen, _has_multiterm(x for row in frozen for x in row))

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by setting slots
        return SquareMatrix, (self._rows,)

    @property
    def n(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int):
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def with_entry(self, i: int, j: int, value) -> "SquareMatrix":
        """Copy of the matrix with one entry replaced (handy for mutation tests)."""
        rows = [list(row) for row in self._rows]
        rows[i][j] = value
        return SquareMatrix(rows)

    def pretty(self, names=None) -> str:
        """Text dump: one row per line, tab-separated canonical scalars."""
        return "\n".join(
            "\t".join(scalar_str(entry, names) for entry in row) for row in self._rows
        )

    def __repr__(self) -> str:
        return f"SquareMatrix({self.n}x{self.n})"


def _init(m: SquareMatrix, rows: tuple[tuple, ...], multiterm: bool) -> None:
    object.__setattr__(m, "_rows", rows)
    object.__setattr__(m, "_multiterm", multiterm)


def _square(rows: list[list], values: Iterable) -> SquareMatrix:
    """Trusted constructor: square ``rows`` whose entries are ints or ``values`` up to sign."""
    m = object.__new__(SquareMatrix)
    _init(m, tuple(map(tuple, rows)), _has_multiterm(values))
    return m


def _has_multiterm(values: Iterable) -> bool:
    """Whether some value is a polynomial, or the bound of one, of two or more terms."""
    return any(type(x) is MultiPoly and len(x._terms) > 1 or type(x) is _Bound and x.terms > 1
               for x in values)


def build_C(coeffs: Sequence, n: int) -> SquareMatrix:
    """Banded matrix whose determinant solves the order-r recurrence.

    With 1-based indices: the t-th band above and on the diagonal carries
    ``(-1)**(t+1) * c_t`` (so ``c1, -c2, c3, ...``), the subdiagonal is all
    ones, and everything else is zero.  Bands truncate at the matrix
    boundary, which keeps the determinant equal to the recurrence value even
    when ``n < r``.  Each coefficient is signed once and shared by the cells
    of its band.
    """
    r = len(coeffs)
    if r < 1:
        raise ValueError("need at least one coefficient")
    if n < 1:
        raise ValueError("matrix size must be positive")
    band = [c if t % 2 else -c for t, c in enumerate(coeffs[:n], start=1)]
    rows = []
    for i in range(n):
        row = [0] * n
        if i:
            row[i - 1] = 1
        row[i:i + r] = band[:n - i]
        rows.append(row)
    return _square(rows, band)


def build_G(n: int, r: int) -> SquareMatrix:
    """Unit-coefficient band matrix; its determinant is the r-acci number."""
    if r < 1:
        raise ValueError("band width must be positive")
    return build_C([1] * min(r, max(n, 1)), n)  # an n x n matrix reads n at most


def build_F(n: int) -> SquareMatrix:
    """Tridiagonal matrix (diag 1, super -1, sub 1) with Fibonacci determinant."""
    return build_G(n, 2)


def build_S(a, b, n: int) -> SquareMatrix:
    """Two-variable circulant-like matrix with determinant ``2*(a^n + b^n)``.

    Diagonal ``a+b``; superdiagonal ``a`` and subdiagonal ``b`` except that
    the (1,2) and (2,1) entries carry the extra sign ``(-1)**(n+1)``;
    corners ``S[1][n] = b`` and ``S[n][1] = a``.  Defined for ``n >= 3``.
    """
    if n < 3:
        raise DimensionTooSmall(f"matrix S needs n >= 3, got {n}")
    neg = n % 2 == 0
    rows = [[0] * n for _ in range(n)]
    diagonal = a + b
    for i in range(n):
        rows[i][i] = diagonal
    rows[0][1] = -a if neg else a
    rows[1][0] = -b if neg else b
    for i in range(1, n - 1):
        rows[i][i + 1] = a
        rows[i + 1][i] = b
    rows[0][n - 1] = b
    rows[n - 1][0] = a
    return _square(rows, (diagonal, a, b))


def build_A(n: int) -> SquareMatrix:
    """Golden-ratio instance of ``build_S``: half its determinant is a Lucas number."""
    if n < 3:
        raise DimensionTooSmall(f"matrix A needs n >= 3, got {n}")
    return build_S(PHI, PSI, n)


def _exact_div(num, den):
    """Exact scalar division used by the fraction-free elimination.

    Ints (and int subclasses) divide by ``divmod`` with the remainder
    checked; polynomials, with an int operand promoted, by ``exact_divide``;
    every other scalar here is a field element (``QuadExt``, ``Fraction``)
    or a packed polynomial (``poly._Packed``), where ``/`` is exact.  A
    polynomial quotient that does not exist raises ``ExactDivisionFailure``
    with ``NotDivisible``'s text.
    """
    if isinstance(num, int) and isinstance(den, int):
        q, rem = divmod(num, den)
        if rem:
            raise ExactDivisionFailure(f"{num} not divisible by {den}")
        return q
    try:
        if isinstance(num, MultiPoly) or isinstance(den, MultiPoly):
            return exact_divide(MultiPoly._coerce(num), MultiPoly._coerce(den))
        return num / den
    except NotDivisible as exc:
        raise ExactDivisionFailure(str(exc)) from exc


def _run_packed(route, m: SquareMatrix, price: _Price | None = None):
    """``route(rows)`` on the rows of ``m``: the determinant, by one packing when it pays.

    When ``m._multiterm``, the polynomial entries are packed once, in one
    packing with one bound for every route, two minors (``poly._pack_rows``):
    it covers a product of two minors, which Bareiss forms, and so the
    one-minor products of the cofactor and LSD routes.  The route's ring
    code runs on them, and only the determinant it returns is unpacked:
    no product or quotient inside builds a packing of its own.  Otherwise
    the route runs on the entries as they are, so ints, field elements and
    one-term polynomials pay nothing for it; a one-term product has no
    colliding terms for a packing to merge.  Nor does a matrix of size 1 or 2: each product its
    determinant takes is of two entries and feeds no other product, so a
    packing per product packs and unpacks no more than one for the matrix.

    Given a ``price``, the entries of ``m`` are its bounds (``caps._Bound``)
    and ints, and the route is priced: it runs on them, packed or not as
    it would run on polynomials of those term counts (``caps._Price.run``).
    """
    packs = m._multiterm and m.n >= 3
    if price is not None:
        return price.run(packs, route, m._rows)
    if not packs:
        return route(m._rows)
    det = route(_pack_rows(m._rows))
    return det.unpack() if type(det) is _Packed else det


def price_C(n: int, r: int) -> _Bound:
    """The priced ``det_bareiss(build_C(c, n))`` of symbolic ``c_1..c_r``: its terms' bound.

    The elimination runs on the bounds of ``caps.symbolic_bounds`` as on
    the polynomials, and raises ``TooLarge`` once its work passes
    ``caps.MAX_WORK``.
    """
    coeffs = symbolic_bounds("det: elimination", n, r, 2 * n)
    return _run_packed(_bareiss, build_C(coeffs, n), coeffs[0].price)


def price_S(n: int) -> _Bound:
    """The priced ``det_bareiss(build_S(a, b, n))`` of variables ``a`` and ``b``, as ``price_C``."""
    price = _Price("det: elimination", (1, 1), 2 * n)
    return _run_packed(_bareiss, build_S(price.entry(1, 1), price.entry(1, 1), n), price)


def det_cofactor(m: SquareMatrix):
    """Exact determinant by first-row cofactor expansion (reference oracle).

    Every minor the expansion reaches takes the last ``k`` rows, so it is
    fixed by its ``k`` columns.  Minors are memoised on their column bitmask
    for the length of one call: each distinct one is expanded once, which
    makes a dense ``n x n`` matrix cost fewer than ``n * 2**(n-1)`` ring
    products instead of about ``(e-1) * n!``.  Terms are still summed over
    the columns of the minor's first row, left to right, with alternating
    signs, skipping each term whose entry or minor is zero, and a 1x1 matrix
    returns its entry itself.  Every product is an entry times a minor of
    the rows below it, one minor's degree, so the packing's one bound, two
    minors, holds it.
    """
    if m.n > COFACTOR_MAX_N:
        raise TooLarge(f"cofactor expansion capped at n <= {COFACTOR_MAX_N}")
    return _run_packed(_cofactor, m)


def _cofactor(rows):
    n = len(rows)
    last = rows[n - 1]
    memo = {}

    def minor(cols: int):
        # the minor on the columns in ``cols`` and the last popcount(cols) rows
        if not cols & (cols - 1):  # one column: the entry itself
            return last[cols.bit_length() - 1]
        total = memo.get(cols)
        if total is not None:
            return total
        row = rows[n - cols.bit_count()]
        total = 0
        sign = 1
        rest = cols
        while rest:
            bit = rest & -rest
            rest ^= bit
            entry = row[bit.bit_length() - 1]
            if entry and (sub := minor(cols ^ bit)):  # a zero factor adds nothing
                term = entry * sub
                total = total + term if sign > 0 else total - term
            sign = -sign
        memo[cols] = total
        return total

    det = minor((1 << n) - 1)
    # minor calls itself, a reference cycle through its closure that would
    # hold every memoised minor until the next garbage collection
    del minor
    return det


def det_bareiss(m: SquareMatrix):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Works over any integral domain with exact division; a zero pivot
    triggers a row swap with a sign flip, and if no nonzero pivot exists the
    determinant is zero.  Raises ``ExactDivisionFailure`` only on an
    implementation bug: intermediate entries are minors of the input, so
    each pivot division is exact.

    The elimination is zero-aware.  Step ``k`` sets each entry of row
    ``i > k`` to ``(p_k*a[i][j] - a[i][k]*a[k][j]) / p_(k-1)``, ``p_k`` being
    step ``k``'s pivot, and computes only the products whose factors are
    nonzero; an entry with both products zero stays zero untouched.  A row
    with ``a[i][k] == 0`` would only be scaled by ``p_k / p_(k-1)``, and
    successive scalings telescope, so such a row is left as it is: a row
    last updated at step ``s - 1`` is scaled by ``p_(k-1) / p_(s-1)`` when
    it becomes the pivot row, and its next update divides by ``p_(s-1)``
    instead of ``p_(k-1)``, which absorbs the scalings it skipped.  A step
    then costs ring operations only for the rows with a nonzero entry in
    the pivot column and, in them, the columns where the row or the pivot
    row is nonzero.  Elimination keeps a band (without row swaps), so a
    matrix with ``w`` nonzero diagonals costs O(n*w^2) ring operations in
    all instead of O(n^3); ``S`` and ``A`` fill in only their last row.
    Every numerator is a difference of products of two minors, so the
    packing's one bound, two minors, holds it.
    """
    return _run_packed(_bareiss, m)


def _bareiss(rows):
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    # pivots[s] is the pivot of step s - 1 (pivots[0] = 1), and row i holds
    # its entries as of step since[i]: scaled by pivots[k] / pivots[since[i]]
    # they would be the entries of step k
    pivots = [1]
    since = [0] * n
    for k in range(n):
        # a zero last pivot is itself the determinant
        if not a[k][k] and k < n - 1:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    since[k], since[i] = since[i], since[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        s = since[k]
        if s != k:
            for j in range(k, n):
                if pivot_row[j]:
                    num = pivot_row[j] * pivots[k]
                    pivot_row[j] = num if s == 0 else _exact_div(num, pivots[s])
        pivot = pivot_row[k]
        if k == n - 1:
            return sign * pivot
        for i in range(k + 1, n):
            row = a[i]
            factor = row[k]
            if not factor:
                continue
            s = since[i]
            since[i] = k + 1
            for j in range(k + 1, n):
                x, y = row[j], pivot_row[j]
                if x:
                    num = pivot * x - factor * y if y else pivot * x
                elif y:
                    num = -(factor * y)
                else:
                    continue
                row[j] = num if s == 0 else _exact_div(num, pivots[s])
        pivots.append(pivot)
