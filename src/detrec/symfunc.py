"""Elementary, complete homogeneous and Schur symmetric polynomials.

The band matrix ``E(e_1..e_m)`` of elementary symmetric polynomials, whose
determinant is ``h_m``, is the dual Jacobi-Trudi matrix of the one-row
shape ``(m)``.  ``build_E`` is ``detmat.build_C`` of the signed
``e_1, -e_2, e_3, ...``: ``h_m`` satisfies the recurrence
``h_m = sum_t (-1)**(t-1) * e_t * h_(m-t)``.  Schur polynomials are
Jacobi-Trudi determinants of the same kind, of ``h_k`` or of ``e_k``,
expanded without division by ``detmat.det_cofactor``; ``schur`` picks the
cheaper matrix by a stated cost model.  The bialternant quotient
``a_(lam+delta) / a_delta`` of two alternating determinants stays as the
independent check route, ``bialternant``.

Variables are 0-indexed (``x0, x1, ...``); a partition is any weakly
decreasing sequence of non-negative integers.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, groupby
from math import comb
from typing import Iterator, Sequence

from .caps import COFACTOR_MAX_N, MAX_SCHUR_WORK, check_terms
from .detmat import SquareMatrix, _cofactor, build_C, det_cofactor
from .errors import TooLarge
from .poly import Monomial, MultiPoly, _from_terms, exact_divide


def elementary(k: int, n_vars: int) -> MultiPoly:
    """Elementary symmetric polynomial ``e_k(x0..x_{n_vars-1})``.

    ``e_0 = 1``; the zero polynomial when ``k > n_vars`` (no k-subset exists).
    Raises ``TooLarge`` before any work when its ``comb(n_vars, k)`` terms
    exceed ``caps.MAX_TERMS``, or their ``k`` factors each, in all,
    ``caps.MAX_FACTORS``.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if n_vars < 1:
        raise ValueError("need at least one variable")
    check_terms("e", n_vars, k, k)
    if k == 0:
        return MultiPoly.one()
    if k > n_vars:
        return MultiPoly.zero()
    # each monomial is canonical as built: variables ascending, exponents 1;
    # the subsets come in lexicographic order, so their monomials descend
    return _from_terms(dict.fromkeys((tuple((v, 1) for v in combo)
                                      for combo in combinations(range(n_vars), k)), 1))


def homogeneous(k: int, n_vars: int) -> MultiPoly:
    """Complete homogeneous symmetric polynomial ``h_k``: all degree-k monomials.

    ``h_0 = 1``.  Raises ``TooLarge`` before any work when its
    ``comb(k + n_vars - 1, k)`` terms exceed ``caps.MAX_TERMS``.  Each
    monomial is built from ``min(k, n_vars)`` choices, so its cost does not
    grow with the larger of the two: for ``k <= n_vars`` from the multiset
    of its ``k`` variables, otherwise from its ``n_vars`` exponents.  Both
    branches build the terms in descending graded-lex order, the printed one.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if n_vars < 1:
        raise ValueError("need at least one variable")
    check_terms("h", k + n_vars - 1, k)
    if k <= n_vars:
        # the multisets in lexicographic order hold ever fewer of the lower
        # variables, so their monomials descend
        monos = (tuple((v, len(tuple(run))) for v, run in groupby(combo))
                 for combo in combinations_with_replacement(range(n_vars), k))
    else:
        monos = _descending_monomials(k, 0, n_vars - 1)
    # each monomial is canonical as built: variables ascending, exponents positive
    return _from_terms(dict.fromkeys(monos, 1))


def _descending_monomials(k: int, v: int, last: int) -> Iterator[Monomial]:
    """The monomials of degree ``k`` in ``x_v..x_last``, in descending graded-lex order.

    ``x_v``'s exponent runs down from ``k``, each followed by the monomials
    of the rest of the degree in the variables after it.
    """
    if v == last:
        yield ((v, k),) if k else ()
        return
    for e in range(k, 0, -1):
        head = ((v, e),)
        for rest in _descending_monomials(k - e, v + 1, last):
            yield head + rest
    yield from _descending_monomials(k, v + 1, last)


def _check_partition(lam: Sequence[int], n_vars: int) -> tuple[int, ...]:
    """The parts as ints, each non-negative, weakly decreasing, at most ``n_vars`` of them."""
    parts = tuple(int(p) for p in lam)
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be non-negative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    if len(parts) > n_vars:
        raise ValueError("partition longer than the variable count")
    return parts


def alternant(lam: Sequence[int], n_vars: int) -> MultiPoly:
    """Alternating determinant ``det(x_j ** (lam_i + n_vars - 1 - i))``.

    The partition is padded with zeros to the variable count; the empty
    partition gives the Vandermonde determinant.  Expanded exactly by
    cofactor expansion over polynomial entries.
    """
    parts = _check_partition(lam, n_vars)
    parts += (0,) * (n_vars - len(parts))
    rows = []
    for i in range(n_vars):
        exp = parts[i] + (n_vars - 1 - i)
        rows.append([MultiPoly({((j, exp),): 1}) for j in range(n_vars)])
    return det_cofactor(SquareMatrix(rows))


def bialternant(lam: Sequence[int], n_vars: int) -> MultiPoly:
    """Schur polynomial as the exact alternant quotient ``a_(lam+delta) / a_delta``.

    The independent check route for ``schur``.  The division is always
    exact (alternating polynomials are divisible by the Vandermonde
    determinant); a ``NotDivisible`` escaping here is a bug.  Its cost
    follows the ``n_vars!`` terms of the divisor, and no cap holds it but
    cofactor expansion's ``n_vars <= COFACTOR_MAX_N``.
    """
    return exact_divide(alternant(lam, n_vars), alternant((), n_vars))


def schur(lam: Sequence[int], n_vars: int) -> MultiPoly:
    """Schur polynomial ``s_lam(x0..x_{n-1})`` by Jacobi-Trudi, with no division.

    ``s_lam`` is ``det(h_{lam_i - i + j})``, of size ``l(lam)``, the number
    of nonzero parts, and also ``det(e_{lam'_i - i + j})``, of size
    ``lam_1``, over the conjugate partition ``lam'`` (Macdonald I.3).  When
    ``lam`` has ``n`` nonzero parts, its ``lam_n`` full columns factor out
    first as the monomial ``(x0*...*x_{n-1})**lam_n``.  The cheaper matrix
    of size at most ``COFACTOR_MAX_N`` is expanded by ``det_cofactor``,
    each distinct ``h_k`` or ``e_k`` built once.

    Cost model: ``h_k`` has ``comb(k + n - 1, n - 1)`` terms and ``e_k``
    ``comb(n, k)``.  The expansion multiplies each nonzero entry of a
    minor's first row by the minor on the other columns, once per distinct
    minor it reaches, and a product costs its factors' term counts
    multiplied.  A minor has at most as many terms as the products summed
    into it, and at most ``comb(d + n - 1, n - 1)``, the monomials of its
    degree ``d``.  A matrix's work is its products' costs summed, plus the
    terms of each distinct entry it builds.  The model is the expansion
    itself, ``detmat._cofactor``, run over these term counts (``_Bound``),
    so it reaches the same minors and skips the same zeros.

    Raises ``TooLarge`` before any work when the result's size bound
    ``comb(|lam| + n - 1, n - 1)``, the monomials of degree ``|lam|``,
    exceeds ``caps.MAX_TERMS``, or when the chosen matrix's work exceeds
    ``caps.MAX_SCHUR_WORK``.  Under the size bound ``min(l(lam), lam_1)``
    is at most 5, so one of the two matrices always fits.
    """
    if n_vars < 1:
        raise ValueError("need at least one variable")
    parts = _check_partition(lam, n_vars)
    check_terms("schur", sum(parts) + n_vars - 1, n_vars - 1)
    full = parts[-1] if len(parts) == n_vars else 0
    parts = tuple(p - full for p in parts if p > full)
    value = _jacobi_trudi(parts, n_vars) if parts else MultiPoly.one()
    if full:
        value = value * MultiPoly({tuple((v, full) for v in range(n_vars)): 1})
    return value


def _jacobi_trudi(parts: tuple[int, ...], n_vars: int) -> MultiPoly:
    """``s_parts`` by the cheaper of its two Jacobi-Trudi matrices (see ``schur``)."""
    candidates = [(parts, _h_terms, homogeneous)]
    if parts[0] <= COFACTOR_MAX_N:
        conjugate = tuple(sum(p > j for p in parts) for j in range(parts[0]))
        candidates.append((conjugate, _e_terms, elementary))
    work, shape, build = min(((_expansion_work(shape, n_vars, terms), shape, build)
                              for shape, terms, build in candidates
                              if len(shape) <= COFACTOR_MAX_N), key=lambda c: c[0])
    if work > MAX_SCHUR_WORK:
        raise TooLarge(f"schur: Jacobi-Trudi work {work} exceeds {MAX_SCHUR_WORK}")
    return det_cofactor(SquareMatrix(_jacobi_trudi_rows(shape, lambda k: build(k, n_vars))))


def _jacobi_trudi_rows(shape: tuple[int, ...], entry) -> list[list]:
    """The rows of ``det(f_{shape_i - i + j})``, ``entry(k)`` being ``f_k``.

    ``entry`` is asked once for each distinct ``k >= 0`` in the matrix; an
    entry of negative index is 0.
    """
    size = len(shape)
    offsets = [p - i for i, p in enumerate(shape)]  # entry (i, j) is f_(offsets[i] + j)
    built = {k: entry(k) for k in {o + j for o in offsets for j in range(size)} if k >= 0}
    return [[built.get(o + j, 0) for j in range(size)] for o in offsets]


def _h_terms(k: int, n_vars: int) -> int:
    return comb(k + n_vars - 1, n_vars - 1) if k >= 0 else 0


def _e_terms(k: int, n_vars: int) -> int:
    return comb(n_vars, k) if k >= 0 else 0


class _Bound:
    """A nonzero bound on the terms of a Jacobi-Trudi entry or minor: ``schur``'s cost model.

    ``work`` is a one-item list that the bounds of one matrix share.  A
    product ``entry * minor`` costs, and adds to it, the entry's count times
    the minor's, which is capped first at ``comb(degree + n_vars - 1,
    n_vars - 1)``, the monomials of the minor's degree, computed for each
    product: a per-call table of those caps measured no faster.  A sum or
    difference adds counts; the int 0 is the empty sum.
    """

    __slots__ = ("count", "degree", "n_vars", "work")

    def __init__(self, count: int, degree: int, n_vars: int, work: list[int]):
        self.count, self.degree, self.n_vars, self.work = count, degree, n_vars, work

    def __mul__(self, minor: "_Bound") -> "_Bound":
        n_vars = self.n_vars
        count = self.count * min(minor.count, comb(minor.degree + n_vars - 1, n_vars - 1))
        self.work[0] += count
        return _Bound(count, self.degree + minor.degree, n_vars, self.work)

    def __add__(self, other: "_Bound") -> "_Bound":
        return _Bound(self.count + other.count, self.degree, self.n_vars, self.work)

    def __radd__(self, zero: int) -> "_Bound":
        return self

    __sub__, __rsub__ = __add__, __radd__


def _expansion_work(shape: tuple[int, ...], n_vars: int, terms) -> int:
    """Modelled work of ``det_cofactor`` on ``det(f_{shape_i - i + j})`` (see ``schur``).

    ``terms(k, n_vars)`` is the term count of ``f_k``.  The expansion's own
    recursion, ``detmat._cofactor``, runs on the ``_Bound`` of each entry,
    which tallies its products' costs.
    """
    work = [0]

    def bound(k: int):
        # building an entry costs its terms; an entry of no term is 0
        count = terms(k, n_vars)
        work[0] += count
        return count and _Bound(count, k, n_vars, work)
    _cofactor(_jacobi_trudi_rows(shape, bound))
    return work[0]


def build_E(m: int, n_vars: int) -> SquareMatrix:
    """Band matrix of elementary symmetric polynomials with ``det = h_m``.

    1-based picture: entry ``(i, j)`` is ``e_{j-i+1}`` on and above the
    diagonal, 1 on the subdiagonal, 0 below: ``build_C`` of the signed
    ``e_1, -e_2, e_3, ...``, whose signs ``build_C`` undoes.  Since
    ``e_t = 0`` for ``t > n_vars``, the coefficients stop at
    ``e_(min(m, n_vars))`` and the band past them is 0, the truncated
    matrix ``E(e_1..e_k, 0..0)``.
    """
    if m < 1:
        raise ValueError("matrix size must be positive")
    k = min(m, max(n_vars, 1))  # at least e_1, whose check rejects n_vars < 1
    return build_C(signed_elementary(k, n_vars), m)


def signed_elementary(k: int, n_vars: int) -> list[MultiPoly]:
    """``e_1, -e_2, e_3, ..., (-1)**(k-1) * e_k``: the recurrence coefficients of ``h``.

    The band of ``build_E``, the tile weights of ``combi.pie_linear_sum`` and
    the cycle weights of Sury's expansion.
    """
    return [(-1) ** (t - 1) * elementary(t, n_vars) for t in range(1, k + 1)]
