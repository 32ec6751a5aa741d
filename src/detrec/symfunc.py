"""Elementary, complete homogeneous and Schur symmetric polynomials.

The band matrix ``E(e_1..e_m)`` of elementary symmetric polynomials, whose
determinant is ``h_m``, is the dual Jacobi-Trudi matrix of the one-row
shape ``(m)``.  ``build_E`` is ``detmat.build_C`` of the signed
``e_1, -e_2, e_3, ...``: ``h_m`` satisfies the recurrence
``h_m = sum_t (-1)**(t-1) * e_t * h_(m-t)``.  Schur polynomials are
Jacobi-Trudi determinants of the same kind, of ``h_k`` or of ``e_k``,
expanded without division by ``detmat.det_cofactor``; ``schur`` picks the
cheaper matrix by running the expansion over the term counts of its
entries (``caps._Bound``), and ``price_E`` prices ``det(E)`` by running
Bareiss elimination over them.  The bialternant quotient
``a_(lam+delta) / a_delta`` of two alternating determinants stays as the
independent check route, ``bialternant``.

Variables are 0-indexed (``x0, x1, ...``); a partition is any weakly
decreasing sequence of non-negative integers.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, groupby
from math import comb
from typing import Iterator, Sequence

from .caps import COFACTOR_MAX_N, _Price, check_terms
from .detmat import SquareMatrix, _bareiss, _cofactor, _run_packed, _square, build_C, det_cofactor
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
    # each monomial is canonical as built: variables ascending, exponents 1;
    # the subsets come in lexicographic order, so their monomials descend;
    # e_0 is the one empty subset's monomial, and a k > n_vars has none
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
    rows = [[MultiPoly({((j, p + n_vars - 1 - i),): 1}) for j in range(n_vars)]
            for i, p in enumerate(parts)]
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

    Cost model: the expansion itself, ``detmat._cofactor``, runs over the
    bounds (``caps._Bound``) of its entries, as ``det_cofactor`` would run
    it, packed or not, so it reaches the same minors and skips the same
    zeros.  ``h_k`` has ``comb(k + n - 1, n - 1)`` terms, the monomials of
    degree ``k``, and ``e_k`` ``comb(n, k)``; building each distinct entry
    costs its terms' factors, and each ring operation the term work of its
    loop (see ``caps._Bound``).  ``schur_price`` gives that price.

    Raises ``TooLarge`` before any work when the result's size bound
    ``comb(|lam| + n - 1, n - 1)``, the monomials of degree ``|lam|``,
    exceeds ``caps.MAX_TERMS``, or when the chosen matrix's price exceeds
    ``caps.MAX_WORK``.  Under the size bound ``min(l(lam), lam_1)`` is at
    most 5, so one of the two matrices always fits.
    """
    parts, full = _stripped(lam, n_vars)
    value = _jacobi_trudi(parts, n_vars) if parts else MultiPoly.one()
    return value * MultiPoly({tuple((v, full) for v in range(n_vars)): 1}) if full else value


def schur_price(lam: Sequence[int], n_vars: int):
    """The priced expansion of ``schur(lam, n_vars)``: the bound of its terms.

    The bound (``caps._Bound``) of the cheaper Jacobi-Trudi determinant,
    whose terms are those of ``s_lam``, or the int 1 when no matrix is
    left once the full columns factor out; raises as ``schur`` does.
    """
    parts = _stripped(lam, n_vars)[0]
    return _cheaper_matrix(parts, n_vars)[0] if parts else 1


def _stripped(lam: Sequence[int], n_vars: int) -> tuple[tuple[int, ...], int]:
    """``lam``'s parts once its full columns factor out, and their height (see ``schur``)."""
    if n_vars < 1:
        raise ValueError("need at least one variable")
    parts = _check_partition(lam, n_vars)
    check_terms("schur", sum(parts) + n_vars - 1, n_vars - 1)
    full = parts[-1] if len(parts) == n_vars else 0
    return tuple(p - full for p in parts if p > full), full


def _jacobi_trudi(parts: tuple[int, ...], n_vars: int) -> MultiPoly:
    """``s_parts`` by the cheaper of its two Jacobi-Trudi matrices (see ``schur``)."""
    _, shape, build = _cheaper_matrix(parts, n_vars)
    return det_cofactor(_jacobi_trudi_matrix(shape, lambda k: build(k, n_vars)))


def _cheaper_matrix(parts: tuple[int, ...], n_vars: int):
    """The priced Jacobi-Trudi matrix of ``s_parts`` that costs less: its bound, shape and builder.

    Each matrix of size at most ``COFACTOR_MAX_N`` is priced by
    ``detmat._cofactor`` run over bounds of its entries (``caps._Bound``):
    ``h_k`` has the ``comb(k + n - 1, n - 1)`` monomials of degree ``k``
    and ``e_k`` ``comb(n, k)`` terms, and building each distinct entry
    costs its terms' factors.  Both run whole on one price, whose table of
    monomials they share, since an expansion is at most
    ``2**COFACTOR_MAX_N`` minors; the price keeps the cheaper one's work,
    and raises ``TooLarge`` when that passes ``caps.MAX_WORK``.
    """
    conjugate = tuple(sum(p > j for p in parts) for j in range(min(parts[0], COFACTOR_MAX_N + 1)))
    price = _Price("schur: Jacobi-Trudi", [1] * n_vars, sum(parts), held=False)
    priced = []
    for shape, build, terms in ((parts, homogeneous, None), (conjugate, elementary, comb)):
        if len(shape) <= COFACTOR_MAX_N:
            start = price.work
            entry = lambda k: price.entry(terms(n_vars, k) if terms else price.monomials[k], k)
            bound = _run_packed(_cofactor, _jacobi_trudi_matrix(shape, entry), price)
            priced.append((price.work - start, bound, shape, build))
    price.work, bound, shape, build = min(priced, key=lambda c: c[0])
    price.held = True
    price.charge(0)
    return bound, shape, build


def _jacobi_trudi_matrix(shape: tuple[int, ...], entry) -> SquareMatrix:
    """The matrix ``det(f_{shape_i - i + j})``, ``entry(k)`` being ``f_k``.

    ``entry`` is asked once for each distinct ``k >= 0`` in the matrix; an
    entry of negative index is 0.
    """
    size = len(shape)
    offsets = [p - i for i, p in enumerate(shape)]  # entry (i, j) is f_(offsets[i] + j)
    built = {k: entry(k) for k in {o + j for o in offsets for j in range(size)} if k >= 0}
    return _square([[built.get(o + j, 0) for j in range(size)] for o in offsets], built.values())


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


def price_E(n: int, n_vars: int):
    """The priced ``det_bareiss(build_E(n, n_vars))``, which is ``h_n``: the bound of its terms.

    ``h_n`` is first held to ``caps.MAX_TERMS``; the elimination runs on
    bounds of ``e_t``, ``comb(n_vars, t)`` terms of degree ``t``, as
    ``detmat.price_C`` runs on those of ``c_t``, and raises ``TooLarge``
    once its work passes ``caps.MAX_WORK``.  Returns ``None`` for a size
    ``build_E`` rejects.
    """
    check_terms("det", n + n_vars - 1, n)
    if n < 1 or n_vars < 1:
        return None
    price = _Price("det: elimination", [1] * n_vars, 2 * n)
    band = [price.entry(comb(n_vars, t), t) for t in range(1, min(n, n_vars) + 1)]
    return _run_packed(_bareiss, build_C(band, n), price)


def signed_elementary(k: int, n_vars: int) -> list[MultiPoly]:
    """``e_1, -e_2, e_3, ..., (-1)**(k-1) * e_k``: the recurrence coefficients of ``h``.

    The band of ``build_E``, the tile weights of ``combi.pie_linear_sum`` and
    the cycle weights of Sury's expansion.
    """
    return [(-1) ** (t - 1) * elementary(t, n_vars) for t in range(1, k + 1)]
