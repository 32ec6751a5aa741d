"""Elementary, complete homogeneous and Schur symmetric polynomials.

Schur polynomials are computed as the bialternant ratio of two alternating
determinants, so the classical identity ``det(E(e_1..e_m)) = h_m`` relating
the band matrix of elementary symmetric polynomials to the complete
homogeneous one stays an independently testable fact rather than a
definition.  That band matrix, ``build_E``, is ``detmat.build_C`` of the
signed ``e_1, -e_2, e_3, ...``: ``h_m`` satisfies the recurrence
``h_m = sum_t (-1)**(t-1) * e_t * h_(m-t)``.

Variables are 0-indexed (``x0, x1, ...``); a partition is any weakly
decreasing sequence of non-negative integers.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .caps import check_schur_work, check_terms
from .detmat import SquareMatrix, build_C, det_cofactor
from .poly import MultiPoly, exact_divide


def elementary(k: int, n_vars: int) -> MultiPoly:
    """Elementary symmetric polynomial ``e_k(x0..x_{n_vars-1})``.

    ``e_0 = 1``; the zero polynomial when ``k > n_vars`` (no k-subset exists).
    Raises ``TooLarge`` before any work when its ``comb(n_vars, k)`` terms
    exceed ``caps.MAX_TERMS``.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if n_vars < 1:
        raise ValueError("need at least one variable")
    check_terms("e", n_vars, k)
    if k == 0:
        return MultiPoly.one()
    if k > n_vars:
        return MultiPoly.zero()
    terms = {}
    for combo in combinations(range(n_vars), k):
        terms[tuple((v, 1) for v in combo)] = 1
    return MultiPoly(terms)


def homogeneous(k: int, n_vars: int) -> MultiPoly:
    """Complete homogeneous symmetric polynomial ``h_k``: all degree-k monomials.

    ``h_0 = 1``.  Raises ``TooLarge`` before any work when its
    ``comb(k + n_vars - 1, k)`` terms exceed ``caps.MAX_TERMS``.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    if n_vars < 1:
        raise ValueError("need at least one variable")
    check_terms("h", k + n_vars - 1, k)
    if k == 0:
        return MultiPoly.one()
    terms = {}
    for combo in combinations_with_replacement(range(n_vars), k):
        exps: dict[int, int] = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        terms[tuple(sorted(exps.items()))] = 1
    return MultiPoly(terms)


def _check_partition(lam: Sequence[int], n_vars: int) -> tuple[int, ...]:
    parts = tuple(int(p) for p in lam)
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be non-negative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    if len(parts) > n_vars:
        raise ValueError("partition longer than the variable count")
    # pad with zeros so the alternant matrix is n_vars by n_vars
    return parts + (0,) * (n_vars - len(parts))


def alternant(lam: Sequence[int], n_vars: int) -> MultiPoly:
    """Alternating determinant ``det(x_j ** (lam_i + n_vars - 1 - i))``.

    The partition is padded with zeros to the variable count; the empty
    partition gives the Vandermonde determinant.  Expanded exactly by
    cofactor expansion over polynomial entries.
    """
    parts = _check_partition(lam, n_vars)
    rows = []
    for i in range(n_vars):
        exp = parts[i] + (n_vars - 1 - i)
        row = []
        for j in range(n_vars):
            if exp == 0:
                row.append(MultiPoly.one())
            else:
                row.append(MultiPoly({((j, exp),): 1}))
        rows.append(row)
    return det_cofactor(SquareMatrix(rows))


def schur(lam: Sequence[int], n_vars: int) -> MultiPoly:
    """Schur polynomial as the exact alternant quotient.

    The division is always exact (alternating polynomials are divisible by
    the Vandermonde determinant); a ``NotDivisible`` escaping here is a bug.
    Raises ``TooLarge`` before any work when the division work bound of
    ``caps.check_schur_work`` exceeds ``caps.MAX_SCHUR_WORK``.
    """
    parts = _check_partition(lam, n_vars)
    check_schur_work(sum(parts), n_vars)
    return exact_divide(alternant(parts, n_vars), alternant((), n_vars))


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
    return build_C([(-1) ** (t - 1) * elementary(t, n_vars) for t in range(1, k + 1)], m)
