"""Differential checks of ``homogeneous`` and ``schur`` against sympy.

``homogeneous`` builds its monomials directly and ``schur`` expands a
Jacobi-Trudi determinant by ``det_cofactor`` over ``MultiPoly``, so a bug
in either, or in the polynomial core they share, could pass every route
built on them alike.  Here sympy's sparse polynomial ring (``ring()``) is
the independent oracle: ``h_k`` is the degree-``k`` part of the product of
the truncated geometric series ``1 + x_i + ... + x_i**k``, and ``s_lam``
the Leibniz expansion of ``det(h_{lam_i - i + j})`` over those ``h_k``.
"""

from itertools import permutations

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from detrec.poly import MultiPoly  # noqa: E402
from detrec.symfunc import homogeneous, schur  # noqa: E402


def dense(p: MultiPoly, n_vars: int) -> dict:
    """The term map of ``p`` keyed by full exponent vectors, as sympy keys it."""
    out = {}
    for mono, coef in p.terms.items():
        exps = [0] * n_vars
        for v, e in mono:
            exps[v] = e
        out[tuple(exps)] = coef
    return out


def oracle_h(n_vars: int, top: int) -> list:
    """``[h_0, ..., h_top]`` in ``n_vars`` variables, as sympy ring elements."""
    R, *gens = ring([f"x{i}" for i in range(n_vars)], ZZ)
    series = R.one
    for x in gens:
        series *= sum((x ** j for j in range(1, top + 1)), R.one)
        series = R({m: c for m, c in series.items() if sum(m) <= top})
    return [R({m: c for m, c in series.items() if sum(m) == k}) for k in range(top + 1)]


def oracle_schur(lam, n_vars: int) -> dict:
    size = len(lam)
    h = oracle_h(n_vars, lam[0] + size - 1 if lam else 0)
    R = h[0].ring
    total = R.zero  # the empty partition's 0x0 matrix has one, empty, permutation
    for perm in permutations(range(size)):
        term = R.one
        for i, j in enumerate(perm):
            k = lam[i] - i + j
            if k < 0:
                break
            term *= h[k]
        else:
            inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
            total += -term if inversions % 2 else term
    return dict(total.items())


def _partitions(total, max_parts, largest=None):
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        if max_parts:
            for rest in _partitions(total - part, max_parts - 1, part):
                yield (part,) + rest


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4, 5])
def test_homogeneous_matches_sympy(n_vars):
    for k, expected in enumerate(oracle_h(n_vars, 12)):
        assert dense(homogeneous(k, n_vars), n_vars) == dict(expected.items()), k


@pytest.mark.parametrize("k, n_vars", [(1, 30), (2, 30), (3, 12), (40, 3), (100, 2)])
def test_homogeneous_matches_sympy_at_the_extremes(k, n_vars):
    # few stars and many variables, and the other way round
    assert dense(homogeneous(k, n_vars), n_vars) == dict(oracle_h(n_vars, k)[k].items())


def test_homogeneous_in_one_variable_is_one_power():
    R, x = ring("x0", ZZ)
    assert dense(homogeneous(10**9, 1), 1) == dict((x ** 10**9).items())


def test_schur_matches_sympy():
    # every partition of weight <= 7 in <= 4 variables
    for n_vars in range(1, 5):
        for weight in range(8):
            for lam in _partitions(weight, n_vars):
                assert dense(schur(lam, n_vars), n_vars) == oracle_schur(lam, n_vars), \
                    (lam, n_vars)


@pytest.mark.parametrize("lam, n_vars", [
    ((3, 2, 1), 5), ((2, 2, 2), 6), ((4, 2), 6), ((1, 1, 1, 1), 6), ((5, 5), 3),
    ((9, 2), 3), ((3, 3, 1), 3),
])
def test_schur_matches_sympy_on_wider_shapes(lam, n_vars):
    # the e_k matrix (columns fewer than rows), many variables, and full
    # columns factored out
    assert dense(schur(lam, n_vars), n_vars) == oracle_schur(lam, n_vars)
