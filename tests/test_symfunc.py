"""Symmetric polynomial constructors and the band-matrix identity."""

from itertools import permutations
from math import comb, factorial

import pytest

from detrec.caps import MAX_SCHUR_WORK, MAX_TERMS, check_schur_work, check_terms
from detrec.detmat import SquareMatrix, det_bareiss
from detrec.errors import TooLarge
from detrec.poly import MultiPoly, QuadExt, substitute
from detrec.symfunc import alternant, build_E, elementary, homogeneous, schur

X0, X1, X2 = (MultiPoly.var(i) for i in range(3))


def test_elementary_base_cases():
    assert elementary(0, 3) == MultiPoly.one()
    assert elementary(2, 3) == X0 * X1 + X0 * X2 + X1 * X2
    assert elementary(4, 3) == MultiPoly.zero()


def test_homogeneous_base_cases():
    assert homogeneous(0, 5) == MultiPoly.one()
    assert homogeneous(2, 2) == X0 ** 2 + X0 * X1 + X1 ** 2


def test_term_cap_is_the_binomial():
    # every binomial near the cap, from both sides; and k beyond n (no terms)
    for n in range(1, 120):
        for k in range(n + 2):
            if comb(n, k) > MAX_TERMS:
                with pytest.raises(TooLarge):
                    check_terms("h", n, k)
            else:
                check_terms("h", n, k)
    with pytest.raises(TooLarge):
        homogeneous(10, 11)
    with pytest.raises(TooLarge):
        elementary(20, 40)


def test_homogeneous_term_count():
    # degree-3 monomials in 3 vars: multisets of size 3 from 3 symbols
    h = homogeneous(3, 3)
    assert len(h.terms) == 10
    assert all(c == 1 for c in h.terms.values())


def test_alternant_small_cases():
    assert alternant((), 2) == X0 - X1
    assert alternant((0, 0), 2) == X0 - X1
    assert alternant((1, 0), 2) == X0 ** 2 - X1 ** 2


def test_alternant_vandermonde_three_vars():
    expected = (X0 - X1) * (X0 - X2) * (X1 - X2)
    assert alternant((0, 0, 0), 3) == expected


def test_alternant_is_alternating_under_variable_swap():
    a = alternant((2, 1, 0), 3)
    base = {0: QuadExt(2), 1: QuadExt(3), 2: QuadExt(7)}
    swapped = {0: QuadExt(3), 1: QuadExt(2), 2: QuadExt(7)}
    assert substitute(a, swapped) == -substitute(a, base)


def test_schur_small_cases():
    assert schur((1, 0), 2) == X0 + X1
    assert schur((1, 1), 2) == X0 * X1
    assert schur((1, 1), 2) == elementary(2, 2)


def test_schur_one_row_is_homogeneous():
    for n in range(1, 6):
        for n_vars in (2, 3):
            assert schur((n,), n_vars) == homogeneous(n, n_vars)


def test_schur_never_fails_at_small_weight():
    # every partition of weight <= 5 with at most 3 parts
    partitions = set()
    for a in range(6):
        for b in range(a + 1):
            for c in range(b + 1):
                if a + b + c <= 5:
                    partitions.add((a, b, c))
    for lam in sorted(partitions):
        schur(lam, 3)  # must not raise NotDivisible


def test_schur_work_bound_matches_its_formula():
    for weight in range(40):
        for n_vars in range(1, 11):
            if comb(weight + n_vars - 1, n_vars - 1) * factorial(n_vars) > MAX_SCHUR_WORK:
                with pytest.raises(TooLarge):
                    check_schur_work(weight, n_vars)
            else:
                check_schur_work(weight, n_vars)
    with pytest.raises(TooLarge):
        check_schur_work(10**9, 10**9)  # refused without computing either factor


@pytest.mark.parametrize("lam, n_vars", [
    ((3, 2, 1), 8),       # bound 69,189,120
    ((5, 3, 2, 1), 7),    # bound 62,375,040
    ((9, 5, 3), 8),       # bound 13,955,112,960
    ((3, 2, 1), 7),       # bound 4,656,960
])
def test_schur_refuses_large_work_before_any(lam, n_vars):
    with pytest.raises(TooLarge):
        schur(lam, n_vars)


def test_schur_checks_the_partition_before_the_cap():
    with pytest.raises(ValueError, match="weakly decreasing") as exc:
        schur((1, 2), 20)
    assert not isinstance(exc.value, TooLarge)


def test_partition_validation():
    with pytest.raises(ValueError):
        alternant((1, 2), 2)  # not weakly decreasing
    with pytest.raises(ValueError):
        alternant((1, -1), 2)
    with pytest.raises(ValueError):
        alternant((1, 1, 1), 2)  # longer than the variable count


def test_build_E_shape():
    m = build_E(2, 2)
    assert m[0][0] == elementary(1, 2)
    assert m[0][1] == elementary(2, 2)
    assert m[1][0] == 1
    assert m[1][1] == elementary(1, 2)
    assert build_E(1, 3)[0][0] == elementary(1, 3)


def test_build_E_band_truncates_with_few_variables():
    m = build_E(4, 2)
    assert m[0][2] == MultiPoly.zero()  # e_3 over 2 vars
    assert m[2][1] == 1
    assert m[3][1] == 0


def test_build_E_is_the_band_of_elementary_polynomials():
    # entry (i, j) is e_{j-i+1} on and above the diagonal, 1 just below it
    for m in range(1, 9):
        for n_vars in range(1, 6):
            cells = [[elementary(j - i + 1, n_vars) if j >= i else int(i == j + 1)
                      for j in range(m)] for i in range(m)]
            matrix = build_E(m, n_vars)
            assert list(map(list, matrix)) == cells, (m, n_vars)
            assert matrix.pretty() == SquareMatrix(cells).pretty()
    with pytest.raises(ValueError, match="matrix size must be positive"):
        build_E(0, 3)
    with pytest.raises(ValueError, match="need at least one variable"):
        build_E(3, 0)


def test_det_E_2_2():
    e1, e2 = elementary(1, 2), elementary(2, 2)
    assert det_bareiss(build_E(2, 2)) == e1 ** 2 - e2
    assert det_bareiss(build_E(2, 2)) == homogeneous(2, 2)


def test_det_E_equals_homogeneous_full_grid():
    for m in range(1, 7):
        for n_vars in range(1, 5):
            assert det_bareiss(build_E(m, n_vars)) == homogeneous(m, n_vars), (m, n_vars)


def test_newton_style_alternating_sum():
    for n_vars in range(1, 5):
        for m in range(1, 7):
            acc = MultiPoly.zero()
            for i in range(m + 1):
                term = elementary(i, n_vars) * homogeneous(m - i, n_vars)
                acc = acc + (term if i % 2 == 0 else -term)
            assert acc == MultiPoly.zero(), (m, n_vars)


def test_homogeneous_is_symmetric():
    h = homogeneous(3, 3)
    pts = [QuadExt(2), QuadExt(3), QuadExt(5)]
    values = {substitute(h, dict(enumerate(perm))) for perm in permutations(pts)}
    assert len(values) == 1
