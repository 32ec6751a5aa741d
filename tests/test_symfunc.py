"""Symmetric polynomial constructors and the band-matrix identity."""

import random
from itertools import permutations
from math import comb

import pytest

from detrec import poly, symfunc
from detrec.caps import COFACTOR_MAX_N, MAX_SCHUR_WORK, MAX_TERMS, check_terms
from detrec.detmat import SquareMatrix, det_bareiss
from detrec.errors import TooLarge
from detrec.poly import MultiPoly, QuadExt, substitute
from detrec.symfunc import alternant, bialternant, build_E, elementary, homogeneous, schur

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
    # schur builds s_(n) as h_n itself, so the quotient is the other side
    for n in range(1, 6):
        for n_vars in (2, 3):
            assert bialternant((n,), n_vars) == homogeneous(n, n_vars)


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


def _partitions(total, max_parts, largest=None):
    """Partitions of ``total`` into at most ``max_parts`` parts, descending."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        if max_parts:
            for rest in _partitions(total - part, max_parts - 1, part):
                yield (part,) + rest


SMALL_SHAPES = [(lam, n_vars) for n_vars in range(1, 5) for weight in range(8)
                for lam in _partitions(weight, n_vars)]


def test_schur_equals_the_bialternant_quotient():
    # every partition of weight <= 7 in <= 4 variables, and padded with zeros
    for lam, n_vars in SMALL_SHAPES:
        expected = bialternant(lam, n_vars)
        assert schur(lam, n_vars) == expected, (lam, n_vars)
        padded = lam + (0,) * (n_vars - len(lam))
        assert schur(padded, n_vars) == expected, (padded, n_vars)


def test_schur_times_the_vandermonde_is_the_alternant():
    # the bialternant identity with no division
    for lam, n_vars in SMALL_SHAPES:
        assert schur(lam, n_vars) * alternant((), n_vars) == alternant(lam, n_vars), (lam, n_vars)


def test_schur_on_larger_shapes():
    # the quotient that takes a fraction of a second exactly, then shapes
    # whose quotient takes seconds (s_(1,1) in 8 variables) or minutes, at
    # random points: s_lam(p) * a_delta(p) == a_(lam+delta)(p), with both
    # alternants integer determinants
    assert schur((4, 3, 2, 1), 6) == bialternant((4, 3, 2, 1), 6)
    rng = random.Random(8)
    for lam, n_vars in (((1, 1), 8), ((5, 3, 2, 1), 7), ((6, 5, 4, 3, 2, 1), 6),
                        ((3, 2, 1), 8)):
        s = schur(lam, n_vars)
        parts = lam + (0,) * (n_vars - len(lam))
        for _ in range(3):
            point = rng.sample(range(-20, 21), n_vars)
            value = sum(c * _monomial_at(mono, point) for mono, c in s.terms.items())
            alt = det_bareiss(SquareMatrix(
                [[x ** (parts[i] + n_vars - 1 - i) for x in point] for i in range(n_vars)]))
            vandermonde = det_bareiss(SquareMatrix(
                [[x ** (n_vars - 1 - i) for x in point] for i in range(n_vars)]))
            assert value * vandermonde == alt, (lam, n_vars, point)


def _monomial_at(mono, point):
    value = 1
    for v, e in mono:
        value *= point[v] ** e
    return value


def test_schur_size_bound_is_the_result_bound(monkeypatch):
    # refused exactly when the monomials of degree |lam| exceed MAX_TERMS,
    # for one row and one column alike; the determinant itself is stubbed
    monkeypatch.setattr(symfunc, "_jacobi_trudi", lambda parts, n_vars: MultiPoly.one())
    for weight in range(40):
        for n_vars in range(1, 12):
            shapes = [(weight,)] + ([(1,) * weight] if weight <= n_vars else [])
            for lam in shapes:
                if comb(weight + n_vars - 1, n_vars - 1) > MAX_TERMS:
                    with pytest.raises(TooLarge, match="more than 100000 terms"):
                        schur(lam, n_vars)
                else:
                    schur(lam, n_vars)


def _jacobi_trudi_work(lam, n_vars):
    """The modelled work of the matrix ``schur`` picks, by the module's own model."""
    conjugate = tuple(sum(p > j for p in lam) for j in range(lam[0]))
    return min(symfunc._expansion_work(shape, n_vars, terms)
               for shape, terms in ((lam, symfunc._h_terms), (conjugate, symfunc._e_terms))
               if len(shape) <= COFACTOR_MAX_N)


def test_schur_work_bound_matches_its_formula(monkeypatch):
    # s_(a,b) in 3 variables with a > 8 has only the 2x2 matrix of h_k
    # (lam_1 = a columns is too wide): its work is the two products
    # h_a*h_b and h_(a+1)*h_(b-1) plus the terms of the distinct entries
    monkeypatch.setattr(symfunc, "det_cofactor", lambda m: MultiPoly.one())
    monkeypatch.setattr(symfunc, "homogeneous", lambda k, n_vars: MultiPoly.one())

    def terms(k):
        return comb(k + 2, 2)
    for a in range(9, 100):
        for b in range(1, a + 1):
            work = (terms(a) * terms(b) + terms(a + 1) * terms(b - 1)
                    + sum(map(terms, {a, a + 1, b - 1, b})))
            if work > MAX_SCHUR_WORK:
                with pytest.raises(TooLarge, match="Jacobi-Trudi work"):
                    schur((a, b), 3)
            else:
                schur((a, b), 3)


def test_schur_work_model_bounds_the_products(monkeypatch):
    # the model never counts fewer monomial products than the expansion makes,
    # on unpacked entries or, for a matrix with a two-term entry, packed ones;
    # a product counts once, where it is asked for, not again in the packed
    # product that a multi-term MultiPoly product makes of it
    count = [0]
    counting = [False]
    multiply, multiply_packed = MultiPoly.__mul__, poly._Packed.__mul__
    det_cofactor = symfunc.det_cofactor

    def counted_as(multiply_as, element):
        def counted(self, other):
            if not counting[0]:
                return multiply_as(self, other)
            if type(other) is element:
                count[0] += len(self._terms) * len(other._terms)
            counting[0] = False
            try:
                return multiply_as(self, other)
            finally:
                counting[0] = True
        return counted

    def expand(matrix):
        counting[0] = True
        try:
            return det_cofactor(matrix)
        finally:
            counting[0] = False
    monkeypatch.setattr(MultiPoly, "__mul__", counted_as(multiply, MultiPoly))
    monkeypatch.setattr(poly._Packed, "__mul__", counted_as(multiply_packed, poly._Packed))
    monkeypatch.setattr(symfunc, "det_cofactor", expand)
    shapes = [(lam, n_vars) for lam, n_vars in SMALL_SHAPES if lam and len(lam) < n_vars]
    shapes += [((4, 3, 2, 1), 6), ((5, 3, 2, 1), 7), ((3, 2, 1), 8), ((9, 2), 3), ((6, 3, 1), 5)]
    total = 0
    for lam, n_vars in shapes:
        count[0] = 0
        schur(lam, n_vars)
        assert count[0] <= _jacobi_trudi_work(lam, n_vars), (lam, n_vars)
        total += count[0]
    assert total  # the spies saw the expansions' products


@pytest.mark.parametrize("lam, n_vars, work", [
    ((33, 2), 5, 1_499_630),
    ((6, 3, 2, 2), 8, 1_448_640),
    ((7, 5, 2, 2), 7, 1_485_321),
    ((5, 3, 2, 1), 7, 104_318),
])
def test_schur_work_figures_of_the_accepted_cases(lam, n_vars, work):
    # the figures caps.MAX_SCHUR_WORK quotes, under its bound
    assert _jacobi_trudi_work(lam, n_vars) == work <= MAX_SCHUR_WORK


@pytest.mark.parametrize("lam, n_vars, work", [((6, 4), 10, 5_277_957),
                                               ((9, 5, 3, 3, 3), 6, 133_997_761)])
def test_schur_work_figures_of_the_refused_cases(lam, n_vars, work):
    with pytest.raises(TooLarge) as refused:
        schur(lam, n_vars)
    assert str(refused.value) == f"schur: Jacobi-Trudi work {work} exceeds {MAX_SCHUR_WORK}"


@pytest.mark.parametrize("lam, n_vars", [
    ((9, 2, 2), 8),           # work 7,320,265
    ((10, 5, 3), 7),          # 134,596 terms
    ((9, 5, 3), 8),           # 346,104 terms
    ((8, 6, 1), 7),           # work 2,740,039 by the e_k matrix
    ((100000,), 2),           # 100,001 terms
    ((900,), 3),              # 406,351 terms
    ((1,), 100_000_000),      # 100,000,000 terms, never padded
    ((1,), 2_000_000_000),
    ((60, 60), 3),            # work 7,155,545
    ((7, 4), 9),              # work 4,591,487 by the e_k matrix
    ((16, 9, 6, 5), 5),
    ((9, 5, 3, 3, 3), 6),
])
def test_schur_refuses_large_work_before_any(monkeypatch, lam, n_vars):
    def unreachable(*args):
        raise AssertionError("work before the cap")
    for name in ("det_cofactor", "homogeneous", "elementary"):
        monkeypatch.setattr(symfunc, name, unreachable)
    with pytest.raises(TooLarge):
        schur(lam, n_vars)


def test_schur_needs_no_padding():
    assert schur((), 2_000_000_000) == MultiPoly.one()
    assert schur((3, 3), 2) == X0 ** 3 * X1 ** 3  # full columns factor out
    assert schur((3, 3, 1), 3) == X0 * X1 * X2 * schur((2, 2), 3)
    with pytest.raises(ValueError, match="need at least one variable"):
        schur((), 0)


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
