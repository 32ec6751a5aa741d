"""Structured matrix constructors and exact determinants."""

import copy
import gc
import pickle
import random
from fractions import Fraction

import pytest

from detrec import detmat, poly
from detrec.detmat import (
    SquareMatrix,
    build_A,
    build_C,
    build_F,
    build_G,
    build_S,
    det_bareiss,
    _exact_div,
    det_cofactor,
)
from detrec.digraph import det_via_lsd
from detrec.errors import DimensionTooSmall, ExactDivisionFailure, TooLarge
from detrec.poly import PHI, PSI, MultiPoly, QuadExt, _pack_rows, poly_str
from detrec.recurrence import eval_recurrence, fibonacci, lucas, racci
from detrec.symfunc import build_E, homogeneous

A, B = MultiPoly.var(0), MultiPoly.var(1)


def test_square_matrix_basics():
    m = SquareMatrix([[1, 2], [3, 4]])
    assert m.n == 2
    assert m[1][0] == 3
    assert m == SquareMatrix([[1, 2], [3, 4]])
    assert m.with_entry(0, 1, 9)[0][1] == 9
    assert m.pretty() == "1\t2\n3\t4"
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        SquareMatrix([])


def test_build_C_two_coefficients():
    c1, c2 = MultiPoly.var(0), MultiPoly.var(1)
    m = build_C([c1, c2], 2)
    assert m[0][0] == c1 and m[0][1] == -c2
    assert m[1][0] == 1 and m[1][1] == c1


def test_build_C_five_by_five_symbol_pin():
    # every entry of the r=3, n=5 instance, written out sign by sign
    c1, c2, c3 = (MultiPoly.var(i) for i in range(3))
    m = build_C([c1, c2, c3], 5)
    z = 0
    expected = [
        [c1, -c2, c3, z, z],
        [1, c1, -c2, c3, z],
        [z, 1, c1, -c2, c3],
        [z, z, 1, c1, -c2],
        [z, z, z, 1, c1],
    ]
    for i in range(5):
        for j in range(5):
            assert m[i][j] == expected[i][j], (i, j)


def test_build_C_band_truncates_when_n_below_r():
    c1, c2, c3 = (MultiPoly.var(i) for i in range(3))
    m = build_C([c1, c2, c3], 2)
    assert m[0][1] == -c2
    # determinant still matches the order-3 recurrence value
    assert det_bareiss(m) == eval_recurrence([c1, c2, c3], 2)


def test_build_C_single_coefficient_is_triangular():
    m = build_C([MultiPoly.var(0)], 3)
    assert det_bareiss(m) == MultiPoly.var(0) ** 3
    assert det_bareiss(build_C([7], 5)) == 7 ** 5


def test_det_C_matches_recurrence_iteration():
    c1, c2 = MultiPoly.var(0), MultiPoly.var(1)
    u4 = c1 ** 4 + 3 * c1 ** 2 * c2 + c2 ** 2
    assert det_bareiss(build_C([c1, c2], 4)) == u4
    assert det_bareiss(build_C([c1, c2], 2)) == c1 ** 2 + c2


def test_build_G_matches_F():
    assert build_G(4, 2) == build_F(4)
    assert det_bareiss(build_G(5, 3)) == 13
    assert det_bareiss(build_G(1, 4)) == 1


def test_det_G_is_racci():
    for r in range(1, 5):
        for n in range(1, 11):
            assert det_bareiss(build_G(n, r)) == racci(n, r)


def test_build_F_values():
    assert det_bareiss(build_F(1)) == 1
    assert det_bareiss(build_F(4)) == 5
    assert det_bareiss(build_F(10)) == 89
    for n in range(1, 13):
        assert det_bareiss(build_F(n)) == fibonacci(n)


def test_build_S_displayed_four_by_four():
    m = build_S(A, B, 4)
    z = 0
    expected = [
        [A + B, -A, z, B],
        [-B, A + B, A, z],
        [z, B, A + B, A],
        [A, z, B, A + B],
    ]
    for i in range(4):
        for j in range(4):
            assert m[i][j] == expected[i][j], (i, j)


def test_build_S_odd_size_has_positive_near_corner():
    m = build_S(A, B, 5)
    assert m[0][1] == A
    assert m[1][0] == B
    assert m[0][4] == B
    assert m[4][0] == A


def test_det_S_symbolic():
    assert det_bareiss(build_S(A, B, 4)) == 2 * (A ** 4 + B ** 4)
    assert poly_str(det_bareiss(build_S(A, B, 4)), ("a", "b")) == "2*a^4 + 2*b^4"
    for n in range(3, 9):
        assert det_bareiss(build_S(A, B, n)) == 2 * (A ** n + B ** n), n


def test_det_S_numeric():
    assert det_cofactor(build_S(1, 1, 3)) == 4
    assert det_bareiss(build_S(2, 3, 5)) == 2 * (2 ** 5 + 3 ** 5)


def test_build_S_rejects_small_n():
    # each family names itself
    with pytest.raises(DimensionTooSmall, match=r"^matrix S needs n >= 3, got 2$"):
        build_S(A, B, 2)
    with pytest.raises(DimensionTooSmall, match=r"^matrix A needs n >= 3, got 2$"):
        build_A(2)


def test_build_A_is_golden_ratio_instance():
    m = build_A(4)
    assert m[0][0] == QuadExt(1)
    assert m[0][1] == -PHI
    assert m[3][0] == PHI
    assert m[0][3] == PSI


def test_det_A_is_twice_lucas():
    for n in range(3, 13):
        det = det_bareiss(build_A(n))
        assert det.radical == 0, n
        assert det == QuadExt(2 * lucas(n)), n
    assert det_bareiss(build_A(4)) / 2 == QuadExt(7)
    assert det_bareiss(build_A(3)) / 2 == QuadExt(4)


def test_det_cofactor_small():
    assert det_cofactor(SquareMatrix([[5]])) == 5
    m = SquareMatrix([[MultiPoly.var(0), MultiPoly.var(1)],
                      [MultiPoly.var(2), MultiPoly.var(3)]])
    assert det_cofactor(m) == (MultiPoly.var(0) * MultiPoly.var(3)
                               - MultiPoly.var(1) * MultiPoly.var(2))
    assert det_cofactor(build_E(3, 3)) == homogeneous(3, 3)
    with pytest.raises(TooLarge):
        det_cofactor(build_F(9))


def test_det_cofactor_multiplies_no_zero_minor(counted_ints):
    # 102 of the 133 products the expansion of this banded C made had a zero
    # minor for a factor; skipping those terms leaves the value as it was
    Counted, count = counted_ints
    coeffs = [2, -1, 3]
    assert det_cofactor(build_C([Counted(c) for c in coeffs], 8)) == eval_recurrence(coeffs, 8)
    assert count[0] == 31
    symbolic = build_C([MultiPoly.var(i) for i in range(3)], 8)
    assert poly_str(det_cofactor(symbolic)) == poly_str(det_bareiss(symbolic))


def test_det_cofactor_leaves_no_garbage_cycle():
    # the recursive expansion's memo of minors is freed when the call
    # returns, not held in a reference cycle until a garbage collection
    gc.collect()
    gc.disable()
    try:
        for m in (build_E(6, 4), build_C([A, B, A * B], 8), build_G(8, 3)):
            det_cofactor(m)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_det_bareiss_matches_cofactor_randomized():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = SquareMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert det_bareiss(m) == det_cofactor(m)


def test_det_bareiss_singular_and_pivoting():
    repeated = SquareMatrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det_bareiss(repeated) == 0
    # zero leading pivot forces a row swap
    swap = SquareMatrix([[0, 1], [1, 0]])
    assert det_bareiss(swap) == -1
    zero_col = SquareMatrix([[0, 1], [0, 1]])
    assert det_bareiss(zero_col) == 0


def test_det_bareiss_fraction_scalars():
    m = SquareMatrix([[Fraction(1, 2), Fraction(1, 3)],
                      [Fraction(1, 5), Fraction(1, 7)]])
    assert det_bareiss(m) == Fraction(1, 14) - Fraction(1, 15)


def test_exact_div_rungs(counted_ints):
    Counted, _ = counted_ints
    assert _exact_div(-12, 4) == -3
    q = _exact_div(Counted(12), Counted(4))
    assert q == 3 and type(q) is Counted  # int subclasses divide by their divmod
    assert _exact_div(2 * A * B, 2) == A * B
    assert _exact_div(6, MultiPoly.const(3)) == 2
    assert _exact_div(PHI * PSI, PSI) == PHI
    assert _exact_div(Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)
    for num, den in ((7, 2), (Counted(7), Counted(2)), (A, B), (A + 1, 2)):
        with pytest.raises(ExactDivisionFailure):
            _exact_div(num, den)
    # packed polynomials of one packing divide by "/", with the same contract
    [[difference, total, a, doubled]] = _pack_rows([[A * A - B * B, A + B, A, 2 * A]])
    assert _exact_div(difference, total).unpack() == A - B
    assert _exact_div(doubled, 2).unpack() == A
    assert _exact_div(6, _exact_div(doubled, a)).unpack() == 3
    with pytest.raises(ExactDivisionFailure, match=r"^\(\(1, 1\),\) not divisible by \(\(0, 1\),\)$"):
        _exact_div(a, total)  # A = 1*(A + B) - B, and x0 does not divide x1
    with pytest.raises(ExactDivisionFailure, match="^coefficient 1 not divisible by 2$"):
        _exact_div(a, 2)


ROUTES = (det_bareiss, det_cofactor, det_via_lsd)


def test_routes_pack_a_polynomial_matrix_once(monkeypatch):
    # with a two-term entry, each route builds one packing for the whole
    # determinant and unpacks only the determinant's terms
    counts = {"packing": 0, "unpack": 0}

    class CountedPacking(poly._Packing):
        __slots__ = ()

        def __init__(self, monos, bound):
            counts["packing"] += 1
            super().__init__(monos, bound)

        def unpack(self, key):
            counts["unpack"] += 1
            return super().unpack(key)

    mixed = SquareMatrix([[0, A + 1, B], [A ** 3, 0, 2], [1, B - A, A * B]])  # swaps rows
    matrices = [build_E(6, 4), build_S(A, -2 * B, 8), build_E(3, 2), mixed]
    monkeypatch.setattr(poly, "_Packing", CountedPacking)
    for m in matrices:
        for route in ROUTES:
            counts.update(packing=0, unpack=0)
            det = route(m)
            assert counts == {"packing": 1, "unpack": len(det.terms)}, (m, route.__name__)


def test_routes_pack_nothing_without_a_two_term_entry(monkeypatch):
    # ints, field elements and one-term polynomials run as they are: no
    # packing of the matrix, and with a one-term factor in every product
    # the cofactor and LSD routes build no packing at all; nor is a matrix
    # of size 1 or 2 packed, whose products feed no other product
    packings = [0]
    packing = poly._Packing

    def counted_packing(*args):
        packings[0] += 1
        return packing(*args)

    def unreachable(*args):
        raise AssertionError("packed a matrix")
    one_term = [build_C([A, -2 * B, A * B], 6), SquareMatrix([[A ** 2, B ** 2], [A, B]])]
    plain = [build_G(8, 3), build_A(8), build_F(1), SquareMatrix([[Fraction(1, 2)]])]
    monkeypatch.setattr(detmat, "_pack_rows", unreachable)
    monkeypatch.setattr(poly, "_Packing", counted_packing)
    for m in plain + one_term + [SquareMatrix([[A + B]]), build_E(2, 3)]:
        assert not m._multiterm or m.n < 3
        assert det_bareiss(m) == det_cofactor(m) == det_via_lsd(m)
    packings[0] = 0
    for m in plain + one_term:
        det_cofactor(m)
        det_via_lsd(m)
    assert packings[0] == 0
    for m in plain:
        det_bareiss(m)
    assert packings[0] == 0


def test_matrices_are_immutable():
    m = build_F(3)
    with pytest.raises(TypeError):
        m[0][0] = 9
    with pytest.raises(AttributeError):
        m._rows = ()


def test_matrices_copy_and_pickle_through_the_constructor():
    # a round trip keeps the rows, the packing decision and the determinant
    for m in (build_F(3), build_E(3, 2), build_S(A, B, 5), build_A(4),
              SquareMatrix([[Fraction(1, 2), 3], [1, 2]]),
              SquareMatrix([[A, 1, 0], [B, A + B, 1], [1, 0, A * B]])):
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(twin) is SquareMatrix
            assert twin._rows == m._rows and twin._multiterm == m._multiterm
            for route in ROUTES:
                assert route(twin) == route(m)
    assert build_E(3, 2)._multiterm and not build_F(3)._multiterm
