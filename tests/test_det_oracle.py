"""Differential checks of ``det_bareiss`` and ``QuadExt`` against sympy.

The determinant routes share the scalar types they run on, so a bug in the
zero-aware elimination or in the integer form of ``QuadExt`` could pass on
every route alike.  Here sympy is the independent oracle: determinants of
mostly-zero integer matrices come from ``sympy.Matrix.det``, and golden-ratio
determinants and field arithmetic from sympy's algebraic field
``QQ<sqrt(5)>``.  A counting integer type
also bounds the elimination's work on a banded matrix.
"""

from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from detrec.detmat import SquareMatrix, build_G, det_bareiss  # noqa: E402
from detrec.poly import PHI, PSI, QuadExt  # noqa: E402
from detrec.recurrence import racci  # noqa: E402

ROOT5 = sympy.sqrt(5)
FIELD = sympy.QQ.algebraic_field(ROOT5)

examples = settings(max_examples=200, deadline=None)

# zero three times in four, so that rows, columns and pivots vanish often
ints = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
fractions = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
quads = st.builds(QuadExt, fractions, fractions)
small_quads = st.builds(QuadExt, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
quad_entries = st.one_of(st.just(0), st.just(0), st.just(0),
                         st.sampled_from([PHI, PSI, -PHI, 1, -1, 2]), small_quads)


@st.composite
def sparse_matrices(draw, entries, max_n=7):
    """Mostly-zero square matrices, some with a zero leading block or a zero row.

    A zero block in the top-left corner forces row swaps at the first steps;
    a zero row makes the determinant vanish after some elimination.
    """
    n = draw(st.integers(1, max_n))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    height, width = draw(st.integers(0, n)), draw(st.integers(0, n - 1))
    for i in range(height):
        rows[i][:width] = [0] * width
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * n
    return rows


def to_field(value):
    """``value`` (int, ``Fraction`` or ``QuadExt``) as an element of ``FIELD``."""
    if isinstance(value, QuadExt):
        p, q = value.rational, value.radical
    else:
        p, q = Fraction(value), Fraction(0)
    # FIELD's elements are dense polynomials in sqrt(5), highest power first
    return FIELD.new([sympy.QQ(q.numerator, q.denominator), sympy.QQ(p.numerator, p.denominator)])


def assert_canonical(z: QuadExt) -> None:
    assert type(z._a) is int and type(z._b) is int and type(z._den) is int
    assert z._den > 0 and gcd(z._den, z._a, z._b) == 1


@examples
@given(sparse_matrices(ints))
# the swap at step 1 brings up a row that skipped step 0, in place of one
# that took part in it
@example([[3, 0, 1, 0], [2, 0, 0, 0], [-1, 0, 0, 2], [0, 2, 0, 0]])
def test_integer_det_matches_sympy(rows):
    assert det_bareiss(SquareMatrix(rows)) == sympy.Matrix(rows).det()


@examples
@given(sparse_matrices(quad_entries))
def test_golden_ratio_det_matches_sympy(rows):
    n = len(rows)
    expected = DomainMatrix([[to_field(x) for x in row] for row in rows], (n, n), FIELD).det()
    assert to_field(det_bareiss(SquareMatrix(rows))) == expected


@examples
@given(quads, quads, st.integers(0, 12))
def test_quad_arithmetic_matches_sympy(z, w, k):
    fz, fw, three, two_thirds = to_field(z), to_field(w), to_field(3), to_field(Fraction(2, 3))
    results = [(z + w, fz + fw), (z - w, fz - fw), (-z, -fz), (z * w, fz * fw),
               (z ** k, fz ** k), (z + 3, fz + three), (3 - z, three - fz),
               (z * Fraction(2, 3), fz * two_thirds)]
    if w:
        results += [(z / w, fz / fw), (1 / w, to_field(1) / fw)]
    for value, expected in results:
        assert_canonical(value)
        assert to_field(value) == expected


@examples
@given(quads, quads, fractions)
def test_equal_values_compare_and_hash_alike(z, w, r):
    if w:
        assert (z * w) / w == z
        assert hash((z * w) / w) == hash(z)
    assert (z == w) == (to_field(z) == to_field(w))
    assert QuadExt(r) == r and hash(QuadExt(r)) == hash(r)
    assert (z + r) - z == r and hash((z + r) - z) == hash(r)


def test_banded_elimination_does_quadratic_work(counted_ints):
    Counted, count = counted_ints
    n = 80
    m = SquareMatrix([[Counted(x) for x in row] for row in build_G(n, 3)])
    assert det_bareiss(m) == racci(n, 3)
    assert count[0] <= 4 * n * n
