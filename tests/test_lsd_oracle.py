"""Differential checks of the LSD and cofactor routes against sympy and brute force.

``det_via_lsd`` and ``det_cofactor`` memoise their sub-problems (vertex sets
and column sets), so a wrong key or a wrong sign would corrupt every result
that reuses the entry.  Here the determinants come from
``sympy.Matrix.det``, and the linear subdigraphs from their bijection with
the permutations whose entries ``M[i][p(i)]`` are all nonzero: the cycles
of such a permutation are an LSD, with the product of those entries as its
weight.  A counting integer type bounds the work of both routes.
"""

import random
from itertools import permutations

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from detrec.detmat import SquareMatrix, build_G, det_cofactor  # noqa: E402
from detrec.digraph import det_via_lsd, enumerate_lsds  # noqa: E402
from detrec.poly import MultiPoly  # noqa: E402
from detrec.recurrence import racci  # noqa: E402

SYMS = sympy.symbols("x0:3")
RING = sympy.ZZ[SYMS]
X = [MultiPoly.var(i) for i in range(3)]

examples = settings(max_examples=150, deadline=None)

# zero three times in four, so that whole rows, columns and cycles vanish
ints = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
# constants, c*x_v + d and x_v*x_w
polys = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
    st.builds(lambda c, v, d: c * X[v] + d, st.integers(-3, 3), st.integers(0, 2),
              st.integers(-3, 3)),
    st.builds(lambda v, w: X[v] * X[w], st.integers(0, 2), st.integers(0, 2)))


@st.composite
def matrices(draw, entries, max_n=7):
    n = draw(st.integers(1, max_n))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


def to_sympy(value):
    """An int or ``MultiPoly`` as a sympy expression in ``x0..x2``."""
    if not isinstance(value, MultiPoly):
        return sympy.Integer(value)
    return sum((coef * sympy.Mul(*[SYMS[v] ** e for v, e in mono])
                for mono, coef in value.terms.items()), sympy.Integer(0))


def sympy_det(rows):
    """The determinant in sympy's ring ``ZZ[x0,x1,x2]``."""
    n = len(rows)
    exprs = [[to_sympy(x) for x in row] for row in rows]
    return DomainMatrix.from_list_sympy(n, n, exprs).convert_to(RING).det()


def brute_force_lsds(rows):
    """``(cycles, weight, sign)`` of every permutation with nonzero entries, sorted."""
    n = len(rows)
    found = []
    for perm in permutations(range(n)):
        if not all(rows[i][perm[i]] for i in range(n)):
            continue
        weight = 1
        for i in range(n):
            weight = weight * rows[i][perm[i]]
        cycles, seen = [], set()
        for first in range(n):
            if first in seen:
                continue
            cycle, v = [], first
            while v not in seen:
                seen.add(v)
                cycle.append(v)
                v = perm[v]
            cycles.append(tuple(cycle))  # starts at its lowest vertex already
        found.append((tuple(cycles), weight, (-1) ** (n - len(cycles))))
    found.sort(key=lambda item: item[0])
    return found


@examples
@given(matrices(ints))
def test_integer_det_matches_sympy(rows):
    expected = sympy.Matrix(rows).det()
    assert det_via_lsd(SquareMatrix(rows)) == expected
    assert det_cofactor(SquareMatrix(rows)) == expected


@examples
@given(matrices(polys))
def test_polynomial_det_matches_sympy(rows):
    expected = sympy_det(rows)
    assert RING.from_sympy(to_sympy(det_via_lsd(SquareMatrix(rows)))) == expected
    assert RING.from_sympy(to_sympy(det_cofactor(SquareMatrix(rows)))) == expected


@examples
@given(st.one_of(matrices(ints), matrices(polys, max_n=5)))
def test_lsds_biject_with_nonzero_permutations(rows):
    lsds = enumerate_lsds(SquareMatrix(rows))
    expected = brute_force_lsds(rows)
    # same cycle sets, in the same (sorted) order
    assert [lsd.cycles for lsd in lsds] == [cycles for cycles, _, _ in expected]
    for lsd, (_, weight, sign) in zip(lsds, expected):
        assert lsd.signed_weight == sign * weight


def test_banded_lsd_expansion_does_quadratic_work(counted_ints):
    Counted, count = counted_ints
    n = 12
    m = SquareMatrix([[Counted(x) for x in row] for row in build_G(n, 4)])
    assert det_via_lsd(m) == racci(n, 4)
    assert count[0] <= n * n


def test_dense_cofactor_expansion_expands_each_minor_once(counted_ints):
    Counted, count = counted_ints
    n = 8
    rng = random.Random(8)
    values = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    expected = sympy.Matrix(values).det()
    assert expected != 0
    assert det_cofactor(SquareMatrix([[Counted(x) for x in row] for row in values])) == expected
    assert count[0] <= n * 2 ** (n - 1)
