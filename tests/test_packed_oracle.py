"""Differential checks of the packed determinant routes and iteration against sympy.

On a matrix with a polynomial entry of two or more terms, ``det_bareiss``,
``det_cofactor`` and ``det_via_lsd`` pack the entries once, in a packing
sized by a degree bound (``poly._pack_rows``), and unpack only the
determinant; ``eval_recurrence`` with a polynomial coefficient packs the
coefficients once, with the bound ``n * max deg c_t``, and unpacks only
``u_n``.  A bound too small lets an exponent field carry into the next
one or set its guard bit, which no route comparison would notice, since all
three share the packing.  Here sympy is the oracle, over ``ZZ[x0, x1, x2]``:
its own fraction-free determinant, on seeded random matrices that mix ints,
zeros and polynomials, with zero leading entries that force Bareiss to swap
rows, and with entries of degree ``2**k - 1``, so that the determinant
reaches the top of the packing's exponent fields; and iteration over its
ring, on seeded coefficient lists that mix ints, zeros and polynomials, one
of degree ``2**k - 1`` raised to a power that fills its fields.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from detrec import recurrence  # noqa: E402
from detrec.detmat import SquareMatrix, det_bareiss, det_cofactor  # noqa: E402
from detrec.digraph import det_via_lsd  # noqa: E402
from detrec.poly import MultiPoly  # noqa: E402
from detrec.recurrence import eval_recurrence  # noqa: E402

N_VARS = 3
RING, *_ = sympy.ring([f"x{v}" for v in range(N_VARS)], sympy.ZZ)
ROUTES = (det_bareiss, det_cofactor, det_via_lsd)


def to_ring(value):
    """An int or ``MultiPoly`` as an element of ``RING``, read off its terms."""
    if isinstance(value, int):
        return RING(value)
    terms = {}
    for mono, coef in value.terms.items():
        exps = [0] * N_VARS
        for v, e in mono:
            exps[v] = e
        terms[tuple(exps)] = coef
    return RING.from_dict(terms)


def sympy_det(rows):
    n = len(rows)
    return DomainMatrix([[to_ring(x) for x in row] for row in rows], (n, n),
                        RING.to_domain()).det()


def random_poly(rng: random.Random, top: int) -> MultiPoly:
    """Two to four terms of degree at most ``top``, one of them of degree exactly ``top``."""
    terms = {}
    for k in range(rng.randint(2, 4)):
        degree = top if k == 0 else rng.randint(0, top)
        exps = [0] * N_VARS
        for _ in range(degree):
            exps[rng.randrange(N_VARS)] += 1
        terms[tuple((v, e) for v, e in enumerate(exps) if e)] = rng.choice([-3, -2, -1, 1, 2, 5])
    return MultiPoly(terms)


def random_rows(rng: random.Random, n: int) -> list[list]:
    """Entries zero half the time, else an int or a polynomial, with a zero leading block."""
    def entry():
        kind = rng.random()
        if kind < 0.5:
            return 0
        if kind < 0.7:
            return rng.choice([-2, -1, 1, 3])
        return random_poly(rng, rng.choice([1, 2, 3, 7]))
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    # a zero top-left block makes Bareiss swap rows at its first steps
    height, width = rng.randint(0, n), rng.randint(0, n - 1)
    for i in range(height):
        rows[i][:width] = [0] * width
    rows[rng.randrange(n)][rng.randrange(n)] = random_poly(rng, 3)
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_packed_routes_match_sympy_on_random_matrices(seed):
    rng = random.Random(seed)
    for n in (3, 4, 5, 3, 4, 5, 2):
        rows = random_rows(rng, n)
        m = SquareMatrix(rows)
        assert m._multiterm
        expected = sympy_det(rows)
        for route in ROUTES:
            assert to_ring(route(m)) == expected, (route.__name__, rows)


x0, x1, x2 = (MultiPoly.var(v) for v in range(N_VARS))


@pytest.mark.parametrize("rows", [
    # row maxima 3 + 3 + 1 = 7 = 2**3 - 1: cofactor's and LSD's bound, and
    # the determinant's degree in x0 alone
    [[x0 ** 3 + 1, 1, x1], [1 - x1, x0 ** 3 + x0, 0], [x2, 0, x0 + 2]],
    # 7 + 7 + 1 = 15 = 2**4 - 1, reached by the diagonal's x0**15
    [[x0 ** 7 + x1, 0, 2], [3, x0 ** 7 - x2 ** 7, x1], [x2, 0, x0 - 1]],
    # a zero leading pivot: Bareiss swaps rows before its first step
    [[0, x0 ** 7 + 1, x1], [x0 ** 3 - x2, 0, 1], [1, x1 ** 3 + x0, x0 ** 3]],
    # 15 again, with degree 2**k - 1 in every variable
    [[x0 ** 7 + x1 ** 7, x2 ** 3, 0], [x0 ** 3 * x1 ** 4 - 1, x0 * x1 * x2 + x2 ** 7, 1],
     [0, 1, x1 + x2]],
    # 15 + 15 + 1 = 31 = 2**5 - 1 in x0 alone
    [[x0 ** 15 + 1, x0, 0], [x0 ** 15, x0 ** 15 - x1, 0], [0, 0, x0 + 1]],
])
def test_packed_routes_match_sympy_at_field_boundaries(rows):
    m = SquareMatrix(rows)
    assert m._multiterm
    expected = sympy_det(rows)
    for route in ROUTES:
        assert to_ring(route(m)) == expected, route.__name__


def sympy_recurrence(coeffs, n: int):
    """``u_n`` of ``coeffs`` by iteration over ``RING``, every ``u_m`` kept."""
    cs = [to_ring(c) for c in coeffs]
    values = [RING(1)]
    for m in range(1, n + 1):
        values.append(sum((c * values[m - t] for t, c in enumerate(cs[:m], start=1)), RING(0)))
    return values[n]


def random_coeffs(rng: random.Random) -> list:
    """One to five coefficients: zeros, ints, polynomials and constant polynomials."""
    def coeff():
        kind = rng.random()
        if kind < 0.2:
            return 0
        if kind < 0.4:
            return rng.choice([-2, -1, 1, 3])
        if kind < 0.45:
            return MultiPoly.const(rng.choice([0, -1, 2]))
        return random_poly(rng, rng.choice([1, 2, 3, 7]))
    return [coeff() for _ in range(rng.randint(1, 5))]


@pytest.mark.parametrize("seed", range(6))
def test_packed_iteration_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(12):
        coeffs = random_coeffs(rng)
        for n in (rng.randint(0, 12), rng.randint(1, 4)):
            value = eval_recurrence(coeffs, n)
            polys = n and any(isinstance(c, MultiPoly) for c in coeffs[:n])
            assert type(value) is (MultiPoly if polys else int), (coeffs, n)
            assert to_ring(value) == sympy_recurrence(coeffs, n), (coeffs, n)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_packed_iteration_matches_sympy_at_field_boundaries(seed, k):
    # c_1's x_v**(2**k - 1) gives u_n the monomial x_v**(n * (2**k - 1)),
    # and n = 2**k + 1 makes that 2**(2k) - 1 = n * max deg c_t, the bound:
    # the top of the field of x_v and of the total degree's field
    rng = random.Random(seed)
    n, top = 2 ** k + 1, 2 ** k - 1
    v = rng.randrange(N_VARS)
    # every other coefficient of degree top at most, c_1 of degree top
    coeffs = [rng.choice([0, 2, random_poly(rng, rng.randint(1, top))])
              for _ in range(rng.randint(1, 4))]
    lower = random_poly(rng, top - 1) if top > 1 else rng.choice([-1, 3])
    coeffs[0] = rng.choice([-1, 2]) * MultiPoly.var(v) ** top + lower
    value = eval_recurrence(coeffs, n)
    assert max(e for mono in value.terms for _, e in mono) == n * top
    assert to_ring(value) == sympy_recurrence(coeffs, n)


def test_packed_iteration_edge_cases(monkeypatch):
    assert eval_recurrence([x0 + 1, x1], 0) == 1
    assert type(eval_recurrence([x0 + 1, x1], 0)) is int  # u_0 packs nothing
    zero = eval_recurrence([x0, -x0 ** 2], 2)  # x0 * x0 - x0**2: every term cancels
    assert type(zero) is MultiPoly and zero.terms == {}
    # r > n: u_n reads c_1..c_n only
    coeffs = [x0 ** 3 - x1, 2, x2 ** 7 + x0, 0, x1]
    for n in (1, 2, 3, 4):
        assert to_ring(eval_recurrence(coeffs, n)) == sympy_recurrence(coeffs, n)
    assert type(eval_recurrence([3, x0], 1)) is int
    # integer coefficients run the plain step and pack nothing

    def unreachable(*args):
        raise AssertionError("packed")
    monkeypatch.setattr(recurrence, "_pack", unreachable)
    for coeffs in ([1, 0, -2], [0], [3, -1, 0, 2, 5]):
        value = eval_recurrence(coeffs, 12)
        assert type(value) is int
        assert value == sympy_recurrence(coeffs, 12)
