"""Polynomial and quadratic-field arithmetic."""

import random
from fractions import Fraction

import pytest

from detrec.errors import NotDivisible, UnassignedVariable
from detrec.poly import (
    PHI,
    PSI,
    SQRT5,
    MultiPoly,
    QuadExt,
    exact_divide,
    poly_str,
    quad_pow,
    scalar_str,
    substitute,
)

X0, X1 = MultiPoly.var(0), MultiPoly.var(1)


def random_poly(rng, n_vars=4, max_degree=5, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        degree_left = max_degree
        for v in range(n_vars):
            e = rng.randint(0, min(2, degree_left))
            degree_left -= e
            if e:
                mono.append((v, e))
        terms[tuple(mono)] = rng.randint(-9, 9)
    return MultiPoly(terms)


def test_binomial_square():
    assert (X0 + X1) ** 2 == X0 ** 2 + 2 * X0 * X1 + X1 ** 2


def test_zero_annihilates():
    p = (X0 + 3) * X1 ** 2
    assert p * MultiPoly.zero() == MultiPoly.zero()
    assert not p * 0


def test_difference_of_squares():
    assert (X0 + X1) * (X0 - X1) == X0 ** 2 - X1 ** 2


def test_constructor_drops_zero_coefficients():
    p = MultiPoly({((0, 1),): 0, ((1, 1),): 2})
    assert p.terms == {((1, 1),): 2}
    assert (X0 - X0) == MultiPoly.zero()


@pytest.mark.parametrize("coef", [Fraction(1, 2), Fraction(4, 2), 2.7, 2.0, "3"])
def test_constructor_rejects_non_integer_coefficients(coef):
    with pytest.raises(TypeError, match="not an int"):
        MultiPoly({((0, 1),): coef})
    with pytest.raises(TypeError):
        MultiPoly({(): coef})


def test_pow_zero_is_one():
    assert (X0 + X1) ** 0 == MultiPoly.one()
    assert MultiPoly.zero() ** 0 == MultiPoly.one()


def test_exact_divide_factorizations():
    assert exact_divide(X0 ** 2 - X1 ** 2, X0 - X1) == X0 + X1
    assert exact_divide(X0 ** 3 - X1 ** 3, X0 - X1) == X0 ** 2 + X0 * X1 + X1 ** 2


def test_exact_divide_alternant_quotient():
    # cofactor-expanded alternants for the one-row partition (2) in 2 vars:
    # det [[x^3, y^3], [1, 1]] / det [[x, y], [1, 1]]
    numerator = X0 ** 3 * 1 - X1 ** 3 * 1
    denominator = X0 - X1
    assert exact_divide(numerator, denominator) == X0 ** 2 + X0 * X1 + X1 ** 2


def test_exact_divide_rejects_nondivisible():
    with pytest.raises(NotDivisible):
        exact_divide(X0 ** 2 + X1, X0 - X1)
    with pytest.raises(NotDivisible):
        exact_divide(X0, MultiPoly.const(2))  # no integer quotient
    with pytest.raises(ZeroDivisionError):
        exact_divide(X0, MultiPoly.zero())


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + MultiPoly.zero() == a
        assert a * MultiPoly.one() == a


def test_exact_divide_inverts_multiplication():
    rng = random.Random(987)
    checked = 0
    while checked < 40:
        a = random_poly(rng)
        b = random_poly(rng)
        if not b:
            continue
        assert exact_divide(a * b, b) == a
        checked += 1


def test_substitute_golden_ratio_points():
    assert substitute(X0 * X1, {0: PHI, 1: PSI}) == QuadExt(-1)
    assert substitute(X0 + X1, {0: PHI, 1: PSI}) == QuadExt(1)
    assert substitute(X0 ** 2 + X0, {0: PHI}) == QuadExt(2, 1)  # 2 + sqrt(5)


def test_substitute_requires_all_variables():
    with pytest.raises(UnassignedVariable):
        substitute(X0 + X1, {0: PHI})


def test_substitute_is_ring_homomorphism():
    rng = random.Random(5)
    point = {0: PHI, 1: PSI, 2: QuadExt(2), 3: QuadExt(Fraction(1, 3))}
    for _ in range(25):
        p = random_poly(rng)
        q = random_poly(rng)
        assert substitute(p * q, point) == substitute(p, point) * substitute(q, point)
        assert substitute(p + q, point) == substitute(p, point) + substitute(q, point)


def test_quad_pow_values():
    assert PHI ** 2 == QuadExt(Fraction(3, 2), Fraction(1, 2))
    assert quad_pow(PSI, 0) == QuadExt(1)
    assert PHI ** 5 == QuadExt(Fraction(11, 2), Fraction(5, 2))


def test_quad_pow_is_multiplicative():
    rng = random.Random(77)
    for _ in range(20):
        z = QuadExt(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        assert quad_pow(z, m + n) == quad_pow(z, m) * quad_pow(z, n)


def test_quad_division_is_exact():
    z = QuadExt(3, 2)
    assert (z / z) == QuadExt(1)
    assert (PHI * PSI) / PSI == PHI
    assert (PHI ** 4 - PSI ** 4) / SQRT5 == QuadExt(3)  # f_3
    with pytest.raises(ZeroDivisionError):
        PHI / QuadExt(0)


def test_quad_mixed_discriminants_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, d=5) + QuadExt(1, 1, d=2)
    with pytest.raises(ValueError):
        QuadExt(1, 1, d=5) * QuadExt(1, 1, d=3)


def test_poly_str_golden():
    assert poly_str(MultiPoly.zero()) == "0"
    assert poly_str(MultiPoly.const(-7)) == "-7"
    assert poly_str(X0 ** 2 + X0 * X1 + X1 ** 2) == "x0^2 + x0*x1 + x1^2"
    assert poly_str(X0 - X1) == "x0 - x1"
    assert poly_str(-X0 + X1) == "-x0 + x1"
    assert poly_str(2 * X0 ** 4 + 2 * X1 ** 4, ("a", "b")) == "2*a^4 + 2*b^4"


def test_poly_str_graded_lex_order():
    # degree dominates, then the lowest-indexed variable is strongest
    p = X0 + X0 ** 2 + X1 ** 3
    assert poly_str(p) == "x1^3 + x0^2 + x0"
    assert poly_str(X0 * X1 + X1 ** 2 + X0 ** 2) == "x0^2 + x0*x1 + x1^2"


def test_scalar_str_unifies_types():
    assert scalar_str(7) == "7"
    assert scalar_str(QuadExt(7)) == "7"
    assert scalar_str(QuadExt(Fraction(3, 2))) == "3/2"
    assert scalar_str(QuadExt(Fraction(1, 2), Fraction(1, 2))) == "1/2 + 1/2*sqrt(5)"
    assert scalar_str(PSI) == "1/2 - 1/2*sqrt(5)"
    assert scalar_str(X0 - X1) == "x0 - x1"


def test_poly_equality_and_hash_are_canonical():
    p = MultiPoly({((0, 2),): 1, ((0, 1), (1, 1)): 2})
    q = (X0 + X1) ** 2 - X1 ** 2
    assert p == q
    assert hash(p) == hash(q)
    assert p == p + 0
    assert MultiPoly.const(5) == 5


def test_values_are_immutable():
    with pytest.raises(AttributeError):
        X0._terms = {}
    with pytest.raises(AttributeError):
        PHI.rational = Fraction(0)
