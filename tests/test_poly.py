"""Polynomial and quadratic-field arithmetic."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from detrec import poly
from detrec.errors import NotDivisible, UnassignedVariable
from detrec.poly import (
    PHI,
    PSI,
    SQRT5,
    MultiPoly,
    QuadExt,
    exact_divide,
    poly_str,
    power_sum,
    scalar_str,
    scalar_sum,
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


def test_scalar_sum_equals_adding_one_by_one():
    rng = random.Random(20261018)
    for _ in range(40):
        values = [random_poly(rng) if rng.random() < 0.7 else rng.randint(-9, 9)
                  for _ in range(rng.randint(0, 8))]
        running = 0
        for value in values:
            running = running + value
        total = scalar_sum(values)
        assert total == running and type(total) is type(running)
        assert scalar_str(total) == scalar_str(running)
    assert scalar_sum([]) == 0 and type(scalar_sum([])) is int
    assert scalar_sum([X0, -X0]) == MultiPoly.zero()
    assert scalar_sum([PHI, PSI, 1]) == QuadExt(2)


def naive_power_sum(weights, terms):
    return scalar_sum(count * prod(w ** a for w, a in zip(weights, exps)) for count, exps in terms)


def test_power_sum_equals_the_naive_sum():
    rng = random.Random(20261019)
    kinds = {"ints": lambda: rng.randint(-3, 3),
             "polys": lambda: random_poly(rng, max_terms=4),
             "mixed": lambda: rng.choice([rng.randint(-3, 3), random_poly(rng, max_terms=4)])}
    for kind, draw in kinds.items():
        for _ in range(40):
            weights = [draw() for _ in range(rng.randint(1, 3))]
            terms = [(rng.randint(-4, 4), [rng.randint(0, 3) for _ in weights])
                     for _ in range(rng.randint(0, 5))]
            cases = [terms, [],  # empty: the int 0
                     [(0, exps) for _, exps in terms],  # zero counts
                     [(count, [0] * len(weights)) for count, _ in terms],  # all-zero exponents
                     terms + [(-count, exps) for count, exps in terms]]  # cancels completely
            for case in cases:
                expected = naive_power_sum(weights, case)
                total = power_sum(weights, iter(case))
                assert total == expected and type(total) is type(expected), (kind, weights, case)
                assert scalar_str(total) == scalar_str(expected)
    x = [X0 + X1, X0 * X1]
    assert power_sum(x, []) == 0 and type(power_sum(x, [])) is int
    cancelled = power_sum(x, [(2, (1, 1)), (-2, (1, 1))])
    assert cancelled == MultiPoly.zero() and type(cancelled) is MultiPoly
    assert power_sum([3, X0], [(1, (2, 0))]) == MultiPoly.const(9)
    assert power_sum([2, 5], [(3, (2, 1)), (1, (0, 0))]) == 61


@pytest.fixture
def packings(monkeypatch):
    """Counts of the ``_Packing``s built and of the keys they unpack."""
    counts = {"packing": 0, "unpack": 0}

    class CountedPacking(poly._Packing):
        __slots__ = ()

        def __init__(self, monos, bound):
            counts["packing"] += 1
            super().__init__(monos, bound)

        def unpack(self, key):
            counts["unpack"] += 1
            return super().unpack(key)

    monkeypatch.setattr(poly, "_Packing", CountedPacking)
    return counts


def test_one_packing_in_and_one_unpack_out(packings):
    # a multi-term product, an exact division and a power sum each pack
    # their operands in one packing and unpack only their result's terms
    a, b = X0 + 2 * X1 - 1, X0 * X1 - X1 ** 2 + 3
    ab, difference, total = a * b, X0 - X1, X0 + X1
    term = -2 * X0 * X1 ** 3
    computations = {
        "product": lambda: a * b,
        "product that cancels": lambda: difference * total,  # x0^2 - x1^2: 4 products, 2 terms
        "quotient": lambda: exact_divide(ab, b),
        "power sum": lambda: power_sum([a, b, X1],
                                       [(2, (1, 2, 0)), (-1, (0, 3, 1)), (4, (2, 0, 0))]),
    }
    for name, compute in computations.items():
        packings.update(packing=0, unpack=0)
        result = compute()
        assert result and packings == {"packing": 1, "unpack": len(result.terms)}, name
    # a product with a one-term factor has no colliding terms to merge: no packing
    packings.update(packing=0, unpack=0)
    assert term * a == a * term == MultiPoly({((0, 2), (1, 3)): -2, ((0, 1), (1, 4)): -4,
                                              ((0, 1), (1, 3)): 2})
    assert 3 * a == a * 3 and X0 * b == b * X0
    assert packings == {"packing": 0, "unpack": 0}


def test_packed_arithmetic_takes_an_int_on_either_side():
    # an int is the packed constant of key 0: the same ring as MultiPoly's,
    # and every product, of an int or a one-term factor too, is _mul_into's
    p, three, mono = 2 * X0 - 3 * X1 + 6, MultiPoly.const(3), -4 * X0 * X1
    packed, packed_three, packed_mono, plus, minus = poly._pack(
        (p, three, mono, X0 + X1, X0 - X1), 3)
    six, big = MultiPoly.const(6), 10 ** 40
    for result, expected in ((3 - packed, 3 - p), (packed - 3, p - 3), (0 * packed, 0 * p),
                             (packed * 0, p * 0), (packed * 2, p * 2), (2 * packed, 2 * p),
                             (packed * -1, -p), (-1 * packed, -p), (packed * 1, p),
                             (1 * packed, p), (packed * big, p * big), (big * packed, big * p),
                             (packed_mono * packed, mono * p), (packed * packed_mono, p * mono),
                             (plus * minus, X0 ** 2 - X1 ** 2),  # the middle terms cancel
                             (0 + packed, p), (packed + 5, p + 5), (-packed, -p),
                             (6 / packed_three, exact_divide(six, three)),
                             (packed * 2 / 2, exact_divide(p * 2, MultiPoly.const(2)))):
        assert type(result) is poly._Packed and result.packing is packed.packing
        assert result.unpack() == expected and poly_str(result.unpack()) == poly_str(expected)
    assert not 0 * packed and packed
    for divide in (lambda: 6 / packed, lambda: packed / 2):
        with pytest.raises(NotDivisible):
            divide()
    with pytest.raises(NotDivisible):
        exact_divide(six, p)


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
    assert PSI ** 0 == QuadExt(1)
    assert PHI ** 5 == QuadExt(Fraction(11, 2), Fraction(5, 2))


def test_quad_pow_is_multiplicative():
    rng = random.Random(77)
    for _ in range(20):
        z = QuadExt(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        assert z ** (m + n) == z ** m * z ** n


def test_quad_division_is_exact():
    z = QuadExt(3, 2)
    assert (z / z) == QuadExt(1)
    assert (PHI * PSI) / PSI == PHI
    assert (PHI ** 4 - PSI ** 4) / SQRT5 == QuadExt(3)  # f_3
    with pytest.raises(ZeroDivisionError):
        PHI / QuadExt(0)


class _Counted:
    """``x**exponent`` in a ring that tallies its squarings and other products."""

    def __init__(self, exponent, tally):
        self.exponent, self.tally = exponent, tally

    def __mul__(self, other):
        self.tally["squarings" if other is self else "products"] += 1
        return _Counted(self.exponent + other.exponent, self.tally)


def test_power_squares_once_per_bit_and_multiplies_once_per_further_set_bit():
    for k in range(301):
        tally = Counter()
        one = _Counted(0, tally)
        result = poly._power(_Counted(1, tally), k, one)
        assert result.exponent == k
        if not k:
            assert result is one and not tally
            continue
        assert tally["squarings"] == k.bit_length() - 1, k
        assert tally["products"] == k.bit_count() - 1, k


# components up to 2**300 in size, zero among them; every element has two
# denominators from 1..7, one per component
_COMPONENTS = [0, 1, -2, 5, 3 ** 100, -(2 ** 300) + 1, 2 ** 300]
QUAD_GRID = [QuadExt(Fraction(a, 1 + i % 7), Fraction(b, 1 + i // 7 % 7))
             for i, (a, b) in enumerate(product(_COMPONENTS, repeat=2))]


def _pair(z):
    """``z`` as ``(r, s)`` for ``r + s*sqrt(5)``, in ``Fraction``s."""
    return z.rational, z.radical


def test_quad_products_and_squares_match_fraction_pairs():
    for x in QUAD_GRID:
        r1, s1 = _pair(x)
        square = (r1 * r1 + 5 * s1 * s1, 2 * r1 * s1)
        assert _pair(x * x) == square, x
        assert _pair(x * copy.copy(x)) == square, x  # an equal operand takes the general product
        for y in QUAD_GRID:
            r2, s2 = _pair(y)
            assert _pair(x * y) == (r1 * r2 + 5 * s1 * s2, r1 * s2 + r2 * s1), (x, y)
            assert _pair(x + y) == (r1 + r2, s1 + s2), (x, y)
            assert _pair(x - y) == (r1 - r2, s1 - s2), (x, y)
    # sums and differences take both paths: one shared denominator, and the general one
    assert {x._den == y._den for x in QUAD_GRID for y in QUAD_GRID} == {True, False}


def test_conjugate_is_the_field_automorphism():
    assert PHI.conjugate() == PSI and PSI.conjugate() == PHI
    for x in QUAD_GRID:
        r, s = _pair(x)
        assert _pair(x.conjugate()) == (r, -s)
        assert x.conjugate().conjugate() == x
        assert QuadExt(r).conjugate() == QuadExt(r) == r
        for y in QUAD_GRID[::5]:
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    for n in range(201):
        assert PSI ** n == (PHI ** n).conjugate(), n


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


def test_poly_str_sorts_wide_monomials_unpacked(monkeypatch):
    # 3000 variables would take 6000-bit packed keys: sorted as tuples
    wide = MultiPoly({((v, 1),): 1 for v in range(3000)}) + X1 ** 2 - X0 * X1
    expected = "-x0*x1 + x1^2 + " + " + ".join(f"x{v}" for v in range(3000))

    def unreachable(self, mono):
        raise AssertionError("packed a wide key")
    monkeypatch.setattr(poly._Packing, "pack", unreachable)
    assert poly_str(wide) == expected


def test_poly_str_orders_alike_packed_or_not(monkeypatch):
    rng = random.Random(11)
    polys = [random_poly(rng, n_vars=6, max_degree=8, max_terms=12) for _ in range(200)]
    packed = [poly_str(p) for p in polys]
    monkeypatch.setattr(poly, "_MAX_KEY_BITS", 0)
    assert [poly_str(p) for p in polys] == packed


def test_scalar_str_unifies_types():
    assert scalar_str(7) == "7"
    assert scalar_str(QuadExt(7)) == "7"
    assert scalar_str(QuadExt(Fraction(3, 2))) == "3/2"
    assert scalar_str(QuadExt(Fraction(1, 2), Fraction(1, 2))) == "1/2 + 1/2*sqrt(5)"
    assert scalar_str(PSI) == "1/2 - 1/2*sqrt(5)"
    assert scalar_str(X0 - X1) == "x0 - x1"


def test_scalar_str_of_a_rational_quad_is_its_str():
    for value, text in ((QuadExt(5), "5"), (QuadExt(Fraction(1, 2)), "1/2")):
        assert scalar_str(value) == str(value) == text


def test_poly_str_reads_names_as_none_a_callable_or_a_sequence():
    p = 3 * X0 ** 2 * X1 - X1
    assert poly_str(p) == poly_str(p, None) == "3*x0^2*x1 - x1"
    assert poly_str(p, lambda v: f"c{v + 1}") == "3*c1^2*c2 - c2"
    assert poly_str(p, ("a", "b")) == "3*a^2*b - b"


def test_quad_reflected_division():
    assert 1 / PHI == -PSI
    assert Fraction(1, 2) / SQRT5 == QuadExt(0, Fraction(1, 10))
    with pytest.raises(TypeError):
        "1" / PHI


@pytest.mark.parametrize("weight", [QuadExt(2), Fraction(1, 2), 2.0])
def test_power_sum_refuses_a_weight_neither_int_nor_polynomial(weight):
    with pytest.raises(TypeError, match="ints or polynomials"):
        power_sum([X0, weight], [(1, (1, 1))])


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


def test_constructor_merges_repeated_variables():
    p = MultiPoly({((0, 1), (0, 2)): 1})
    assert p == X0 ** 3
    assert poly_str(p) == "x0^3"
    assert MultiPoly({((1, 2), (0, 1), (1, 1), (2, 0)): 1}).terms == {((0, 1), (1, 3)): 1}


def test_constructor_sums_keys_that_normalise_alike():
    assert MultiPoly({((0, 1), (1, 0)): 2, ((0, 1),): 3}) == 5 * X0
    assert MultiPoly({((0, 1), (1, 0)): 2, ((0, 1),): -2}) == MultiPoly.zero()
    assert MultiPoly({((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): 1}).terms == {((0, 1), (1, 1)): 2}


@pytest.mark.parametrize("index", [-1, 1.0, "0", None])
def test_constructor_rejects_bad_variable_index(index):
    with pytest.raises(ValueError):
        MultiPoly({((index, 1),): 1})


@pytest.mark.parametrize("exponent", [1.5, 2.0, "2", None, True, -1])
def test_constructor_rejects_bad_exponent(exponent):
    with pytest.raises(ValueError, match="exponent"):
        MultiPoly({((0, exponent),): 1})


@pytest.mark.parametrize("value", [
    MultiPoly.zero(), MultiPoly.const(-7), X0, (X0 + 3 * X1) ** 3 - 2 ** 70 * X0 * X1,
])
def test_polynomial_copy_and_pickle_round_trip(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is MultiPoly
        assert clone == value and hash(clone) == hash(value)
        assert poly_str(clone) == poly_str(value)


@pytest.mark.parametrize("value", [
    QuadExt(0), QuadExt(Fraction(3, 4)), PHI, PSI, PHI ** 40 / 7, QuadExt(Fraction(-1, 6), 2),
])
def test_quad_copy_and_pickle_round_trip(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is QuadExt
        assert clone == value and hash(clone) == hash(value)
        assert scalar_str(clone) == scalar_str(value)


def test_constants_hash_like_their_values():
    for c in (0, 5, -3):
        assert hash(MultiPoly.const(c)) == hash(c)
    assert len({MultiPoly.const(5), 5}) == 1
    assert len({MultiPoly.zero(), 0}) == 1
    assert {5: "x"}.get(MultiPoly.const(5)) == "x"
    assert len({QuadExt(5), 5}) == 1
    assert {5: "x"}.get(QuadExt(5)) == "x"
    assert hash(QuadExt(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert len({QuadExt(Fraction(3, 2)), Fraction(3, 2)}) == 1


def test_equality_is_one_rule_across_the_exact_scalars():
    # a constant polynomial equals exactly what its int equals, in both
    # orders: == is symmetric and transitive over ints, Fractions,
    # polynomials and quadratic elements, and equal values hash alike
    grid = [0, 5, -3, Fraction(5), Fraction(1, 2), Fraction(-3),
            MultiPoly.zero(), MultiPoly.const(5), MultiPoly.const(-3), X0, X0 + 5,
            QuadExt(0), QuadExt(5), QuadExt(Fraction(1, 2)), QuadExt(-3), PHI, QuadExt(5, 1)]
    for a in grid:
        for b in grid:
            assert (a == b) == (b == a) and (a != b) == (not a == b), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)
                for c in grid:
                    assert (b == c) == (a == c), (a, b, c)
    assert MultiPoly.const(5) == QuadExt(5) == Fraction(5)
    assert QuadExt(5) == MultiPoly.const(5) and MultiPoly.zero() == QuadExt(0)
    assert X0 != QuadExt(5) and MultiPoly.const(5) != QuadExt(5, 1)


@pytest.mark.parametrize("left, right", [(MultiPoly.const(5), QuadExt(5)), (X0, PHI)])
def test_polynomials_and_quadratic_elements_do_not_mix_in_arithmetic(left, right):
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(left, right)
        with pytest.raises(TypeError):
            op(right, left)
