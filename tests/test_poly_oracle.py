"""Differential checks of the polynomial core against sympy, and ring laws.

Every identity in the library compares two routes that share ``MultiPoly``,
so a bug in its arithmetic or its term order could pass on both sides.
Here sympy is the independent oracle: products, sums and exact quotients are
expanded by sympy and rendered in the canonical text format from sympy's own
graded-lex term order.  Hypothesis properties cover the ring laws, the
canonical invariant that the trusted constructor relies on, and copy and
pickle round trips of random polynomials and quadratic elements.
"""

import copy
import pickle
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from detrec import poly  # noqa: E402
from detrec.errors import NotDivisible  # noqa: E402
from detrec.poly import MultiPoly, QuadExt, exact_divide, poly_str, scalar_str  # noqa: E402
from detrec.symfunc import elementary, homogeneous  # noqa: E402

N_VARS = 4
SYMS = sympy.symbols(f"x0:{N_VARS}")

# Hypothesis draws small values often, so terms collide and cancel; the
# larger ones widen the packed exponent fields.  Repeated monomials in the
# drawn list overwrite each other.
exponent_vectors = st.tuples(*[st.integers(0, 12)] * N_VARS)
coefficients = st.integers(-10**30, 10**30)
polys = st.lists(st.tuples(exponent_vectors, coefficients),
                 max_size=6).map(lambda terms: MultiPoly({
                     tuple((v, e) for v, e in enumerate(exps) if e): coef
                     for exps, coef in terms}))
nonzero_polys = polys.filter(bool)
# (a + b*sqrt(5)) / den: every quadratic element is one such triple
quads = st.builds(lambda a, b, den: QuadExt(Fraction(a, den), Fraction(b, den)),
                  coefficients, coefficients, st.integers(1, 10**12))

examples = settings(max_examples=200, deadline=None)


def to_sympy(p: MultiPoly):
    """``p`` as a sympy ``Poly`` in ``x0..x3``, built from its term map."""
    return sympy.Poly.from_dict(
        {tuple(dict(mono).get(v, 0) for v in range(N_VARS)): coef
         for mono, coef in p.terms.items()}, *SYMS)


def sympy_str(expr) -> str:
    """``poly_str``'s format, with terms in sympy's graded-lex order."""
    poly = sympy.Poly(expr, *SYMS)
    if poly.is_zero:
        return "0"
    pieces = []
    for i, (exps, coef) in enumerate(poly.terms(order="grlex")):
        coef = int(coef)
        factors = [] if abs(coef) == 1 and any(exps) else [str(abs(coef))]
        factors += [f"x{v}" if e == 1 else f"x{v}^{e}"
                    for v, e in enumerate(exps) if e]
        if i == 0:
            sign = "-" if coef < 0 else ""
        else:
            sign = " - " if coef < 0 else " + "
        pieces.append(sign + "*".join(factors))
    return "".join(pieces)


def assert_canonical(p: MultiPoly) -> None:
    """No zero or non-int coefficient; sorted monomials, positive exponents."""
    for mono, coef in p.terms.items():
        assert type(coef) is int and coef != 0
        assert type(mono) is tuple
        for pair in mono:
            assert type(pair) is tuple and len(pair) == 2
            assert type(pair[0]) is int and type(pair[1]) is int and pair[1] > 0
        variables = [v for v, _ in mono]
        assert variables == sorted(set(variables))


def test_sympy_str_matches_known_order():
    x0, x1, x2 = SYMS[:3]
    assert sympy_str(x1**2 + x0 * x2 + 3 * x0 * x1 - 1) == "3*x0*x1 + x0*x2 + x1^2 - 1"
    assert sympy_str(sympy.Integer(0)) == "0"


@examples
@given(polys, polys)
def test_mul_matches_sympy(a, b):
    product = sympy.expand(to_sympy(a).as_expr() * to_sympy(b).as_expr())
    assert poly_str(a * b) == sympy_str(product)


@examples
@given(polys, polys)
def test_add_and_sub_match_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    assert poly_str(a + b) == sympy_str(sa + sb)
    assert poly_str(a - b) == sympy_str(sa - sb)
    assert poly_str(-a) == sympy_str(-sa)


@examples
@given(polys, nonzero_polys)
def test_exact_divide_matches_sympy_div(a, b):
    num = a * b
    quotient, remainder = sympy.div(to_sympy(num), to_sympy(b))
    assert remainder.is_zero
    q = exact_divide(num, b)
    assert q == a
    assert poly_str(q) == sympy_str(quotient)


@examples
@given(polys, nonzero_polys, nonzero_polys)
def test_exact_divide_raises_exactly_when_sympy_leaves_no_integer_quotient(a, b, c):
    num = a * b + c
    quotient, remainder = sympy.div(to_sympy(num), to_sympy(b))
    if remainder.is_zero and all(coef.is_integer for coef in quotient.coeffs()):
        assert poly_str(exact_divide(num, b)) == sympy_str(quotient)
    else:
        with pytest.raises(NotDivisible):
            exact_divide(num, b)


@examples
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    zero, one = MultiPoly.zero(), MultiPoly.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and -(-a) == a
    assert a - b == a + (-b) == -(b - a)
    assert a ** 3 == a * a * a and a ** 0 == one
    assert 3 - a == -(a - 3) and 2 * a == a + a and a * 0 == zero


@examples
@given(polys, polys, st.integers(-5, 5))
def test_operator_results_are_canonical(a, b, k):
    results = [a + b, a - b, -a, a * b, a ** 2, a + k, k - a, k * a, a * k]
    if b:
        results.append(exact_divide(a * b, b))
    for result in results:
        assert_canonical(result)


@examples
@given(polys, quads)
def test_copy_and_pickle_round_trips(p, q):
    for value, text in ((p, poly_str), (q, scalar_str)):
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert text(clone) == text(value)


# -- the printer's term order --------------------------------------------------------
#
# ``poly_str`` sorts only a term map that is out of order, so its text must
# not depend on the map's insertion order, and the producers that hand their
# terms in order must really do so.

# small exponents and many terms, so that many terms share a degree
dense_polys = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * N_VARS), coefficients),
                       max_size=24).map(lambda terms: MultiPoly({
                           tuple((v, e) for v, e in enumerate(exps) if e): coef
                           for exps, coef in terms}))
NAMES = [None, ("a", "b", "c", "d"), lambda v: f"c{v + 1}"]


def grlex_descending(p: MultiPoly) -> bool:
    """Whether ``p``'s term map lists its monomials in descending graded-lex order.

    The key is the total degree, then the exponent vector from ``x0`` on,
    built here rather than taken from ``poly``.
    """
    def key(mono):
        exps = dict(mono)
        return sum(exps.values()), [exps.get(v, 0) for v in range(max(exps, default=-1) + 1)]
    monos = list(p._terms)
    return monos == sorted(monos, key=key, reverse=True)


@examples
@given(st.one_of(polys, dense_polys), st.randoms(use_true_random=False))
def test_poly_str_does_not_depend_on_the_term_order(p, rng):
    items = list(p._terms.items())
    shuffled = rng.sample(items, len(items))
    for names in NAMES:
        text = poly_str(p, names)
        for order in (items[::-1], shuffled, sorted(items)):
            assert poly_str(poly._from_terms(dict(order)), names) == text
    assert poly_str(p) == sympy_str(to_sympy(p).as_expr())


@examples
@given(st.one_of(polys, dense_polys), st.one_of(polys, dense_polys))
def test_unpacked_terms_come_in_descending_order(a, b):
    # a product of two multi-term factors and a quotient are unpacked
    results = [poly._pack([a], a.degree())[0].unpack()]
    if len(a.terms) > 1 and len(b.terms) > 1:
        results.append(a * b)
    if b:
        results.append(exact_divide(a * b, b))
    for result in results:
        assert grlex_descending(result)


@pytest.mark.parametrize("n_vars", range(1, 7))
def test_symmetric_polynomials_come_in_descending_order(n_vars):
    # h_k takes its k <= n_vars and its k > n_vars branch here
    for k in range(13):
        assert grlex_descending(homogeneous(k, n_vars)), (k, n_vars)
        assert grlex_descending(elementary(k, n_vars)), (k, n_vars)
