"""Each priced route against its real run: the price's term counts and its early refusals."""

import pytest

from detrec import caps
from detrec.detmat import build_C, build_S, det_bareiss, price_C, price_S
from detrec.identities import symbolic_coeffs
from detrec.poly import MultiPoly
from detrec.recurrence import eval_recurrence, price_recurrence
from detrec.symfunc import build_E, price_E


def _terms(value) -> int:
    """The terms of a polynomial, or of a bound; an int is one term."""
    if isinstance(value, MultiPoly):
        return len(value.terms)
    return 1 if isinstance(value, int) else value.terms


@pytest.mark.parametrize("n_vars", [1, 2, 3, 4])
def test_E_is_priced_with_the_terms_of_h_n(n_vars):
    for n in range(1, 11):
        assert _terms(price_E(n, n_vars)) == _terms(det_bareiss(build_E(n, n_vars))), n


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_symbolic_C_is_priced_with_the_terms_of_u_n(r):
    for n in range(1, 15):
        real = det_bareiss(build_C(symbolic_coeffs(min(r, n)), n))
        assert _terms(price_C(n, r)) == _terms(real), n


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_the_iteration_is_priced_with_the_terms_of_u_n(r):
    for n in range(21):
        real = eval_recurrence(symbolic_coeffs(min(r, max(n, 1))), n)
        assert _terms(price_recurrence(n, r)) == _terms(real), n


def test_S_is_priced_with_at_least_its_terms():
    a, b = MultiPoly.var(0), MultiPoly.var(1)
    for n in range(3, 13):
        assert _terms(price_S(n)) >= _terms(det_bareiss(build_S(a, b, n))), n


def test_each_route_costs_at_least_its_table(monkeypatch):
    # a price charges first the monomial table of its variables, and is
    # refused at once when that alone passes MAX_WORK; the route's own
    # charges are at least as many, so no route that fits is refused so:
    # r * n for the iteration, 2 * r * n for symbolic C
    monkeypatch.setattr(caps, "MAX_WORK", 10**12)
    for n in range(1, 31):
        for r in range(1, n + 1):
            assert price_recurrence(n, r).price.work >= 2 * r * n, (n, r)
            assert price_C(n, r).price.work >= 4 * r * n, (n, r)
        for n_vars in range(1, 6):
            assert price_E(n, n_vars).price.work >= 4 * n * n_vars, (n, n_vars)
        if n >= 3:
            assert price_S(n).price.work >= 8 * n, n
