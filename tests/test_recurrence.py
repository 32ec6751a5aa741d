"""Recurrence iteration and exact closed forms."""

import tracemalloc

import pytest

from detrec import caps, cli, recurrence
from detrec.cli import main
from detrec.errors import TooLarge
from detrec.poly import MultiPoly, QuadExt, scalar_str
from detrec.recurrence import (
    binet_fib,
    binet_lucas,
    eval_recurrence,
    fibonacci,
    lucas,
    racci,
    racci_multinomial,
)


def test_eval_recurrence_symbolic():
    c1, c2 = MultiPoly.var(0), MultiPoly.var(1)
    assert eval_recurrence([c1, c2], 0) == 1
    assert eval_recurrence([c1, c2], 1) == c1
    assert eval_recurrence([c1, c2], 2) == c1 ** 2 + c2
    assert eval_recurrence([c1, c2], 3) == c1 ** 3 + 2 * c1 * c2
    assert eval_recurrence([c1, c2], 4) == c1 ** 4 + 3 * c1 ** 2 * c2 + c2 ** 2


def test_eval_recurrence_geometric():
    assert eval_recurrence([5], 3) == 125
    assert eval_recurrence([2, 0, 0], 6) == 64


def test_eval_recurrence_order_above_index():
    # u_2 of an order-3 recurrence ignores the c3 term (u_{-1} = 0)
    c1, c2, c3 = (MultiPoly.var(i) for i in range(3))
    assert eval_recurrence([c1, c2, c3], 2) == c1 ** 2 + c2


def test_fibonacci_values():
    assert fibonacci(0) == 1
    assert fibonacci(1) == 1
    assert fibonacci(4) == 5
    assert fibonacci(10) == 89
    for n in range(2, 31):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)


def test_fibonacci_equals_unit_recurrence():
    for n in range(0, 31):
        assert fibonacci(n) == eval_recurrence([1, 1], n)


def test_lucas_values():
    assert [lucas(n) for n in range(5)] == [2, 1, 3, 4, 7]
    assert lucas(10) == 123
    for n in range(3, 31):
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


def test_racci_values():
    for n in range(0, 12):
        assert racci(n, 2) == fibonacci(n)
    assert racci(5, 3) == 13
    assert racci(0, 4) == 1
    assert [racci(n, 3) for n in range(6)] == [1, 1, 2, 4, 7, 13]


def test_racci_multinomial_matches_iteration():
    assert racci_multinomial(4, 2) == 1 + 3 + 1
    assert racci_multinomial(1, 4) == 1
    assert racci_multinomial(5, 3) == 13
    for r in range(1, 5):
        for n in range(0, 11):
            value = racci_multinomial(n, r)
            assert value == racci(n, r) and type(value) is int, (n, r)


def test_racci_multinomial_cap():
    with pytest.raises(TooLarge):
        racci_multinomial(31, 2)


def test_binet_fib_exact():
    assert binet_fib(0) == QuadExt(1)
    assert binet_fib(4) == QuadExt(5)
    assert binet_fib(10) == QuadExt(89)
    for n in range(0, 31):
        value = binet_fib(n)
        assert value.radical == 0, n
        assert value.rational.denominator == 1, n
        assert value.rational == fibonacci(n), n


def test_binet_lucas_exact():
    assert binet_lucas(0) == QuadExt(2)
    assert binet_lucas(1) == QuadExt(1)
    assert binet_lucas(4) == QuadExt(7)
    for n in range(0, 31):
        value = binet_lucas(n)
        assert value.radical == 0, n
        assert value.rational == lucas(n), n


@pytest.mark.parametrize("n", [9950, 8192, 8191, 9207])
def test_binet_at_the_scale_of_the_benchmark(n):
    # numeric-det draws indices up to about 9,950; 2**13, 2**13 - 1 and an
    # odd index in between take different square-and-multiply paths
    assert binet_fib(n) == fibonacci(n)
    assert binet_lucas(n) == lucas(n)


def test_fibonacci_and_lucas_values_share_the_cli_guard(capsys, monkeypatch):
    for subject, last, iterate, closed, refused in (
            ("fib", 20576, fibonacci, binet_fib, (fibonacci, lucas, binet_fib, binet_lucas)),
            ("lucas", 20575, lucas, binet_lucas, (lucas, binet_lucas))):
        # the largest index that compute accepts prints by either route
        value = iterate(last)
        assert main(["compute", subject, "--n", str(last)]) == 0
        assert capsys.readouterr().out == f"{value}\n"
        assert closed(last) == value and scalar_str(closed(last)) == str(value)
        # the next is refused by the CLI and by every library function over it
        assert main(["compute", subject, "--n", str(last + 1)]) == 3
        assert "more than 4300 digits" in capsys.readouterr().err
        for fn in refused:
            with pytest.raises(TooLarge, match="more than 4300 digits"):
                fn(last + 1)
    # far past the cap the refusal comes before the loop or the power
    def work(*args):
        raise AssertionError("work before the guard")

    class Unpowered:
        __pow__ = work

    monkeypatch.setattr(recurrence, "range", work, raising=False)
    monkeypatch.setattr(recurrence, "PHI", Unpowered())
    for fn in (fibonacci, lucas, binet_fib, binet_lucas):
        with pytest.raises(TooLarge, match="more than 4300 digits"):
            fn(10 ** 9)


def test_negative_indices_rejected():
    for fn in (fibonacci, lucas, binet_fib, binet_lucas):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        racci(-1, 2)
    with pytest.raises(ValueError):
        eval_recurrence([1], -1)


def test_racci_is_guarded_before_its_list_of_ones():
    # ten million ones would take 80 MB; the refusal comes before the list
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="more than 4300 digits"):
            racci(10 ** 7, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    with pytest.raises(TooLarge, match="iteration steps exceed"):
        racci(10 ** 7, 1)  # u_n = 1 fits the digit cap, its ten million steps do not


def test_racci_and_eval_recurrence_each_check_their_iteration_once(monkeypatch):
    calls = []

    def spy(n, coeffs):
        calls.append(n)
        return caps.check_iteration(n, coeffs)
    monkeypatch.setattr(recurrence, "check_iteration", spy)
    expected = racci_multinomial(10, 4)  # checks no iteration
    assert racci(10, 4) == expected
    assert calls == [10]
    calls.clear()
    assert eval_recurrence([1, 1], 10) == 89  # f_10, with f_0 = f_1 = 1
    assert calls == [10]


def test_each_recurrence_command_checks_its_iteration_once(capsys, monkeypatch):
    # compute recurrence leaves the check to eval_recurrence; det C and
    # tilings, which never run it, check in the CLI before any work
    calls = []

    def spy(n, coeffs):
        calls.append(n)
        return caps.check_iteration(n, coeffs)
    monkeypatch.setattr(recurrence, "check_iteration", spy)
    monkeypatch.setattr(cli, "check_iteration", spy)
    for argv, out in ((["compute", "recurrence", "--coeffs", "1,1", "--n", "10"], "89\n"),
                      (["compute", "det", "--family", "C", "--coeffs", "1,1", "--n", "10"], "89\n"),
                      (["enumerate", "tilings", "--coeffs", "1,1", "--r", "2", "--n", "10"],
                       '{"count": 89, "total_weight": "89"}\n')):
        calls.clear()
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.endswith(out), argv
        assert calls == [10], argv

    def unreachable(*args):
        raise AssertionError("work before the cap")
    monkeypatch.setattr(cli, "build_C", unreachable)
    monkeypatch.setattr(cli, "tiling_weight", unreachable)
    nines = "9" * 1000
    for argv in (["compute", "det", "--family", "C"], ["enumerate", "tilings", "--r", "2"]):
        calls.clear()
        assert main([*argv, "--coeffs", f"{nines},{nines}", "--n", "10"]) == 3, argv
        assert capsys.readouterr().out == "", argv
        assert calls == [10], argv


def test_iteration_keeps_only_its_last_values():
    # a list of every u_m would hold 200,000 references, 1.6 MB
    tracemalloc.start()
    try:
        assert eval_recurrence([1], 200_000) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    assert eval_recurrence([1, 1, 1], 30) == racci(30, 3) == racci_multinomial(30, 3)
    assert eval_recurrence([2, 0, -1], 1) == 2  # r > n reads c_1 only


def test_integer_recurrence_is_held_to_the_iteration_caps():
    # integer coefficients are checked before the first step
    with pytest.raises(TooLarge, match="more than 4300 digits"):
        eval_recurrence([10 ** 1000, 10 ** 1000], 10)
    with pytest.raises(TooLarge, match="iteration steps exceed"):
        eval_recurrence([1], 10 ** 8)
    assert eval_recurrence([10 ** 1000], 4) == 10 ** 4000
