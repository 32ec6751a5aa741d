"""One verifier per identity, each returning a self-evidencing report.

Every verifier computes the two (or more) sides of an identity along
independent routes and reports pass or fail by comparing their exact
values.  ``passed`` is true exactly when every route's value equals the
first route's (``==`` across ``int``, ``MultiPoly`` and ``QuadExt``);
``lhs`` is the first route's canonical string, and ``rhs`` is the string of
the first route that disagrees with it, so a failing report shows the
actual mismatch, or ``lhs`` again when all agree.

Each identity is declared once: the ``_identity`` decorator on its route
function registers it in ``IDENTITIES``, with each argument's report name,
CLI flag, least value and cap, and the names its variables print as.  A
route function returns its routes' exact values (``int``, ``MultiPoly``,
``QuadExt``); the verifier compares them by value and serializes the
first, and the first that differs from it, with ``scalar_str``.
Sury's expansion and the r-acci multinomial sum are both
``digraph.cycle_type_sum``, and the recurrence's tiling route is
``combi.tiling_sum``.  The expansions that are weighted sums of powers
(Sury's, the McLaughlin and two-variable left sides, and through
``combi.pie_cyclic_sum`` the cyclic-word layers) are each one
``poly.power_sum``, which builds each power once per sum.  ``verify_all`` runs every registered verifier
over its grid and is the repository's primary gate.
"""

from __future__ import annotations

import functools
import json
import random
import time
from collections import namedtuple
from itertools import product
from math import comb
from typing import Callable, Iterable, NamedTuple, Sequence

from .combi import (
    enumerate_circular_tilings,
    enumerate_tilings,
    lsd_excluded_pair,
    pie_cyclic_sum,
    tiling_sum,
)
from .detmat import build_A, build_C, build_F, build_G, build_S, det_bareiss
from .digraph import cycle_type_sum
from .errors import DimensionTooSmall, TooLarge
from .poly import MultiPoly, VarNames, exact_divide, power_sum, scalar_str
from .recurrence import (
    binet_fib,
    binet_lucas,
    eval_recurrence,
    fibonacci,
    lucas,
    racci,
    racci_multinomial,
)
from .symfunc import bialternant, build_E, elementary, homogeneous, signed_elementary


class VerificationReport(NamedTuple):
    identity: str
    params: dict
    lhs: str
    rhs: str
    passed: bool
    elapsed_ms: float

    def to_json(self) -> str:
        return json.dumps({**self._asdict(), "elapsed_ms": round(self.elapsed_ms, 3)})


# a verifier argument: its report name, CLI flag, least value and cap (a
# list's cap is on its length)
Arg = namedtuple("Arg", "name flag least cap")


class Identity(NamedTuple):
    """A verifier, its arguments in the order it takes them, and its sweep grid."""

    name: str
    verify: Callable[..., VerificationReport]
    args: tuple[Arg, ...]
    grid: Callable[[dict[str, range], int], Iterable[tuple]]

    def points(self, max_n: int, seed: int = 0) -> Iterable[tuple]:
        """The sweep's argument tuples, each argument's range clipped to ``max_n``."""
        return self.grid({a.name: range(a.least, min(a.cap, max_n) + 1) for a in self.args}, seed)

    def check(self, values: dict[str, int]) -> None:
        """Raise ``DimensionTooSmall`` or ``TooLarge`` for a value outside its argument's bounds."""
        for a in self.args:
            if values[a.name] < a.least:
                raise DimensionTooSmall(f"{self.name} needs {a.name} >= {a.least}")
        for a in self.args:
            if values[a.name] > a.cap:
                limits = ", ".join(f"{a.name} <= {a.cap}" for a in self.args)
                raise TooLarge(f"{self.name} capped at {limits}")


IDENTITIES: dict[str, Identity] = {}


def _identity(name: str, *args: Arg, grid=lambda ranges, seed: product(*ranges.values()),
              params=None, var_names: VarNames = None):
    """Register the decorated function, which returns its routes' values, as ``name``.

    The verifier that replaces it checks the bounds of ``args``, then
    computes the routes and compares each value with the first, timed.  It
    serializes with ``scalar_str(value, var_names)`` only the first value
    and the first that differs from it: equal values print equally, so a
    passing report prints its agreed value once.  ``grid`` maps the
    argument ranges and a seed to argument tuples; ``params`` maps the
    arguments to the report's parameters, by default keyed by the argument
    names.
    """
    names = [a.name for a in args]

    def register(routes: Callable[..., list]):
        @functools.wraps(routes)
        def verify(*values) -> VerificationReport:
            started = time.perf_counter()
            report_params = params(*values) if params else dict(zip(names, values))
            entry.check(report_params)
            first, *others = routes(*values)
            mismatches = [value for value in others if value != first]
            lhs = scalar_str(first, var_names)
            rhs = scalar_str(mismatches[0], var_names) if mismatches else lhs
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            return VerificationReport(name, report_params, lhs, rhs, not mismatches, elapsed_ms)

        entry = IDENTITIES[name] = Identity(name, verify, args, grid)
        return verify
    return register


@_identity("hom-det", Arg("m", "--n", 1, 6), Arg("vars", "--vars", 1, 4))
def verify_hom_det(m: int, n_vars: int):
    """Band-matrix determinant of elementary polynomials vs ``h_m``."""
    return [det_bareiss(build_E(m, n_vars)), homogeneous(m, n_vars)]


# k = 1 leaves h_n = e_1**n, so the sweep starts at k = 2
@_identity("sury", Arg("n", "--n", 1, 8), Arg("k", "--k", 1, 4),
           grid=lambda ranges, seed: product(ranges["n"], ranges["k"][1:]))
def verify_sury(n: int, k: int):
    """Power-sum expansion of ``h_n`` in the elementary polynomial basis.

    The right side is the LSD expansion of ``det E`` summed cycle type by
    cycle type: the multinomial count times ``e_1**loops`` times
    ``((-1)**(t-1) e_t)**i_t``.
    """
    return [homogeneous(n, k), cycle_type_sum(n, signed_elementary(k, k))]


@_identity("mclaughlin", Arg("n", "--n", 1, 8))
def verify_mclaughlin(n: int):
    """Three-variable expansion of ``h_n`` vs the explicit alternant quotient.

    The quotient side divides the displayed degree-(n+3) numerator by
    ``(x-y)(x-z)(y-z)`` exactly, never substituting values, and is
    cross-checked against the one-row Schur polynomial, taken as the
    alternant quotient (``schur`` would build it as ``h_n`` itself), and
    ``h_n``.
    """
    x, y, z = (MultiPoly.var(i) for i in range(3))
    e1, e2, e3 = (elementary(t, 3) for t in (1, 2, 3))
    lhs = power_sum([e1, e2, e3],
                    [((-1) ** i * comb(i + j, j) * comb(n - i - 2 * j, i + j),
                      (n - 2 * i - 3 * j, i, j))
                     for i in range(n // 2 + 1) for j in range((n - 2 * i) // 3 + 1)])
    numerator = (x * y * (x ** (n + 1) - y ** (n + 1))
                 - x * z * (x ** (n + 1) - z ** (n + 1))
                 + y * z * (y ** (n + 1) - z ** (n + 1)))
    denominator = (x - y) * (x - z) * (y - z)
    return [lhs, exact_divide(numerator, denominator), bialternant((n,), 3), homogeneous(n, 3)]


@_identity("two-var", Arg("n", "--n", 1, 12))
def verify_two_var(n: int):
    """Two-variable alternating binomial sum vs ``x**n + x**(n-1) y + ... + y**n``."""
    x, y = MultiPoly.var(0), MultiPoly.var(1)
    lhs = power_sum([x + y, x * y],
                    [((-1) ** i * comb(n - i, i), (n - 2 * i, i)) for i in range(n // 2 + 1)])
    return [lhs, homogeneous(n, 2)]


def symbolic_coeffs(r: int) -> list[MultiPoly]:
    """Independent symbolic coefficients ``c1..cr`` (serialized as such)."""
    return [MultiPoly.var(i) for i in range(r)]


def coeff_name(i: int) -> str:
    """Printed name of variable ``i`` of ``symbolic_coeffs``: ``c1`` for ``x0``, and so on."""
    return f"c{i + 1}"


def _recurrence_grid(ranges: dict[str, range], seed: int) -> Iterable[tuple]:
    """Symbolic coefficients for ``r <= 3``, ``n <= 8``, then ten seeded integer vectors."""
    for r, n in product(ranges["r"][:3], ranges["n"][:8]):
        yield symbolic_coeffs(r), n
    rng = random.Random(seed)
    for _ in range(10):
        r = rng.randint(ranges["r"].start, ranges["r"][-1])
        n = rng.randint(ranges["n"].start, ranges["n"][-1])
        yield [rng.randint(-5, 5) for _ in range(r)], n


@_identity("recurrence-det", Arg("r", "--coeffs", 1, 4), Arg("n", "--n", 1, 10),
           grid=_recurrence_grid, var_names=coeff_name,
           params=lambda coeffs, n: {
               "coeffs": ("symbolic" if any(isinstance(c, MultiPoly) for c in coeffs)
                          else list(coeffs)),
               "r": len(coeffs), "n": n})
def verify_recurrence_det(coeffs: Sequence, n: int):
    """Three-way check: recurrence iteration, band determinant, tiling weight sum.

    The iteration comes first: it holds integer coefficients to the digit
    and step caps (``caps.check_iteration``) before any route runs.
    """
    return [eval_recurrence(coeffs, n), det_bareiss(build_C(coeffs, n)),
            tiling_sum(enumerate_tilings(n, len(coeffs)), coeffs)]


@_identity("racci", Arg("n", "--n", 1, 10), Arg("r", "--r", 1, 4))
def verify_racci(n: int, r: int):
    """r-acci number: iteration, unit-band determinant, multinomial sum."""
    return [racci(n, r), det_bareiss(build_G(n, r)), racci_multinomial(n, r)]


@_identity("fib", Arg("n", "--n", 1, 12))
def verify_fib(n: int):
    """Fibonacci number vs tridiagonal determinant."""
    return [fibonacci(n), det_bareiss(build_F(n))]


@_identity("binet-fib", Arg("n", "--n", 0, 30))
def verify_binet_fib(n: int):
    """Golden-ratio closed form vs iteration (and the determinant when small)."""
    by_det = [det_bareiss(build_F(n))] if 1 <= n <= 12 else []
    return [binet_fib(n), fibonacci(n), *by_det]


@_identity("binet-lucas", Arg("n", "--n", 3, 30))
def verify_binet_lucas(n: int):
    """Lucas number along four routes: iteration, closed form, determinant, tilings."""
    routes = [lucas(n), binet_lucas(n)]
    if n <= 12:
        routes.append(det_bareiss(build_A(n)) / 2)
    if n <= 15:
        routes.append(len(enumerate_circular_tilings(n)))
    return routes


@_identity("lucas-symbolic", Arg("n", "--n", 3, 8), var_names=("a", "b"))
def verify_lucas_symbolic(n: int):
    """Symbolic ``det(S) = 2(a**n + b**n)`` plus its proof decomposition.

    The third route rebuilds the determinant as the cyclic-word
    inclusion-exclusion sum plus the signed weights of the two excluded
    spanning cycles.
    """
    a, b = MultiPoly.var(0), MultiPoly.var(1)
    l1, l2 = lsd_excluded_pair(n)
    return [det_bareiss(build_S(a, b, n)), 2 * (a ** n + b ** n),
            pie_cyclic_sum(n) + l1.signed_weight + l2.signed_weight]


def verify_all(max_n: int, seed: int = 0) -> list[VerificationReport]:
    """Every registered verifier over its grid, each axis capped by ``max_n``.

    The report list is sorted by identity and parameters, so the output
    order is independent of execution order.  Failures are data, not
    exceptions.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    reports = [entry.verify(*args) for entry in IDENTITIES.values()
               for args in entry.points(max_n, seed)]
    reports.sort(key=lambda rep: (rep.identity, json.dumps(rep.params, sort_keys=True)))
    return reports
