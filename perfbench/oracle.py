"""Correctness oracles that do not go through ``detrec.poly`` or ``detrec.detmat``.

Every identity in detrec is checked by comparing two routes that share one
polynomial core, so a bug in that core could corrupt both sides alike and
still pass.  The benchmark therefore checks each op's canonical output in
the parent process against an answer computed elsewhere:

- polynomial results with sympy: ``h_m`` as the sum of all degree-m
  monomials, ``2(a^n + b^n)``, the order-r recurrence by iteration over
  sympy polynomials, and Schur polynomials by the Jacobi-Trudi determinant
  expanded over all permutations;
- integer results with the integer routes of ``detrec.recurrence``
  (``racci``, ``lucas`` and ``eval_recurrence`` with int coefficients),
  which touch neither module above;
- ``enumerate`` summary counts with closed forms.

Answers are rendered in detrec's canonical text form by a formatter written
here, so an ordering or sign bug in ``poly_str`` shows too.
"""

from __future__ import annotations

import json
from itertools import permutations
from math import comb

import sympy
from sympy.polys.monomials import itermonomials

from detrec.recurrence import eval_recurrence, lucas, racci

from workloads import op_key

AB = ("a", "b")


def x_names(count: int) -> list[str]:
    return [f"x{i}" for i in range(count)]


def c_names(count: int) -> list[str]:
    return [f"c{i + 1}" for i in range(count)]


def canonical(poly: sympy.Poly, names) -> str:
    """detrec's text form: graded-lex descending, ``coef*x0^e0*...`` terms.

    ``poly``'s generators are the variables in index order and ``names``
    their printed names.
    """
    terms = sorted((t for t in poly.terms() if t[1]),
                   key=lambda t: (sum(t[0]), t[0]), reverse=True)
    pieces = []
    for i, (exps, coef) in enumerate(terms):
        coef = int(coef)
        factors = [] if abs(coef) == 1 and any(exps) else [str(abs(coef))]
        for name, e in zip(names, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if i == 0:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coef > 0 else f" - {body}")
    return "".join(pieces) or "0"


def _gens(count: int):
    return sympy.symbols(f"v0:{count}")


def homogeneous(m: int, n_vars: int) -> str:
    """``h_m`` in ``n_vars`` variables: every degree-m monomial once."""
    gens = _gens(n_vars)
    return canonical(sympy.Poly(sympy.Add(*itermonomials(gens, m, m)), *gens),
                     x_names(n_vars))


def _h_poly(k: int, gens) -> sympy.Poly:
    if k < 0:
        return sympy.Poly(0, *gens)
    return sympy.Poly(sympy.Add(*itermonomials(gens, k, k)), *gens)


def schur(parts, n_vars: int) -> str:
    """Jacobi-Trudi: ``s_lam = det(h_{lam_i - i + j})``, Leibniz expansion."""
    gens = _gens(n_vars)
    size = len(parts)
    rows = [[_h_poly(parts[i] - i + j, gens) for j in range(size)]
            for i in range(size)]
    total = sympy.Poly(0, *gens)
    for perm in permutations(range(size)):
        inversions = sum(1 for i in range(size) for j in range(i + 1, size)
                         if perm[i] > perm[j])
        term = sympy.Poly(-1 if inversions % 2 else 1, *gens)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return canonical(total, x_names(n_vars))


def symbolic_recurrence(multipliers, n: int) -> str:
    """``u_n`` for coefficients ``k_t * c_t`` by iteration over sympy polynomials."""
    gens = _gens(len(multipliers))
    coeffs = [k * sympy.Poly(g, *gens) for k, g in zip(multipliers, gens)]
    values = [sympy.Poly(1, *gens)]
    for m in range(1, n + 1):
        acc = sympy.Poly(0, *gens)
        for i, c in enumerate(coeffs, start=1):
            if m - i >= 0:
                acc = acc + c * values[m - i]
        values.append(acc)
    return canonical(values[n], c_names(len(multipliers)))


def _ab_poly(expr_of_ab) -> str:
    a, b = sympy.symbols("a b")
    return canonical(sympy.Poly(sympy.expand(expr_of_ab(a, b)), a, b), AB)


def two_powers(n: int, ka: int = 1, kb: int = 1) -> str:
    """``det S(ka*a, kb*b, n) = 2((ka*a)^n + (kb*b)^n)``."""
    return _ab_poly(lambda a, b: 2 * ((ka * a) ** n + (kb * b) ** n))


def cyclic_words_weight(n: int, avoid: str | None) -> tuple[int, str]:
    """Count and weight sum of the binary cyclic words of length ``n``."""
    if avoid is None:
        return 2 ** n, _ab_poly(lambda a, b: (a + b) ** n)
    if avoid in ("ab", "ba"):
        return 2, _ab_poly(lambda a, b: a ** n + b ** n)
    # no two cyclically adjacent copies of one letter: choose its k places
    # among n on a cycle in n/(n-k) * C(n-k, k) ways
    ways = {k: n * comb(n - k, k) // (n - k) for k in range(n // 2 + 1)}
    if avoid == "aa":
        return lucas(n), _ab_poly(lambda a, b: sum(w * a ** k * b ** (n - k)
                                                   for k, w in ways.items()))
    if avoid == "bb":
        return lucas(n), _ab_poly(lambda a, b: sum(w * b ** k * a ** (n - k)
                                                   for k, w in ways.items()))
    raise ValueError(f"no oracle for avoiding {avoid!r}")


def fibonacci(n: int) -> int:
    """``f_0 = f_1 = 1``, by integer iteration."""
    return eval_recurrence([1, 1], n)


# -- op answers -------------------------------------------------------------------

def _matrix_det(spec: dict) -> str:
    family = spec["family"]
    if family == "E":
        return homogeneous(spec["m"], spec["vars"])
    if family == "Csym":
        return symbolic_recurrence(spec["mult"], spec["n"])
    if family == "S":
        return two_powers(spec["n"], spec["a"], spec["b"])
    if family == "G":
        return str(racci(spec["n"], spec["r"]))
    if family == "C":
        return str(eval_recurrence(spec["coeffs"], spec["n"]))
    if family == "A":
        return str(2 * lucas(spec["n"]))
    raise ValueError(f"unknown family {family!r}")


def _verify_lhs(identity: str, p: dict) -> str:
    """Expected ``lhs`` of a verification report."""
    if identity == "hom-det":
        return homogeneous(p["m"], p["vars"])
    if identity == "sury":
        return homogeneous(p["n"], p["k"])
    if identity == "mclaughlin":
        return homogeneous(p["n"], 3)
    if identity == "two-var":
        return homogeneous(p["n"], 2)
    if identity == "recurrence-det":
        if p["coeffs"] == "symbolic":
            return symbolic_recurrence([1] * p["r"], p["n"])
        return str(eval_recurrence(p["coeffs"], p["n"]))
    if identity == "racci":
        return str(racci(p["n"], p["r"]))
    if identity in ("fib", "binet-fib"):
        return str(fibonacci(p["n"]))
    if identity == "binet-lucas":
        return str(lucas(p["n"]))
    if identity == "lucas-symbolic":
        return two_powers(p["n"])
    raise ValueError(f"unknown identity {identity!r}")


def _compute(subject: str, a: dict) -> str:
    """Expected stdout line of ``detrec compute``."""
    if subject == "fib":
        return str(fibonacci(a["n"]))
    if subject == "lucas":
        return str(lucas(a["n"]))
    if subject == "racci":
        return str(racci(a["n"], a["r"]))
    if subject == "h":
        return homogeneous(a["k"], a["vars"])
    if subject == "recurrence":
        if "coeffs" in a:
            return str(eval_recurrence(a["coeffs"], a["n"]))
        return symbolic_recurrence([1] * a["r"], a["n"])
    if subject == "schur":
        return schur(a["parts"], a["vars"])
    if subject == "det":
        family = a["family"]
        if family == "C":
            return _matrix_det({"family": "C", "coeffs": a["coeffs"], "n": a["n"]})
        if family == "S":
            return two_powers(a["n"])
        if family == "E":
            return homogeneous(a["n"], a["vars"])
        return _matrix_det({"family": family, "n": a["n"], "r": a.get("r")})
    raise ValueError(f"unknown subject {subject!r}")


def _enumerate(subject: str, a: dict) -> tuple[int, str]:
    """Expected ``(count, total_weight)`` summary of ``detrec enumerate``."""
    n = a["n"]
    if subject == "tilings":
        # compositions of n with parts <= r, weighted by the recurrence
        if "coeffs" in a:
            return racci(n, a["r"]), str(eval_recurrence(a["coeffs"], n))
        return racci(n, a["r"]), symbolic_recurrence([1] * a["r"], n)
    if subject == "circular-tilings":
        return lucas(n), str(lucas(n))
    if subject == "lsds":
        # banded digraph: its linear subdigraphs are the tilings
        family = a["family"]
        if family == "C" and "coeffs" in a:
            return racci(n, len(a["coeffs"])), str(eval_recurrence(a["coeffs"], n))
        if family == "C":
            return racci(n, a["r"]), symbolic_recurrence([1] * a["r"], n)
        r = 2 if family == "F" else a["r"]
        return racci(n, r), str(racci(n, r))
    if subject == "words":
        return comb(n + a["vars"] - 1, n), homogeneous(n, a["vars"])
    if subject == "cyclic-words":
        return cyclic_words_weight(n, a.get("avoid"))
    raise ValueError(f"unknown subject {subject!r}")


class Oracle:
    """Checks op outputs; each distinct op's answer is computed once."""

    def __init__(self):
        self._answers: dict[str, object] = {}

    def answer(self, op: dict):
        key = op_key(op)
        if key not in self._answers:
            self._answers[key] = _answer(op)
        return self._answers[key]

    def check(self, op: dict, out) -> bool:
        """Whether ``out``, the output the worker returned, is right."""
        want = self.answer(op)
        kind = op["kind"]
        if kind == "verify":
            lhs, _rhs, passed = out
            return passed is True and lhs == want
        if kind == "cli":
            if out["code"] != 0:
                return False
            if op["cmd"] == "compute":
                return out["lines"] == 1 and out["last"] == want
            count, total = want
            summary = json.loads(out["last"])
            return (summary == {"count": count, "total_weight": total}
                    and out["lines"] == count + 1)
        return out == want


def _answer(op: dict):
    kind = op["kind"]
    if kind == "verify":
        return _verify_lhs(op["identity"], op["params"])
    if kind == "det":
        return _matrix_det(op["matrix"])
    if kind == "schur":
        return schur(op["parts"], op["vars"])
    if kind == "binet_fib":
        return str(fibonacci(op["n"]))
    if kind == "binet_lucas":
        return str(lucas(op["n"]))
    if kind == "cli":
        if op["cmd"] == "compute":
            return _compute(op["subject"], op["args"])
        return _enumerate(op["subject"], op["args"])
    raise ValueError(f"unknown op kind {kind!r}")
