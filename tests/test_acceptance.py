"""Acceptance sweep: every identity at its full documented grid.

Each criterion runs as one test that prints a single PASS/FAIL line; all
comparisons are exact equalities of canonical values (tolerance zero).
"""

import random
from collections import Counter

from detrec.combi import (
    cyclic_avoiding_weight,
    enumerate_circular_tilings,
    enumerate_tilings,
    lsd_excluded_pair,
    pie_cyclic_sum,
    tiling_to_lsd,
    tiling_weight,
)
from detrec.detmat import (
    SquareMatrix,
    build_A,
    build_C,
    build_F,
    build_G,
    build_S,
    det_bareiss,
    det_cofactor,
)
from detrec.digraph import (
    count_cycle_type,
    det_via_lsd,
    enumerate_lsds,
)
from detrec.identities import (
    symbolic_coeffs,
    verify_hom_det,
    verify_lucas_symbolic,
    verify_mclaughlin,
    verify_recurrence_det,
    verify_sury,
    verify_two_var,
)
from detrec.poly import MultiPoly, QuadExt
from detrec.recurrence import (
    binet_fib,
    binet_lucas,
    eval_recurrence,
    fibonacci,
    lucas,
    racci,
    racci_multinomial,
)
from detrec.symfunc import build_E, homogeneous

A, B = MultiPoly.var(0), MultiPoly.var(1)


def conclude(criterion: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict}")
    assert not failures, failures[:5]


def test_criterion_01_hom_det_full_grid():
    failures = []
    for m in range(1, 7):
        for n_vars in range(1, 5):
            if det_bareiss(build_E(m, n_vars)) != homogeneous(m, n_vars):
                failures.append((m, n_vars))
    conclude("1 (band determinant equals h_m, 24 cases)", failures)


def test_criterion_02_sury_identity_and_census():
    failures = []
    for n in range(1, 9):
        for k in range(2, 5):
            if not verify_sury(n, k).passed:
                failures.append(("identity", n, k))
    for k in range(2, 5):
        for n in range(1, 9):
            census = {}
            for lsd in enumerate_lsds(build_G(n, k)):
                # counts of cycle lengths >= 2; loops are implied by n
                lengths = Counter(len(cyc) for cyc in lsd.cycles if len(cyc) >= 2)
                key = tuple(sorted(lengths.items()))
                census[key] = census.get(key, 0) + 1
            for key, count in census.items():
                if count != count_cycle_type(n, dict(key), k):
                    failures.append(("census", n, k, key))
    conclude("2 (Sury identity n<=8 k<=4 + cycle-type census)", failures)


def test_criterion_03_mclaughlin():
    failures = [n for n in range(1, 9) if not verify_mclaughlin(n).passed]
    conclude("3 (McLaughlin three-variable identity n<=8)", failures)


def test_criterion_04_two_variable_identity():
    failures = [n for n in range(1, 13) if not verify_two_var(n).passed]
    conclude("4 (two-variable identity n<=12)", failures)


def test_criterion_05_recurrence_three_way_and_bijection():
    failures = []
    for r in range(1, 4):
        for n in range(1, 9):
            if not verify_recurrence_det(symbolic_coeffs(r), n).passed:
                failures.append(("symbolic", r, n))
    rng = random.Random(20250810)
    for _ in range(50):
        r = rng.randint(1, 4)
        n = rng.randint(1, 10)
        coeffs = [rng.randint(-5, 5) for _ in range(r)]
        if not verify_recurrence_det(coeffs, n).passed:
            failures.append(("random", tuple(coeffs), n))
    for r in range(1, 5):
        coeffs = symbolic_coeffs(r)
        for n in range(1, 11):
            tilings = enumerate_tilings(n, r)
            images = {}
            for t in tilings:
                lsd = tiling_to_lsd(t, coeffs)
                if lsd.cycles in images:
                    failures.append(("injective", r, n, t))
                images[lsd.cycles] = lsd
                if lsd.signed_weight != tiling_weight(t, coeffs):
                    failures.append(("weight", r, n, t))
            lsds = enumerate_lsds(build_C(coeffs, n))
            if set(images) != {l.cycles for l in lsds}:
                failures.append(("total", r, n))
            for lsd in lsds:
                if images[lsd.cycles].signed_weight != lsd.signed_weight:
                    failures.append(("matrix-weight", r, n, lsd.cycles))
    conclude("5 (recurrence = tilings = det(C) + bijection)", failures)


def test_criterion_06_racci_and_fibonacci_determinants():
    failures = []
    for n in range(1, 11):
        for r in range(1, 5):
            value = racci(n, r)
            if det_bareiss(build_G(n, r)) != value:
                failures.append(("detG", n, r))
            if racci_multinomial(n, r) != value:
                failures.append(("multinomial", n, r))
    for n in range(1, 13):
        if det_bareiss(build_F(n)) != fibonacci(n):
            failures.append(("detF", n))
    if fibonacci(10) != 89:
        failures.append(("f10", fibonacci(10)))
    conclude("6 (r-acci and Fibonacci determinants)", failures)


def test_criterion_07_binet_fibonacci_exact():
    failures = []
    for n in range(0, 31):
        value = binet_fib(n)
        if value.radical != 0 or value != QuadExt(fibonacci(n)):
            failures.append(n)
    conclude("7 (Binet Fibonacci exact in Q(sqrt 5), n<=30)", failures)


def test_criterion_08_two_variable_circulant_determinant():
    failures = []
    for n in range(3, 9):
        if det_bareiss(build_S(A, B, n)) != 2 * (A ** n + B ** n):
            failures.append(("det", n))
    for n in range(3, 11):
        pie = pie_cyclic_sum(n)
        if pie != cyclic_avoiding_weight(n):
            failures.append(("pie-vs-filter", n))
        l1, l2 = lsd_excluded_pair(n)
        decomposition = pie + l1.signed_weight + l2.signed_weight
        if n <= 8 and det_bareiss(build_S(A, B, n)) != decomposition:
            failures.append(("decomposition", n))
        if decomposition != 2 * (A ** n + B ** n):
            failures.append(("closed-form", n))
    if not verify_lucas_symbolic(4).lhs == "2*a^4 + 2*b^4":
        failures.append(("n4-display",))
    conclude("8 (det(S) = 2(a^n+b^n) + proof decomposition)", failures)


def test_criterion_09_lucas_four_routes():
    failures = []
    if [lucas(0), lucas(1), lucas(2)] != [2, 1, 3]:
        failures.append(("seeds",))
    if lucas(10) != 123:
        failures.append(("l10", lucas(10)))
    for n in range(3, 13):
        value = lucas(n)
        if binet_lucas(n) != QuadExt(value):
            failures.append(("binet", n))
        if det_bareiss(build_A(n)) / 2 != QuadExt(value):
            failures.append(("detA", n))
        if len(enumerate_circular_tilings(n)) != value:
            failures.append(("tilings", n))
    conclude("9 (Lucas numbers along four routes, n<=12)", failures)


def test_criterion_10_determinant_algorithms_agree():
    failures = []
    rng = random.Random(8675309)
    for index in range(20):
        n = rng.randint(1, 6)
        m = SquareMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        reference = det_cofactor(m)
        if det_bareiss(m) != reference or det_via_lsd(m) != reference:
            failures.append(("random", index))
    instances = [build_E(m, nv) for m in range(1, 7) for nv in range(1, 5)]
    instances += [build_C(symbolic_coeffs(r), n)
                  for r in range(1, 5) for n in range(1, 9)]
    instances += [build_G(n, r) for n in range(1, 9) for r in range(1, 5)]
    instances += [build_F(n) for n in range(1, 9)]
    instances += [build_S(A, B, n) for n in range(3, 9)]
    instances += [build_A(n) for n in range(3, 9)]
    for m in instances:
        reference = det_cofactor(m)
        if det_bareiss(m) != reference or det_via_lsd(m) != reference:
            failures.append(("structured", repr(m)))
    conclude("10 (lsd = cofactor = bareiss everywhere)", failures)


def test_criterion_11_mutation_sensitivity():
    failures = []

    # one band sign of C: the superdiagonal -c2 flipped to +c2
    caught = False
    c = symbolic_coeffs(2)
    for n in range(2, 6):
        mutated = build_C(c, n)
        for i in range(n - 1):
            mutated = mutated.with_entry(i, i + 1, -mutated[i][i + 1])
        if det_bareiss(mutated) != eval_recurrence(c, n):
            caught = True
    if not caught:
        failures.append("C band flip undetected")

    # the (1,2) entry of S
    caught = False
    for n in range(3, 6):
        mutated = build_S(A, B, n).with_entry(0, 1, build_S(A, B, n)[0][1] * -1)
        if det_bareiss(mutated) != 2 * (A ** n + B ** n):
            caught = True
    if not caught:
        failures.append("S (1,2) flip undetected")

    # one entry of E: the e2 entry at (1,2)
    caught = False
    for m in range(2, 6):
        mutated = build_E(m, 3).with_entry(0, 1, -build_E(m, 3)[0][1])
        if det_bareiss(mutated) != homogeneous(m, 3):
            caught = True
    if not caught:
        failures.append("E entry flip undetected")

    conclude("11 (three sign mutations are caught at n<=5)", failures)
