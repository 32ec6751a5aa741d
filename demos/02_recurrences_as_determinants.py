"""Linear recurrences as determinants, through weighted board tilings.

The order-r recurrence u_n = c_1 u_{n-1} + ... + c_r u_{n-r} (u_0 = 1) sums
the weights of all tilings of an n-board by tiles of length at most r, and
those tilings biject onto the linear subdigraphs of a banded matrix C whose
determinant is therefore u_n.
"""

from detrec import (
    build_C,
    build_F,
    build_G,
    det_bareiss,
    enumerate_lsds,
    enumerate_tilings,
    eval_recurrence,
    fibonacci,
    poly_str,
    racci,
    racci_multinomial,
    symbolic_coeffs,
    tiling_to_lsd,
    tiling_weight,
)

names = lambda i: f"c{i + 1}"
coeffs = symbolic_coeffs(2)

print("order-2 recurrence with symbolic coefficients, n = 4:")
print("  u_4 by iteration =", poly_str(eval_recurrence(coeffs, 4), names))
print("  det(C) =", poly_str(det_bareiss(build_C(coeffs, 4)), names))

print()
print("the matrix C for r=2, n=4:")
print(build_C(coeffs, 4).pretty(names))

print()
print("tiling <-> linear subdigraph bijection on the 4-board:")
for tiling in enumerate_tilings(4, 2):
    lsd = tiling_to_lsd(tiling, coeffs)
    cycles = [[v + 1 for v in cyc] for cyc in lsd.cycles]
    print(f"  tiles {list(tiling)}  ->  cycles {cycles}  "
          f"weight {poly_str(lsd.signed_weight, names)}")
total = sum((tiling_weight(t, coeffs) for t in enumerate_tilings(4, 2)), 0)
print("  sum of tiling weights =", poly_str(total, names))

print()
print("unit coefficients give the r-acci numbers (here r = 3):")
for n in range(1, 9):
    assert det_bareiss(build_G(n, 3)) == racci(n, 3) == racci_multinomial(n, 3)
print("  det(G(n,3)) for n=1..8:", [racci(n, 3) for n in range(1, 9)])

print()
print("and r = 2 gives Fibonacci numbers as tridiagonal determinants:")
print("  det(F(n)) for n=1..10:", [det_bareiss(build_F(n)) for n in range(1, 11)])
print("  fibonacci(10) =", fibonacci(10))

print()
print("the five linear subdigraphs behind det(F(4)) = 5:")
for lsd in enumerate_lsds(build_F(4)):
    print("  cycles", [[v + 1 for v in cyc] for cyc in lsd.cycles],
          "signed weight", lsd.signed_weight)
