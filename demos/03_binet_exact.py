"""Binet's formula evaluated exactly in the quadratic field Q(sqrt 5).

The golden ratio phi = (1+sqrt(5))/2 and its conjugate psi are represented
exactly, as integers over a common denominator, so phi**n never loses a digit
and the radical parts cancel exactly where the theory says they must.
"""

from detrec import PHI, PSI, SQRT5, MultiPoly, binet_fib, fibonacci, substitute

print("exact golden-ratio arithmetic:")
print("  phi =", PHI)
print("  psi =", PSI)
print("  phi + psi =", PHI + PSI)
print("  phi * psi =", PHI * PSI)
print("  phi^2 =", PHI ** 2)
print("  phi^5 =", PHI ** 5)

print()
print("substituting phi, psi into x*y and x+y (a ring homomorphism):")
x, y = MultiPoly.var(0), MultiPoly.var(1)
print("  x*y ->", substitute(x * y, {0: PHI, 1: PSI}))
print("  x+y ->", substitute(x + y, {0: PHI, 1: PSI}))

print()
print("Binet: f_n = (phi^(n+1) - psi^(n+1)) / sqrt(5), exactly:")
for n in (0, 1, 4, 10, 30):
    closed = binet_fib(n)
    print(f"  n={n:2d}  closed form = {closed}  iteration = {fibonacci(n)}")
    assert closed.radical == 0
    assert closed == fibonacci(n)

print()
print("the radical part of phi^31 - psi^31 before normalization:")
difference = PHI ** 31 - PSI ** 31
print("  phi^31 - psi^31 =", difference)
print("  divided by sqrt(5):", difference / SQRT5)
