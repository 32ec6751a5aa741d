"""Lucas numbers, cyclic words and the determinant 2(a^n + b^n).

Cyclic words over {a, b} that avoid the pattern ab (read clockwise with a
fixed start) must be constant, so their weights sum to a^n + b^n.  The same
sum falls out of an inclusion-exclusion over marked ab-positions, and the
two of them account for every linear subdigraph of the matrix S except the
two spanning cycles, giving det(S) = 2(a^n + b^n).  At a = phi, b = psi the
half-determinant is the Lucas number.
"""

from detrec import (
    MultiPoly,
    build_A,
    build_S,
    binet_lucas,
    cyclic_avoiding_weight,
    det_bareiss,
    digraph_dot,
    enumerate_circular_tilings,
    enumerate_cyclic_words,
    enumerate_lsds,
    has_cyclic_occurrence,
    lsd_excluded_pair,
    lucas,
    pie_cyclic_sum,
    poly_str,
)

a, b = MultiPoly.var(0), MultiPoly.var(1)
ab = ("a", "b")

print("cyclic words of length 4 avoiding the cyclic pattern ab:")
kept = [w for w in enumerate_cyclic_words(4) if not has_cyclic_occurrence(w, "ab")]
print("  survivors:", kept)
print("  weight sum:", poly_str(cyclic_avoiding_weight(4), ab))
print("  inclusion-exclusion:", poly_str(pie_cyclic_sum(4), ab))

print()
print("the matrix S for n=4 and its determinant:")
matrix = build_S(a, b, 4)
print(matrix.pretty(ab))
print("  det(S) =", poly_str(det_bareiss(matrix), ab))

print()
print("the two excluded spanning cycles and the decomposition:")
l1, l2 = lsd_excluded_pair(4)
print("  signed weights:", poly_str(l1.signed_weight, ab), "and",
      poly_str(l2.signed_weight, ab))
decomposition = pie_cyclic_sum(4) + l1.signed_weight + l2.signed_weight
print("  pie + a^4 + b^4 =", poly_str(decomposition, ab))

print()
print("Lucas numbers along four independent routes:")
print("   n  iterate  closed-form  det(A)/2  circular-tilings")
for n in range(3, 11):
    half_det = det_bareiss(build_A(n)) / 2
    count = len(enumerate_circular_tilings(n))
    print(f"  {n:2d}  {lucas(n):7d}  {str(binet_lucas(n)):>11s}  "
          f"{str(half_det):>8s}  {count:16d}")

print()
print("DOT rendering of the digraph of S(3) with one LSD bolded:")
g = build_S(a, b, 3)
print(digraph_dot(g, highlight=enumerate_lsds(g)[0], names=ab))
