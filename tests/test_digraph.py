"""Linear-subdigraph enumeration and the determinant expansion."""

import gc
import random
from collections import Counter
from itertools import product

import pytest

from detrec import digraph
from detrec.combi import enumerate_tilings, tiling_sum, tiling_weight

from detrec.detmat import (
    SquareMatrix,
    build_C,
    build_F,
    build_G,
    build_S,
    det_bareiss,
    det_cofactor,
)
from detrec.digraph import (
    LinearSubdigraph,
    count_cycle_type,
    cycle_type_sum,
    det_via_lsd,
    digraph_dot,
    enumerate_lsds,
)
from detrec.errors import InvalidCycleType, TooLarge
from detrec.identities import coeff_name, symbolic_coeffs
from detrec.poly import MultiPoly, scalar_str, scalar_sum
from detrec.recurrence import racci
from detrec.symfunc import build_E, homogeneous, schur


def identity_matrix(n):
    return SquareMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def random_matrix(rng, n):
    return SquareMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])


def test_identity_has_single_all_loop_lsd():
    lsds = enumerate_lsds(identity_matrix(3))
    assert len(lsds) == 1
    (lsd,) = lsds
    assert lsd.cycles == ((0,), (1,), (2,))
    assert lsd.signed_weight == 1


def test_full_two_by_two_has_two_lsds():
    a, b, c, d = 2, 3, 5, 7
    lsds = enumerate_lsds(SquareMatrix([[a, b], [c, d]]))
    # the 2-cycle's raw weight b * c carries the sign of an even cycle
    assert [(l.cycles, l.signed_weight) for l in lsds] == [
        (((0,), (1,)), a * d),
        (((0, 1),), -b * c),
    ]


def test_lsd_is_an_immutable_record():
    # fields in this order, read by name, equal by value, assigned never
    lsd, _ = enumerate_lsds(SquareMatrix([[2, 3], [5, 7]]))
    assert LinearSubdigraph._fields == ("cycles", "signed_weight")
    assert (lsd.cycles, lsd.signed_weight) == (((0,), (1,)), 14)
    assert lsd == LinearSubdigraph(((0,), (1,)), 14)
    assert lsd != LinearSubdigraph(((0,), (1,)), -14)
    with pytest.raises(AttributeError):
        lsd.signed_weight = 0
    with pytest.raises(AttributeError):
        lsd.extra = 1


def test_lsds_of_fibonacci_matrix():
    lsds = enumerate_lsds(build_F(4))
    assert len(lsds) == 5
    # signed weights are all +1, matching the five tilings of the 4-board
    assert all(l.signed_weight == 1 for l in lsds)


def test_zero_weight_edges_are_absent():
    m = SquareMatrix([[1, 0], [5, 1]])
    lsds = enumerate_lsds(m)
    assert len(lsds) == 1  # the 2-cycle needs the zero (0,1) edge


def test_det_via_lsd_small():
    assert det_via_lsd(SquareMatrix([[2, 3], [5, 7]])) == 2 * 7 - 3 * 5
    assert det_via_lsd(identity_matrix(5)) == 1
    assert det_via_lsd(build_E(3, 2)) == homogeneous(3, 2)


def test_det_via_lsd_matches_other_algorithms_randomized():
    rng = random.Random(1234)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n)
        expected = det_cofactor(m)
        assert det_via_lsd(m) == expected
        assert det_bareiss(m) == expected


def test_det_via_lsd_matches_on_structured_families():
    a, b = MultiPoly.var(0), MultiPoly.var(1)
    instances = [build_E(m, nv) for m in range(1, 6) for nv in range(1, 4)]
    instances += [build_C([a, b], n) for n in range(1, 7)]
    instances += [build_G(n, 3) for n in range(1, 9)]
    instances += [build_F(n) for n in range(1, 9)]
    instances += [build_S(a, b, n) for n in range(3, 9)]
    for m in instances:
        expected = det_bareiss(m)
        assert det_via_lsd(m) == expected
        if m.n <= 8:
            assert det_cofactor(m) == expected


def test_sign_is_product_over_cycles():
    # the signed weight is the raw entries' product times (-1)**(|C|-1) per cycle
    rng = random.Random(7)
    for matrix in (build_G(6, 3), build_S(MultiPoly.var(0), MultiPoly.var(1), 5),
                   random_matrix(rng, 5)):
        lsds = enumerate_lsds(matrix)
        assert any(len(cyc) % 2 == 0 for lsd in lsds for cyc in lsd.cycles)
        for lsd in lsds:
            expected = 1
            for cyc in lsd.cycles:
                for k, v in enumerate(cyc):
                    expected = expected * matrix[v][cyc[(k + 1) % len(cyc)]]
                if len(cyc) % 2 == 0:
                    expected = -expected
            assert lsd.signed_weight == expected


def test_lsds_with_equal_weights_share_one_weight_object():
    # the 773 LSDs of C over four symbolic coefficients carry 27 distinct
    # weights, one object each, built once per multiset of cycle weights
    matrix = build_C(symbolic_coeffs(4), 11)
    lsds = enumerate_lsds(matrix)
    assert len(lsds) == 773
    objects = {id(lsd.signed_weight): lsd.signed_weight for lsd in lsds}
    assert len(objects) == 27
    assert len(set(objects.values())) == 27
    for lsd in lsds:
        expected = 1
        for cyc in lsd.cycles:
            expected = expected * signed_cycle_weight(matrix, cyc)
        assert lsd.signed_weight == expected
        assert scalar_str(lsd.signed_weight, coeff_name) == scalar_str(expected, coeff_name)


def signed_cycle_weight(matrix, cycle):
    weight = (-1) ** (len(cycle) - 1)
    for k, v in enumerate(cycle):
        weight = weight * matrix[v][cycle[(k + 1) % len(cycle)]]
    return weight


def test_enumerate_lsds_is_the_flattened_blocks():
    # each block is a first cycle and the row of the LSDs of the vertices it
    # leaves, one row object per vertex set left; the blocks, flattened, are
    # enumerate_lsds, weight objects included; a row holds an LSD as the sum
    # of its cycles' items, so texts make its text
    rng = random.Random(26)
    sparse = []
    while len(sparse) < 40:
        n = rng.randint(1, 7)
        # zero three times in four, as the LSD oracle draws its integers
        sparse.append(SquareMatrix([[rng.choice((0, 0, 0, rng.randint(-9, 9)))
                                     for _ in range(n)] for _ in range(n)]))
    a, b = MultiPoly.var(0), MultiPoly.var(1)
    for m in (build_C(symbolic_coeffs(4), 9), build_C([2, -1, 3], 8), build_G(8, 3),
              build_S(a, b, 6), build_E(6, 3), build_E(5, 5), *sparse):
        full = (1 << m.n) - 1
        lsds = enumerate_lsds(m)
        blocks, weights = digraph.lsd_blocks(m, lambda cycle: (cycle,), ())
        assert len(lsds) == sum(len(held) for _, (held, _, _), _ in blocks)
        flat = [(cycle, cycles, weights[unit + key])
                for cycle, (held, keys, _), unit in blocks for cycles, key in zip(held, keys)]
        # as many weight objects, one per multiset of cycle weights
        assert len({id(weight) for _, _, weight in flat}) == \
            len({id(lsd.signed_weight) for lsd in lsds})
        for lsd, (cycle, cycles, weight) in zip(lsds, flat, strict=True):
            assert lsd.cycles == (cycle,) + cycles
            assert lsd.signed_weight == weight
            expected = signed_cycle_weight(m, cycle)
            for rest_cycle in cycles:
                expected = expected * signed_cycle_weight(m, rest_cycle)
            assert weight == expected
        rows = {}  # the vertex set a block's cycle leaves -> its row's id
        for cycle, rests, _ in blocks:
            left = full - sum(1 << v for v in cycle)
            assert rows.setdefault(left, id(rests)) == id(rests)
            held, keys, counts = rests
            assert counts == Counter(keys)
            for cycles in held:
                assert sorted(v for c in cycles for v in c) == \
                    [v for v in range(m.n) if left >> v & 1]
        assert len(set(rows.values())) == len(rows)
        texts, _ = digraph.lsd_blocks(m, lambda cycle: f" {list(cycle)}", "")
        assert [(cycle, rests[:2], unit) for cycle, rests, unit in texts] == \
            [(cycle, (["".join(f" {list(c)}" for c in cycles) for cycles in held], keys), unit)
             for cycle, (held, keys, _), unit in blocks]


def test_each_closing_edge_is_negated_once_per_call():
    # an even cycle's sign is its closing edge's negation, computed once per
    # call beside the edge list, however many vertex sets' walks close a
    # cycle with that edge: here every entry below the diagonal, once
    negated = Counter()

    class Edge(int):
        def __neg__(self):
            negated[int(self)] += 1
            return -int(self)

    n = 6
    distinct = random.Random(3).sample(range(1, 1000), n * n)
    values = [distinct[i * n:(i + 1) * n] for i in range(n)]
    m = SquareMatrix([[Edge(v) for v in row] for row in values])
    lower = Counter(values[i][j] for i in range(n) for j in range(i))
    for route in (det_via_lsd, enumerate_lsds):
        negated.clear()
        route(m)
        assert negated == lower
    assert det_via_lsd(m) == det_bareiss(SquareMatrix(values))


def test_lsd_count_of_banded_unit_matrix_is_racci():
    for r in range(1, 5):
        for n in range(1, 11):
            lsds = enumerate_lsds(build_G(n, r))
            assert len(lsds) == racci(n, r), (n, r)


def test_banded_census_matches_multinomial():
    for k in range(2, 5):
        for n in range(1, 9):
            census = {}
            for lsd in enumerate_lsds(build_G(n, k)):
                # counts of cycle lengths >= 2; loops are implied by n
                lengths = Counter(len(cyc) for cyc in lsd.cycles if len(cyc) >= 2)
                key = tuple(sorted(lengths.items()))
                census[key] = census.get(key, 0) + 1
            for key, count in census.items():
                assert count == count_cycle_type(n, dict(key), k), (n, k, key)
            # and every valid type is realized
            assert sum(census.values()) == racci(n, k)


def test_count_cycle_type_values():
    assert count_cycle_type(4, {2: 1}, 2) == 3
    assert count_cycle_type(4, {}, 2) == 1
    assert count_cycle_type(5, {2: 1, 3: 1}, 3) == 2


def test_count_cycle_type_validation():
    with pytest.raises(InvalidCycleType):
        count_cycle_type(4, {2: 3}, 2)  # covers 6 > 4 vertices
    with pytest.raises(InvalidCycleType):
        count_cycle_type(6, {3: 1}, 2)  # length above the band
    with pytest.raises(InvalidCycleType):
        count_cycle_type(4, {1: 1}, 2)  # loops are implied, not listed
    with pytest.raises(InvalidCycleType):
        count_cycle_type(4, {2: -1}, 2)


@pytest.mark.parametrize("n, band", list(product(range(1, 11), range(1, 5))))
def test_cycle_type_sum_is_the_tiling_sum(n, band):
    # a tiling of n by parts <= band is an LSD of the width-band banded
    # digraph, a part t being a t-cycle of weight w_t
    rng = random.Random(n * 10 + band)
    x = [MultiPoly.var(i) for i in range(band)]
    for weights in ([rng.randint(-5, 5) for _ in range(band)], x,
                    [rng.randint(-3, 3) * x[rng.randrange(band)] + rng.randint(-3, 3)
                     for _ in range(band)]):
        tilings = list(enumerate_tilings(n, band))
        by_tilings = scalar_sum(tiling_weight(t, weights) for t in tilings)
        assert scalar_str(cycle_type_sum(n, weights)) == scalar_str(by_tilings), weights
        assert scalar_str(tiling_sum(tilings, weights)) == scalar_str(by_tilings), weights


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_lsds(identity_matrix(13))
    with pytest.raises(TooLarge):
        det_via_lsd(identity_matrix(13))


def test_enumeration_walks_each_vertex_set_once(monkeypatch):
    # a vertex set's cycles are memoised on it for one call, so _cycles
    # walks each set reached once, for either LSD route; a banded matrix's
    # cycles are blocks of consecutive vertices, so the sets reached are
    # the n suffixes
    walked = []
    cycles = digraph._cycles

    def spy(succ, onward, negated, unused):
        walked.append(unused)
        return cycles(succ, onward, negated, unused)
    monkeypatch.setattr(digraph, "_cycles", spy)
    n = 11
    suffixes = {(1 << n) - (1 << k) for k in range(n)}
    m = build_C(symbolic_coeffs(4), n)
    assert len(enumerate_lsds(m)) == racci(n, 4)
    assert len(walked) == len(set(walked)) == n
    assert set(walked) == suffixes
    walked.clear()
    assert det_via_lsd(m) == det_bareiss(m)
    assert len(walked) == len(set(walked)) == n
    assert set(walked) == suffixes
    enumerate_lsds(m)
    det_via_lsd(m)
    assert len(walked) == 3 * n  # no table outlives the call


def test_hessenberg_walks_grow_linearly(monkeypatch):
    # on a lower-Hessenberg digraph a walk climbs only from its start, so
    # the walks either LSD route makes grow linearly in n, not exponentially
    walks = []
    walk = digraph._walk

    def spy(*args):
        walks.append(args)
        return walk(*args)
    monkeypatch.setattr(digraph, "_walk", spy)
    counts = []
    for n in range(8, 13):
        m = build_C(symbolic_coeffs(4), n)
        walks.clear()
        assert len(enumerate_lsds(m)) == racci(n, 4)
        enumerated = len(walks)
        walks.clear()
        assert det_via_lsd(m) == det_bareiss(m)
        assert len(walks) == enumerated
        counts.append(enumerated)
    assert counts == [7 * (n - 2) for n in range(8, 13)]


def test_lsd_routes_leave_no_garbage_cycle():
    # the cycle walks, the table and the enumeration's recursion are freed
    # when the call returns, not held in a reference cycle until a garbage
    # collection
    gc.collect()
    gc.disable()
    try:
        for m in (build_G(10, 3), build_C(symbolic_coeffs(3), 8), build_F(9)):
            for route in (det_via_lsd, enumerate_lsds):
                route(m)
                assert gc.collect() == 0, route.__name__
    finally:
        gc.enable()


def test_schur_leaves_no_garbage_cycle():
    # the work model, which prices both matrices of (3, 2, 1), and the
    # expansion free their minors when schur returns
    gc.collect()
    gc.disable()
    try:
        for lam, n_vars in (((3, 2, 1), 4), ((33, 2), 5)):
            schur(lam, n_vars)
            assert gc.collect() == 0, lam
    finally:
        gc.enable()


def test_enumeration_extends_no_path_that_ends_in_no_lsd(counted_ints):
    # the last vertex has no edge, so no LSD exists: listing them costs only
    # the ring products of the cycle walks, the same as det_via_lsd's
    Counted, count = counted_ints
    n = 6
    m = SquareMatrix([[Counted(int(i < n - 1 and j < n - 1)) for j in range(n)]
                      for i in range(n)])
    assert det_via_lsd(m) == 0
    walks, count[0] = count[0], 0
    assert walks > 0
    assert enumerate_lsds(m) == []
    assert count[0] == walks


def test_enumeration_is_deterministic_and_canonical():
    lsds = enumerate_lsds(build_G(6, 3))
    again = enumerate_lsds(build_G(6, 3))
    assert lsds == again
    assert [l.cycles for l in lsds] == sorted(l.cycles for l in lsds)
    for lsd in lsds:
        covered = [v for cyc in lsd.cycles for v in cyc]
        assert sorted(covered) == list(range(6))
        assert all(cyc[0] == min(cyc) for cyc in lsd.cycles)


def test_dot_output():
    g = SquareMatrix([[1, 2], [0, 1]])
    dot = digraph_dot(g)
    assert dot.startswith("digraph {")
    assert "v1 -> v2 [label=\"2\"];" in dot
    assert "v2 -> v1" not in dot
    lsd = enumerate_lsds(g)[0]
    bold = digraph_dot(g, highlight=lsd)
    assert 'v1 -> v1 [label="1", style=bold];' in bold
