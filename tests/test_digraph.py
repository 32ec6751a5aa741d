"""Linear-subdigraph enumeration and the determinant expansion."""

import random

import pytest

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
    count_cycle_type,
    cycle_type,
    det_via_lsd,
    digraph_dot,
    enumerate_lsds,
    from_matrix,
)
from detrec.errors import InvalidCycleType, TooLarge
from detrec.poly import MultiPoly
from detrec.recurrence import racci
from detrec.symfunc import build_E, homogeneous


def identity_matrix(n):
    return SquareMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def random_matrix(rng, n):
    return SquareMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])


def test_from_matrix_weights():
    g = from_matrix(SquareMatrix([[1, 2], [3, 4]]))
    assert g.n == 2
    assert g.weight(0, 1) == 2
    assert sorted(g.edges()) == [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]


def test_identity_has_single_all_loop_lsd():
    lsds = enumerate_lsds(from_matrix(identity_matrix(3)))
    assert len(lsds) == 1
    (lsd,) = lsds
    assert lsd.cycles == ((0,), (1,), (2,))
    assert lsd.weight == 1
    assert lsd.cycle_count == 3
    assert lsd.sign == 1


def test_full_two_by_two_has_two_lsds():
    a, b, c, d = 2, 3, 5, 7
    lsds = enumerate_lsds(from_matrix(SquareMatrix([[a, b], [c, d]])))
    assert [(l.cycles, l.weight) for l in lsds] == [
        (((0,), (1,)), a * d),
        (((0, 1),), b * c),
    ]
    assert [l.sign for l in lsds] == [1, -1]


def test_lsds_of_fibonacci_matrix():
    lsds = enumerate_lsds(from_matrix(build_F(4)))
    assert len(lsds) == 5
    # signed weights are all +1, matching the five tilings of the 4-board
    assert all(l.signed_weight == 1 for l in lsds)


def test_zero_weight_edges_are_absent():
    m = SquareMatrix([[1, 0], [5, 1]])
    lsds = enumerate_lsds(from_matrix(m))
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
    for matrix in (build_G(6, 3), build_S(MultiPoly.var(0), MultiPoly.var(1), 5)):
        for lsd in enumerate_lsds(from_matrix(matrix)):
            per_cycle = 1
            for cyc in lsd.cycles:
                if len(cyc) % 2 == 0:
                    per_cycle = -per_cycle
            assert lsd.sign == per_cycle


def test_lsd_count_of_banded_unit_matrix_is_racci():
    for r in range(1, 5):
        for n in range(1, 11):
            lsds = enumerate_lsds(from_matrix(build_G(n, r)))
            assert len(lsds) == racci(n, r), (n, r)


def test_banded_census_matches_multinomial():
    for k in range(2, 5):
        for n in range(1, 9):
            census = {}
            for lsd in enumerate_lsds(from_matrix(build_G(n, k))):
                key = tuple(sorted(cycle_type(lsd).items()))
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


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        enumerate_lsds(from_matrix(identity_matrix(13)))
    with pytest.raises(TooLarge):
        det_via_lsd(identity_matrix(13))


def test_cap_override_via_environment(monkeypatch):
    monkeypatch.setenv("DETREC_MAX_N", "14")
    assert det_via_lsd(build_F(13)) == 377
    monkeypatch.setenv("DETREC_MAX_N", "200")  # clamped to the hard limit
    with pytest.raises(TooLarge):
        enumerate_lsds(from_matrix(identity_matrix(15)))


@pytest.mark.parametrize("raw", ["-3", "0", "abc"])
def test_invalid_cap_override_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("DETREC_MAX_N", raw)
    with pytest.raises(ValueError, match="DETREC_MAX_N") as exc:
        det_via_lsd(build_F(3))
    assert not isinstance(exc.value, TooLarge)


def test_enumeration_is_deterministic_and_canonical():
    lsds = enumerate_lsds(from_matrix(build_G(6, 3)))
    again = enumerate_lsds(from_matrix(build_G(6, 3)))
    assert lsds == again
    assert [l.cycles for l in lsds] == sorted(l.cycles for l in lsds)
    for lsd in lsds:
        covered = [v for cyc in lsd.cycles for v in cyc]
        assert sorted(covered) == list(range(6))
        assert all(cyc[0] == min(cyc) for cyc in lsd.cycles)


def test_dot_output():
    g = from_matrix(SquareMatrix([[1, 2], [0, 1]]))
    dot = digraph_dot(g)
    assert dot.startswith("digraph {")
    assert "v1 -> v2 [label=\"2\"];" in dot
    assert "v2 -> v1" not in dot
    lsd = enumerate_lsds(g)[0]
    bold = digraph_dot(g, highlight=lsd)
    assert 'v1 -> v1 [label="1", style=bold];' in bold
