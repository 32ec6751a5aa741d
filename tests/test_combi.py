"""Tilings, words, inclusion-exclusion sums and the explicit bijections."""

from itertools import product

import pytest

from detrec import combi
from detrec.combi import (
    cyclic_avoiding_weight,
    cyclic_word_weight,
    enumerate_circular_tilings,
    enumerate_cyclic_words,
    enumerate_increasing_words,
    enumerate_tilings,
    has_cyclic_occurrence,
    lsd_excluded_pair,
    pie_cyclic_sum,
    pie_linear_sum,
    tiling_sum,
    tiling_to_lsd,
    tiling_weight,
    word_weight,
)
from detrec.detmat import build_C, build_S, det_bareiss
from detrec.digraph import enumerate_lsds
from detrec.errors import DimensionTooSmall, TooLarge
from detrec.poly import MultiPoly, scalar_sum
from detrec.recurrence import eval_recurrence, lucas
from detrec.symfunc import homogeneous

A, B = MultiPoly.var(0), MultiPoly.var(1)


def test_enumerate_tilings_examples():
    assert list(enumerate_tilings(4, 2)) == [
        (1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2)]
    assert list(enumerate_tilings(0, 3)) == [()]
    assert list(enumerate_tilings(3, 3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_enumerate_tilings_cap():
    with pytest.raises(TooLarge):
        enumerate_tilings(21, 2)


def test_tiling_weight():
    c2, c3 = MultiPoly.var(1), MultiPoly.var(2)
    assert tiling_weight((2, 3), [MultiPoly.var(0), c2, c3]) == c2 * c3
    assert tiling_weight((1, 1, 1, 1), [1]) == 1
    assert tiling_weight((), [1, 1]) == 1
    with pytest.raises(ValueError):
        tiling_weight((3,), [1, 1])


def test_tiling_weight_sum_is_recurrence_value():
    c = [MultiPoly.var(0), MultiPoly.var(1)]
    total = sum((tiling_weight(t, c) for t in enumerate_tilings(4, 2)),
                MultiPoly.zero())
    assert total == c[0] ** 4 + 3 * c[0] ** 2 * c[1] + c[1] ** 2


def test_tiling_sum_of_a_subset_is_the_ungrouped_sum():
    # grouping by sorted parts must not merge in tilings that were not given
    x = [MultiPoly.var(i) for i in range(3)]
    for coeffs in (x, [3, -2, 5], [x[0] + 1, -x[1], 2 * x[2]]):
        for n in range(0, 9):
            subset = [t for t in enumerate_tilings(n, 3) if t[:1] == (1,)]
            assert tiling_sum(subset, coeffs) == scalar_sum(
                tiling_weight(t, coeffs) for t in subset), (n, coeffs)
    assert tiling_sum([], x) == 0 and type(tiling_sum([], x)) is int
    with pytest.raises(ValueError):
        tiling_sum([(1, 3)], [1, 1])


def test_tiling_to_lsd_figure_example():
    # tile lengths 2 and 3 on a 5-board: a 2-cycle on the first two cells
    # and a 3-cycle oriented 3 -> 5 -> 4 -> 3 (0-based: 2 -> 4 -> 3 -> 2)
    coeffs = [MultiPoly.var(i) for i in range(3)]
    lsd = tiling_to_lsd((2, 3), coeffs)
    assert lsd.cycles == ((0, 1), (2, 4, 3))
    assert lsd.signed_weight == coeffs[1] * coeffs[2]


def test_tiling_to_lsd_all_loops():
    coeffs = [MultiPoly.var(0)]
    lsd = tiling_to_lsd((1, 1, 1, 1), coeffs)
    assert lsd.cycles == ((0,), (1,), (2,), (3,))
    assert lsd.signed_weight == coeffs[0] ** 4


def test_bijection_on_fibonacci_board():
    coeffs = [MultiPoly.var(0), MultiPoly.var(1)]
    tilings = list(enumerate_tilings(4, 2))
    images = [tiling_to_lsd(t, coeffs) for t in tilings]
    lsds = enumerate_lsds(build_C(coeffs, 4))
    assert sorted(l.cycles for l in images) == [l.cycles for l in lsds]
    for tiling, image in zip(tilings, images):
        assert image.signed_weight == tiling_weight(tiling, coeffs)


def test_bijection_total_injective_weight_preserving():
    for r in range(1, 5):
        coeffs = [MultiPoly.var(i) for i in range(r)]
        for n in range(1, 11):
            tilings = enumerate_tilings(n, r)
            images = {}
            for t in tilings:
                lsd = tiling_to_lsd(t, coeffs)
                assert lsd.cycles not in images  # injective
                images[lsd.cycles] = lsd
                assert lsd.signed_weight == tiling_weight(t, coeffs)
            lsds = enumerate_lsds(build_C(coeffs, n))
            assert set(images) == {l.cycles for l in lsds}  # total image
            for lsd in lsds:
                assert images[lsd.cycles].signed_weight == lsd.signed_weight


def test_circular_tilings_counts():
    assert len(enumerate_circular_tilings(3)) == 4
    assert len(enumerate_circular_tilings(4)) == 7
    assert len(enumerate_circular_tilings(5)) == 11
    for n in range(3, 16):
        assert len(enumerate_circular_tilings(n)) == lucas(n)


def test_circular_tilings_cover_the_board():
    for tiling in enumerate_circular_tilings(6):
        covered = []
        for start, length in tiling:
            covered.extend((start + k) % 6 for k in range(length))
        assert sorted(covered) == list(range(6))
    # rotations are distinct labeled objects
    tilings = enumerate_circular_tilings(3)
    assert len(set(tilings)) == 4
    assert tilings == [((0, 1), (1, 1), (2, 1)), ((0, 1), (1, 2)),
                       ((0, 2), (2, 1)), ((1, 1), (2, 2))]


def test_circular_tilings_bounds():
    with pytest.raises(DimensionTooSmall):
        enumerate_circular_tilings(2)
    with pytest.raises(TooLarge):
        enumerate_circular_tilings(21)


def test_increasing_words():
    assert list(enumerate_increasing_words(2, 2)) == [(1, 1), (1, 2), (2, 2)]
    assert list(enumerate_increasing_words(0, 3)) == [()]
    total = sum((word_weight(w) for w in enumerate_increasing_words(5, 3)),
                MultiPoly.zero())
    assert total == homogeneous(5, 3)


def test_word_weight():
    assert word_weight((1, 1, 2)) == MultiPoly.var(0) ** 2 * MultiPoly.var(1)
    assert word_weight(()) == MultiPoly.one()


def test_word_weight_of_an_unsorted_word_is_canonical():
    # the weight is stored as built, so its monomial must come out sorted
    # and merged for any letter order, equal to the normalising constructor's
    for word in ((3, 1, 2, 1), (2, 2, 1), (5, 4, 3, 2, 1), (1, 3, 1, 3)):
        weight = word_weight(word)
        assert weight == MultiPoly({tuple((letter - 1, 1) for letter in word): 1})
        assert weight == word_weight(sorted(word))


@pytest.mark.parametrize("word", [(0,), (2, 0, 1), (1, -3)])
def test_word_weight_refuses_a_letter_below_1(word):
    with pytest.raises(ValueError, match="below 1"):
        word_weight(word)


def test_pie_linear_sum_examples():
    assert pie_linear_sum(1, 3) == homogeneous(1, 3)
    assert pie_linear_sum(2, 2) == homogeneous(2, 2)
    assert pie_linear_sum(5, 3) == homogeneous(5, 3)
    assert pie_linear_sum(0, 2) == MultiPoly.one()


def test_pie_linear_equals_word_filter_grid():
    for n_vars in range(1, 4):
        for m in range(0, 9):
            total = sum((word_weight(w)
                         for w in enumerate_increasing_words(m, n_vars)),
                        MultiPoly.zero())
            assert pie_linear_sum(m, n_vars) == total, (m, n_vars)


def test_cyclic_words():
    assert len(list(enumerate_cyclic_words(3))) == 8
    assert len(list(enumerate_cyclic_words(4))) == 16
    kept = [w for w in enumerate_cyclic_words(4)
            if not has_cyclic_occurrence(w, "ab")]
    assert kept == ["aaaa", "bbbb"]


def test_has_cyclic_occurrence_wraps():
    assert has_cyclic_occurrence("baab", "ab")   # positions 2,3
    assert has_cyclic_occurrence("bbba", "ab")   # wraps from 3 to 0
    assert not has_cyclic_occurrence("aaaa", "ab")
    assert not has_cyclic_occurrence("bbbb", "ab")
    assert has_cyclic_occurrence("bbaa", "ba")


def test_has_cyclic_occurrence_of_patterns_longer_than_the_word():
    # aabaab... holds aabaaba, although the word doubled once does not
    assert has_cyclic_occurrence("aab", "aabaaba")
    assert has_cyclic_occurrence("ab", "babababab")
    assert has_cyclic_occurrence("a", "aaaaaaa")
    assert not has_cyclic_occurrence("aab", "aabaabb")
    assert not has_cyclic_occurrence("", "a")
    assert has_cyclic_occurrence("", "")


def test_has_cyclic_occurrence_matches_its_definition():
    # an occurrence is a start i with pattern[j] == word[(i + j) % n] for all j
    def by_definition(word, pattern):
        n = len(word)
        return any(all(pattern[j] == word[(i + j) % n] for j in range(len(pattern)))
                   for i in range(n))

    def words(max_len):
        for length in range(1, max_len + 1):
            yield from ("".join(w) for w in product("ab", repeat=length))

    for word in words(5):
        for pattern in words(8):
            assert has_cyclic_occurrence(word, pattern) == by_definition(word, pattern), \
                (word, pattern)


def test_cyclic_words_stream_every_word_in_order():
    # the halves that already hold the pattern are dropped: the same words,
    # in the same order, as filtering all 2**n, for every pattern up to
    # length 5, some longer than half the word or than the word itself
    patterns = ["".join(p) for k in range(6) for p in product("ab", repeat=k)]
    for n in range(3, 13):
        words = enumerate_cyclic_words(n)
        assert iter(words) is words  # lazy
        every = ["".join(w) for w in product("ab", repeat=n)]
        assert list(words) == every
        for pattern in patterns:
            words = enumerate_cyclic_words(n, pattern)
            assert iter(words) is words, pattern
            assert list(words) == [w for w in every if not has_cyclic_occurrence(w, pattern)], (
                n, pattern)


def test_cyclic_words_check_before_the_first_word():
    with pytest.raises(DimensionTooSmall):
        enumerate_cyclic_words(2)
    with pytest.raises(TooLarge):
        enumerate_cyclic_words(40)
    # a letter no cyclic word has is refused, not read as a pattern no word holds
    for pattern, stray in (("AB", "'A', 'B'"), ("abc", "'c'"), ("a b", "' '")):
        with pytest.raises(ValueError) as exc:
            enumerate_cyclic_words(5, pattern)
        assert str(exc.value) == (
            f"cyclic words are over a and b; the pattern {pattern!r} also has {stray}")
    assert list(enumerate_cyclic_words(5, "")) == []  # the empty pattern occurs in every word


def test_cyclic_words_avoiding_ab_test_a_quadratic_number_of_words(monkeypatch):
    # the cyclic test runs on the words the kept halves make, n / 2 + 1 a
    # side for ab, not on all 2**n words
    tested = []
    make_test = combi._cyclic_occurrence_test

    def counting_test(pattern, length):
        test = make_test(pattern, length)

        def counted(word):
            tested.append(word)
            return test(word)
        return counted
    monkeypatch.setattr(combi, "_cyclic_occurrence_test", counting_test)
    n = 20
    assert list(enumerate_cyclic_words(n, "ab")) == ["a" * n, "b" * n]
    assert 0 < len(tested) <= n * n


def test_circular_tilings_share_their_pairs():
    # each of the 2n (start, length) pairs is one object, however many tilings hold it
    for n in (3, 4, 9, 16):
        tilings = enumerate_circular_tilings(n)
        pairs = {id(pair): pair for tiling in tilings for pair in tiling}
        assert sorted(pairs.values()) == [(s, t) for s in range(n) for t in (1, 2)], n


def test_cyclic_word_weight():
    assert cyclic_word_weight("abbb") == A * B ** 3
    assert cyclic_word_weight("baba") == A ** 2 * B ** 2


def test_cyclic_avoiding_weight():
    for n in range(3, 11):
        assert cyclic_avoiding_weight(n) == A ** n + B ** n, n


def test_pie_cyclic_sum_matches_filter_and_closed_form():
    assert pie_cyclic_sum(3) == (A + B) ** 3 - 3 * (A * B) * (A + B)
    for n in range(3, 11):
        assert pie_cyclic_sum(n) == A ** n + B ** n, n
        assert pie_cyclic_sum(n) == cyclic_avoiding_weight(n), n


def test_lsd_excluded_pair_signed_weights():
    for n in range(3, 9):
        l1, l2 = lsd_excluded_pair(n)
        assert l1.signed_weight == A ** n
        assert l2.signed_weight == B ** n
        assert l1.cycles == (tuple(range(n)),)
        assert l2.cycles == ((0,) + tuple(range(n - 1, 0, -1)),)
    with pytest.raises(DimensionTooSmall):
        lsd_excluded_pair(2)


def test_excluded_pair_are_lsds_of_the_matrix():
    for n in (3, 4, 5):
        lsds = {l.cycles: l for l in enumerate_lsds(build_S(A, B, n))}
        l1, l2 = lsd_excluded_pair(n)
        assert lsds[l1.cycles].signed_weight == l1.signed_weight
        assert lsds[l2.cycles].signed_weight == l2.signed_weight


def test_determinant_decomposition_via_cyclic_pie():
    for n in range(3, 9):
        l1, l2 = lsd_excluded_pair(n)
        decomposition = pie_cyclic_sum(n) + l1.signed_weight + l2.signed_weight
        assert det_bareiss(build_S(A, B, n)) == decomposition, n


def test_recurrence_equals_tilings_grid():
    for r in range(1, 5):
        coeffs = [MultiPoly.var(i) for i in range(r)]
        for n in range(0, 11):
            total = sum((tiling_weight(t, coeffs)
                         for t in enumerate_tilings(n, r)), MultiPoly.zero())
            assert total == eval_recurrence(coeffs, n), (n, r)
