"""Board tilings, pattern-avoiding words and their inclusion-exclusion sums.

These enumerations are the combinatorial side of every determinant identity
in the library: tilings of a linear board biject onto the linear
subdigraphs of the banded recurrence matrix, so ``u_n`` is their weight sum
``tiling_sum`` (with the signed ``e_t`` as weights, that sum is ``h_m``);
weakly increasing words carry the complete homogeneous polynomial; and
cyclic words avoiding a cyclic ``ab`` account for all but two linear
subdigraphs of the two-variable circulant-like matrix.

Linear tilings, circular tilings and words are plain tuples (``Tiling``,
``CircularTiling``, ``Word``) and cyclic words plain strings.  The
enumerators cost what they return.  Linear tilings, increasing words and
cyclic words are yielded lazily, their arguments and caps checked when the
enumerator is called; circular tilings come as a list.  Each tiling,
linear or circular, is one join of a head, the tiles over the board's
first half, and a tiling of the cells after it, built row by row from the
board's end; so only the result is board-sized, and the circular ones
share their ``(start, length)`` pairs.  ``tiling_blocks`` and
``circular_tiling_blocks`` give the tilings as those ``(head, rests)``
blocks, the heads that cover the same cells sharing one row list of
rests, and ``enumerate_tilings`` and ``enumerate_circular_tilings`` are
their flattenings; the ``enumerate`` command writes the blocks, so it
formats and counts each row once, not each tiling.  A tile's length is
checked, and the tiles' weights multiplied, only in ``tiling_weight``,
which is also the signed weight of a tiling's linear subdigraph
(``tiling_to_lsd``).
A tiling's weight depends only on its ``tiling_parts``, and
``counted_sum`` is the one sum of weights over objects counted by such a
key, which ``tiling_sum`` and the ``enumerate`` command share.
``enumerate_cyclic_words`` is the one cyclic-word enumerator, lazy, with an
optional pattern to avoid; it drops a half-word that holds the pattern
before building any word from it, so its cost follows the words kept.
``pie_cyclic_sum`` is one ``poly.power_sum`` over its layers, in the
weights ``-a*b`` and ``a + b``.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations_with_replacement, filterfalse
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .caps import check_cap, check_terms
from .digraph import LinearSubdigraph
from .errors import DimensionTooSmall
from .poly import MultiPoly, _from_terms, power_sum, scalar_sum
from .symfunc import signed_elementary

Tiling = tuple[int, ...]
# (start, length) pairs sorted by start; a 2-tile starting at n-1 wraps to cell 0
CircularTiling = tuple[tuple[int, int], ...]
Word = tuple[int, ...]

# the two cyclic-word letters as polynomial variables
_A = MultiPoly.var(0)
_B = MultiPoly.var(1)


def enumerate_tilings(n: int, r: int) -> Iterator[Tiling]:
    """Compositions of ``n`` with parts in ``1..r``, lexicographic order, lazily.

    ``n = 0`` yields the single empty tiling.  The arguments and the cap are
    checked when this is called, before the first tiling is built.  The
    tilings are those of ``tiling_blocks``, flattened.
    """
    return _joined(tiling_blocks(n, r))


def tiling_blocks(n: int, r: int) -> list[tuple[Tiling, list[Tiling]]]:
    """``enumerate_tilings(n, r)`` as ``(head, rests)`` blocks (see ``_board_tilings``)."""
    if n < 0:
        raise ValueError("board length must be non-negative")
    if r < 1:
        raise ValueError("maximum tile length must be positive")
    check_cap("tilings", n)
    return _board_tilings([range(1, min(r, n) + 1)] * n)


def _joined(blocks: Iterable[tuple[tuple, Sequence[tuple]]]) -> Iterator[tuple]:
    """The tilings of ``(head, rests)`` blocks, ``head + rest`` in order, lazily."""
    return (head + rest for head, rests in blocks for rest in rests)


def _board_tilings(tiles: Sequence[Sequence], tail: tuple = ()) -> list[tuple[tuple, list]]:
    """Tilings of a board of ``len(tiles)`` cells as ``(head, rests)`` blocks.

    ``tiles[s][t - 1]`` stands for a ``t``-tile on cell ``s``.  A tiling is
    the tuple of its tiles from cell 0 on, followed by ``tail``.  Each
    tiling is one join, ``head + rest``: ``head`` is the tiles up to the
    first tile that reaches past the board's first half, and ``rest`` a
    tiling of the cells after it, one of the block's ``rests``.  The heads
    are grown a tile at a time in lexicographic order, and no head is a
    prefix of another, so the blocks in order, each joined to its rests in
    order, give the tilings lexicographic in the tile lengths.  The rests
    are built row by row from the end of the board, the tilings of the
    last ``k`` cells as ``(tile,) + rest`` of the rows before, and the
    heads that cover the same cells share one row list: the ``rests`` of
    two blocks are one object exactly when they are one row.  Heads and
    rows cover half the board each, so no tiling is built board-sized
    until a block is joined.  A head is empty only on the empty board,
    whose one rest is ``tail``.
    """
    n = len(tiles)
    half = (n + 1) // 2
    rows = [[tail]]  # rows[k]: the tilings of the last k cells
    for k in range(1, n - half + 1):
        rows.append([(tile,) + rest for tile, row in zip(tiles[n - k], reversed(rows))
                     for rest in row])
    heads = [((), 0)]  # a head and the cells it covers, lexicographic
    while any(cells < half for _, cells in heads):
        heads = [grown for head, cells in heads
                 for grown in ([(head, cells)] if cells >= half else
                               [(head + (tile,), cells + t)
                                for t, tile in enumerate(tiles[cells][:n - cells], 1)])]
    return [(head, rows[n - cells]) for head, cells in heads]


def tiling_weight(tiling: Sequence[int], coeffs: Sequence):
    """Product of ``coeffs[part - 1]`` over the tiles; the empty tiling has weight 1.

    The product starts from the first tile's coefficient, not from 1, so a
    one-tile weight is its coefficient and costs no ring product.
    """
    weight = None
    for part in tiling:
        if not 1 <= part <= len(coeffs):
            raise ValueError(f"tile length {part} outside 1..{len(coeffs)}")
        c = coeffs[part - 1]
        weight = c if weight is None else weight * c
    return 1 if weight is None else weight


def tiling_parts(tilings: Iterable[Sequence[int]]) -> Iterator[Tiling]:
    """The sorted parts of each tiling: its multiset of parts, which alone fixes its weight."""
    return map(tuple, map(sorted, tilings))


def counted_sum(counts: Mapping, weight: Callable):
    """``scalar_sum`` of ``count * weight(key)`` over ``counts``' keys and counts.

    Each key costs one ``weight``, times its count when that is not 1.  An
    empty sum is the int 0.
    """
    return scalar_sum(weight(key) if count == 1 else count * weight(key)
                      for key, count in counts.items())


def tiling_sum(tilings: Iterable[Sequence[int]], coeffs: Sequence):
    """Weight sum of ``tilings``, one ``tiling_weight`` per multiset of parts.

    The tilings are counted by their ``tiling_parts`` and summed by
    ``counted_sum``.  An empty sum is the int 0.
    """
    return counted_sum(Counter(tiling_parts(tilings)), lambda parts: tiling_weight(parts, coeffs))


def tiling_to_lsd(tiling: Sequence[int], coeffs: Sequence) -> LinearSubdigraph:
    """Image of a tiling under the tilings-to-subdigraphs bijection.

    A tile of length ``i`` covering cells ``k..k+i-1`` becomes the cycle
    ``k -> k+i-1 -> k+i-2 -> ... -> k`` of the digraph of the banded
    recurrence matrix built from ``coeffs``; 1-tiles become loops.  The
    cycle's raw weight is the band entry ``(-1)**(i+1) * c_i``, so its
    signed weight is ``c_i`` and the LSD's signed weight is the tiling
    weight.
    """
    cycles = tuple((cell,) + tuple(range(cell + part - 1, cell, -1))
                   for cell, part in zip(accumulate(tiling, initial=0), tiling))
    return LinearSubdigraph(cycles, tiling_weight(tiling, coeffs))


def enumerate_circular_tilings(n: int) -> list[CircularTiling]:
    """All tilings of the circular n-board by 1- and 2-tiles (n >= 3).

    Each tiling is its ``(start, length)`` pairs sorted by start (see
    ``CircularTiling``).  The cells are labeled ``0..n-1``, so rotated
    tilings are distinct, and the count is the n-th Lucas number.  There
    are ``2n`` distinct pairs, one tuple each, which the tilings share.
    The tilings are those of ``circular_tiling_blocks``, flattened.
    """
    return [*_joined(circular_tiling_blocks(n))]


def circular_tiling_blocks(n: int) -> list[tuple[CircularTiling, list[CircularTiling]]]:
    """``enumerate_circular_tilings(n)`` as ``(head, rests)`` blocks (see ``_board_tilings``)."""
    if n < 3:
        raise DimensionTooSmall(f"circular board needs n >= 3, got {n}")
    check_cap("circular_tilings", n)
    pairs = [[(start, 1), (start, 2)] for start in range(n)]  # every tile any tiling uses
    # cell 0 not covered by a wrapping tile: a strip tiling of cells 0..n-1;
    # else a wrapping 2-tile covers cells n-1 and 0, and cells 1..n-2 form a strip
    return [*_board_tilings(pairs), *_board_tilings(pairs[1:n - 1], (pairs[n - 1][1],))]


def enumerate_increasing_words(m: int, n_vars: int) -> Iterator[Word]:
    """Weakly increasing words of length ``m`` over letters ``1..n_vars``, lazily.

    These are exactly the words avoiding every descent (a larger letter
    immediately before a smaller one); their weights sum to the complete
    homogeneous polynomial ``h_m``, one word per term, so their count is
    held to ``caps.MAX_TERMS`` as ``h_m``'s terms are, and their letters,
    ``m`` a word, in all to ``caps.MAX_FACTORS``.  The arguments and the
    caps are checked when this is called, before the first word is built.
    """
    if m < 0:
        raise ValueError("word length must be non-negative")
    if n_vars < 1:
        raise ValueError("need at least one letter")
    check_terms("words", m + n_vars - 1, m, m)
    return combinations_with_replacement(range(1, n_vars + 1), m)


def word_weight(word: Iterable[int]) -> MultiPoly:
    """Commutative weight of a word: the product of its letters ``x_{i-1}``.

    The letters are counted, in any order, and sorted once into the
    canonical monomial, which is stored as it is; a letter below 1 is a
    ``ValueError``.
    """
    exps: dict[int, int] = {}
    for letter in word:
        exps[letter - 1] = exps.get(letter - 1, 0) + 1
    mono = tuple(sorted(exps.items()))
    if mono and mono[0][0] < 0:
        raise ValueError(f"letter {mono[0][0] + 1} is below 1")
    return _from_terms({mono: 1})


def pie_linear_sum(m: int, n_vars: int) -> MultiPoly:
    """Inclusion-exclusion sum over forced strictly descending runs.

    A placement splits the ``m`` positions into free cells and disjoint
    blocks of length >= 2.  A free cell contributes ``x0 + ... + x_{n-1}``;
    a block of length ``L`` forces a strictly descending run there, which
    summed over all letter choices is ``e_L``, and carries sign
    ``(-1)**(L-1)`` (one sign per forced descent).  The total equals the
    weight of the descent-free words, i.e. ``h_m``.
    """
    check_cap("pie_linear", m)
    if n_vars < 1:
        raise ValueError("need at least one letter")
    # blocks longer than the alphabet admit no strictly descending run; at
    # m = 0 the sum is the int weight 1 of the empty placement, made a MultiPoly
    signed = signed_elementary(max(1, min(n_vars, m)), n_vars)
    return MultiPoly.zero() + tiling_sum(enumerate_tilings(m, len(signed)), signed)


def enumerate_cyclic_words(n: int, avoid: str | None = None) -> Iterator[str]:
    """The ``2**n`` cyclic words over ``{a, b}`` with fixed start and orientation, lazily.

    Equality is positional (the start is pinned), so the words are plain
    strings of length ``n``, yielded in lexicographic order.  With
    ``avoid``, only the words with no cyclic occurrence of that pattern
    (see ``has_cyclic_occurrence``); the empty pattern occurs in every
    word.  The size, the cap and the pattern's letters are checked when
    this is called, before the first word is built.

    Every word is a left half followed by a right half, so one
    concatenation builds it.  A half that already holds the pattern is
    dropped as it grows, since no word containing it avoids the pattern,
    and the cyclic test runs only on the words the kept halves make.  So
    the cost follows the words kept: ``avoid="ab"`` keeps the halves
    ``b...ba...a``, about ``n / 2`` a side, and tests about ``n**2 / 4`` of
    the ``2**n`` words.
    """
    if n < 3:
        raise DimensionTooSmall(f"cyclic words need n >= 3, got {n}")
    check_cap("cyclic_words", n)
    if avoid is not None:
        stray = sorted(set(avoid) - set("ab"))
        if stray:
            raise ValueError(f"cyclic words are over a and b; the pattern {avoid!r} "
                             f"also has {', '.join(map(repr, stray))}")
    left, right = _linear_avoiders(n // 2, avoid), _linear_avoiders(n - n // 2, avoid)
    words = (x + y for x in left for y in right)
    if avoid is None:
        return words
    return filterfalse(_cyclic_occurrence_test(avoid, n), words)


def _linear_avoiders(length: int, pattern: str | None) -> list[str]:
    """Strings of ``length`` over ``{a, b}`` that do not contain ``pattern``, lexicographic.

    Built a letter at a time, dropping each string that ends with the
    pattern; with no pattern, every string.
    """
    words = [""]
    for _ in range(length):
        words = [w for v in words for w in (v + "a", v + "b")
                 if pattern is None or not w.endswith(pattern)]
    return words


def has_cyclic_occurrence(word: str, pattern: str) -> bool:
    """Whether ``pattern`` occurs in ``word`` read cyclically.

    An occurrence starts at one of the ``len(word)`` positions and may wrap
    around the word any number of times.
    """
    return _cyclic_occurrence_test(pattern, len(word))(word)


def _cyclic_occurrence_test(pattern: str, length: int) -> Callable[[str], bool]:
    """``has_cyclic_occurrence`` of ``pattern`` in words of the given length.

    The search runs over the word repeated out to at least
    ``length + len(pattern) - 1`` characters, which holds every cyclic
    occurrence.  Repeating further finds nothing new: the text is periodic,
    so a match at position ``p`` is also one at ``p mod length``.
    """
    if not pattern:
        return lambda word: True
    if not length:
        return lambda word: False
    copies = 1 + -(-(len(pattern) - 1) // length)
    return lambda word: pattern in word * copies


def cyclic_word_weight(word: str) -> MultiPoly:
    """Monomial ``a**(#a) * b**(#b)`` of a cyclic word."""
    na = word.count("a")
    return MultiPoly({((0, na), (1, len(word) - na)): 1})  # a zero exponent is dropped


def cyclic_avoiding_weight(n: int) -> MultiPoly:
    """Weight sum of cyclic words with no ``a`` immediately followed by ``b``.

    Read cyclically, any word containing both letters has such a pair, so
    the sum is ``a**n + b**n``.  Computed here by direct filtering:
    ``enumerate_cyclic_words(n, avoid="ab")`` drops each half-word that
    already holds ``ab`` and tests the about ``n**2 / 4`` words its kept
    halves make, not all ``2**n``.  The inclusion-exclusion route is
    ``pie_cyclic_sum``.
    """
    return scalar_sum(map(cyclic_word_weight, enumerate_cyclic_words(n, avoid="ab")))


def pie_cyclic_sum(n: int) -> MultiPoly:
    """Alternating sum over markings of disjoint cyclic ``ab`` positions.

    The j-th layer sums, over every set of ``j`` pairwise non-overlapping
    position pairs ``(i, i+1 mod n)``, the words with ``ab`` forced at each
    marked pair and the remaining ``n - 2j`` positions free; each layer
    carries sign ``(-1)**j``.  Overlapping pairs force contradictory letters
    and contribute nothing, so this is the full inclusion-exclusion over
    occurrences.  A set of ``j`` disjoint markings is a circular tiling with
    ``j`` 2-tiles, so the layers count the tilings by their 2-tiles, and
    layer ``j`` is its count times ``(-a*b)**j * (a + b)**(n - 2j)``.
    """
    if n < 3:
        raise DimensionTooSmall(f"cyclic board needs n >= 3, got {n}")
    check_cap("pie_cyclic", n)
    # n cells in t tiles hold n - t 2-tiles
    layers = Counter(n - len(tiling) for tiling in enumerate_circular_tilings(n))
    return power_sum([-_A * _B, _A + _B], [(count, (j, n - 2 * j)) for j, count in layers.items()])


def lsd_excluded_pair(n: int) -> tuple[LinearSubdigraph, LinearSubdigraph]:
    """The two spanning n-cycles of the two-variable circulant-like digraph.

    These are the only linear subdigraphs left out of the cyclic-word
    correspondence; their signed weights are ``a**n`` and ``b**n``.
    """
    if n < 3:
        raise DimensionTooSmall(f"matrix S needs n >= 3, got {n}")
    ascending = tuple(range(n))
    descending = (0,) + tuple(range(n - 1, 0, -1))
    return LinearSubdigraph((ascending,), _A ** n), LinearSubdigraph((descending,), _B ** n)
