"""Weighted digraphs of square matrices and linear-subdigraph expansion.

A square matrix is its own digraph: an ``n x n`` matrix has vertices
``0..n-1`` and an edge ``i -> j`` of weight ``M[i][j]`` for every nonzero
entry, listed by ``_successors``.  So every function here takes the
``SquareMatrix`` itself.  A linear subdigraph (LSD) is a spanning
collection of pairwise vertex-disjoint directed cycles; loops count as
cycles of length 1.  Summing ``(-1)**(n - c(L)) * w(L)`` over all LSDs
gives the determinant, which is the expansion everything in this library
is checked against.  That sign is the product of ``(-1)**(|C| - 1)`` over
the cycles, so the layer keeps one convention: a cycle's weight is its
signed weight, applied once where ``_cycles`` closes the cycle, and an
LSD's weight is the product of its cycles' (``LinearSubdigraph`` holds
only the cycles and that signed weight).  The sign is a choice between an
edge's weight and its negation, which ``_first_cycles`` computes once per
call, beside the successor lists, for each edge that can close a cycle.

Cycles are kept canonical: each cycle is rotated so its smallest vertex
comes first, and the cycles of an LSD are listed by increasing smallest
vertex.  Both the enumeration and the determinant peel off a cycle through
the lowest uncovered vertex and recurse on the vertices left, which is the
paper's recurrence.  One walker, ``_cycles``, finds those cycles along the
actual nonzero edges (successor lists built once per call, vertex sets as
int bitmasks), so the sparse structured matrices stay fast; on a
lower-Hessenberg digraph, such as the ``C``, ``G``, ``F`` and ``E``
families, a walk climbs only from its start, so the walks grow linearly
in ``n``.  Both routes read one table, ``_first_cycles``: per call, each
distinct vertex set's cycles whose rest has an LSD, walked once.
``lsd_blocks`` builds, in one pass over the table, each vertex set's row
of LSDs once, each LSD a cycle followed by an LSD of the rest's row and
keyed by its multiset of cycle weights, and gives the full set's LSDs as
``(first cycle, row, cycle's key)`` blocks beside one dict from each
multiset's key to its signed weight, which every LSD of that multiset
shares.  ``enumerate_lsds`` is the blocks' flattening, so its
cost follows the LSDs it lists.  ``det_via_lsd`` sums each set's signed
weights in one pass over the table and builds no LSD.  It runs on the
matrix's entries packed in one packing when the matrix has size 3 or
more and some entry is a polynomial of two or more terms
(``detmat._run_packed``): every product it forms is of edges out of
distinct vertices, one minor's degree, so the packing's one bound, two
minors, holds it.  The hard cap exists because a dense matrix has ``n!``
linear subdigraphs.  In a banded digraph every
cycle is a block of consecutive vertices, so its LSDs group by cycle type
(``cycle_types``, ``count_cycle_type``), and ``cycle_type_sum`` is their
weight sum written that way: Sury's identity and the r-acci multinomial
sum.  It hands the types to ``poly.power_sum`` as exponent vectors, so
each power of a weight is built once per sum.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Callable, Mapping, NamedTuple, Sequence

from .caps import check_cap
from .detmat import SquareMatrix, _run_packed
from .errors import InvalidCycleType
from .poly import power_sum, scalar_str


class LinearSubdigraph(NamedTuple):
    """Spanning vertex-disjoint cycle collection with its signed weight.

    The signed weight is the product of the cycles' signed weights
    (``_cycles``), which is ``(-1)**(n - c) * w`` for ``c`` cycles of raw
    weight product ``w``: the LSD's term of the determinant.
    """

    cycles: tuple[tuple[int, ...], ...]
    signed_weight: object


def _successors(rows) -> list[list[tuple[int, object]]]:
    """Edges out of each vertex: ``(j, M[i][j])`` for the nonzero entries, by ``j``."""
    return [[(j, w) for j, w in enumerate(row) if w] for row in rows]


def _cycles(succ, onward, negated, unused: int):
    """The cycles through the lowest vertex of the vertex set ``unused``.

    ``unused`` is a bitmask, and a walk from its lowest vertex is already
    in canonical rotation.  The walk's first edge is one of ``succ``, each
    later edge one of ``onward`` (see ``_first_cycles``).  Yields
    ``(cycle, rest, signed weight)``: the cycle's vertices, the bitmask of
    ``unused`` without them, and ``(-1)**(|C| - 1)`` times the product of
    its edge weights, the only place the expansion's sign is applied.
    Cycles come in lexicographic order: a walk closes before it is
    extended, and it is extended by increasing vertex.  A walk only records
    its edge weights; they are multiplied once it closes, so dead ends cost
    no ring products.  The sign costs no ring operation: an even cycle
    takes its closing edge ``i -> start`` negated from
    ``negated[i][start]`` (see ``_first_cycles``); on the band matrices
    that edge is an integer 1.
    """
    start = (unused & -unused).bit_length() - 1
    return _walk(succ, onward, negated, [start], [], start, unused ^ (1 << start))


def _walk(edges, onward, negated, path, weights, tip: int, avail: int):
    """``_cycles``' walk: the cycles that extend ``path``, whose edges weigh ``weights``.

    ``tip`` is the path's last vertex, ``edges`` the successor lists its
    next step reads and ``avail`` the bitmask of the vertices it may go on
    to; every step after it reads ``onward``.  A module function, not a
    closure, so its recursion holds no reference cycle.
    """
    start = path[0]
    for nxt, w in edges[tip]:
        if nxt == start:
            # an even cycle records an odd number of other edges
            weight = negated[tip][start] if len(weights) % 2 else w
            for x in weights:
                weight = x * weight
            yield tuple(path), avail, weight
        elif avail >> nxt & 1:
            path.append(nxt)
            weights.append(w)
            yield from _walk(onward, onward, negated, path, weights, nxt, avail ^ (1 << nxt))
            path.pop()
            weights.pop()


def _first_cycles(rows) -> dict[int, list]:
    """The table both LSD routes read: each vertex set's first cycles, for one call.

    Walks ``_cycles`` on the digraph of the matrix ``rows`` from the full
    vertex set down.  The table maps each vertex set (a bitmask) reached to the
    ``(cycle, rest, signed weight)`` entries of the cycles through its
    lowest vertex whose ``rest`` has an LSD, or is empty.  Each distinct
    set is walked once, and a set is listed after every set its entries
    leave, so a pass over the table in order meets each ``rest`` first.
    Only an edge back to a lower vertex can close a cycle of two or more
    vertices, so each such edge is negated here, once for the whole call.

    The digraph is lower Hessenberg when every such edge goes down one
    vertex, as on the ``C``, ``G``, ``F`` and ``E`` families.  There a
    cycle climbs once, from its lowest vertex, and comes home down through
    every vertex in between, so a walk takes only edges down after its
    first step: a second climb is a dead end.  Any other digraph's walk
    may take every edge at every step.
    """
    succ = _successors(rows)
    negated = [{j: -w for j, w in edges if j < i} for i, edges in enumerate(succ)]
    onward = succ
    if all(j == i - 1 for i, down in enumerate(negated) for j in down):  # lower Hessenberg
        onward = [[edge for edge in edges if edge[0] < i] for i, edges in enumerate(succ)]
    table: dict[int, list] = {}

    def kept(unused: int) -> list:
        entries = table.get(unused)
        if entries is None:
            entries = table[unused] = [
                entry for entry in _cycles(succ, onward, negated, unused)
                if not entry[1] or kept(entry[1])]
        return entries

    kept((1 << len(rows)) - 1)
    # kept calls itself, a reference cycle through its closure that would
    # hold the table until the next garbage collection; this breaks it
    del kept
    return table


def enumerate_lsds(m: SquareMatrix) -> list[LinearSubdigraph]:
    """All linear subdigraphs with nonzero weight, each exactly once.

    The LSDs of ``lsd_blocks`` with each held as the tuple of its cycles,
    flattened: each block's cycle followed by each LSD of its row.  So the
    output is sorted lexicographically by the canonical cycle
    representation, and the LSDs share the cycle tuples.  An LSD's signed
    weight is the product of its cycles', one object per multiset of cycle
    weights: LSDs whose cycles weigh the same, in any order, share one
    weight object, so a list with few distinct weights holds few weight
    objects.
    """
    blocks, weights = lsd_blocks(m, lambda cycle: (cycle,), ())
    return [LinearSubdigraph((cycle,) + cycles, weights[unit + key])
            for cycle, (held, keys, _), unit in blocks for cycles, key in zip(held, keys)]


def lsd_blocks(m: SquareMatrix, item: Callable, empty) -> tuple[list[tuple], dict]:
    """The LSDs of ``m`` as ``(cycle, rests, unit)`` blocks, and the weights of their keys.

    The blocks are the ``_first_cycles`` table's entries for the full
    vertex set, in ``_cycles`` order, so the LSDs of the blocks in order,
    each block's ``cycle`` followed by each LSD of its ``rests`` in order,
    are ``enumerate_lsds(m)``.  ``rests`` is the row of the vertex set the
    block's cycle leaves: that set's LSDs as two lists in one order,
    ``held`` and ``keys``, and ``counts``, the ``Counter`` of ``keys``:
    ``(held, keys, counts)``.  An LSD is held as ``item(C) + rest``, for
    its first cycle ``C`` and ``rest`` the LSD of the vertices left held
    alike, and the empty LSD as ``empty``: with ``(C,)`` and ``()`` that
    is the tuple of its cycles, with texts its text.  Its key stands for
    its multiset of cycle weights: a count vector over the distinct cycle
    weights, packed in an int, so it is the sum of its cycles' keys, and
    a block's LSD of rest key ``key`` has the key ``unit + key``, ``unit``
    being the key of the block's cycle.  ``weights`` maps the key of each
    multiset of the blocks and rows to its signed weight.

    One pass over the table, which lists each set after the sets its
    entries leave, builds every set's row from the rows of its rests,
    once, and each multiset's key and signed weight once, as one object
    each: the blocks whose cycles leave the same set share its row object,
    the LSDs of one multiset share its key and weight, and each LSD is one
    ``+`` on an LSD of its rest.  The full set's own row is never built.
    """
    check_cap("lsd", m.n)
    table = _first_cycles(m._rows)
    full = (1 << m.n) - 1
    distinct: dict = {}  # each distinct cycle weight -> its place in the count vector
    width = m.n.bit_length()  # no LSD has more than n cycles
    rows = {0: ([empty], [0], Counter([0]))}
    weights: dict = {}  # the signed weight of each multiset reached, by key
    for unused, entries in table.items():
        steps = []
        for cycle, rest, w in entries:
            unit = 1 << width * distinct.setdefault(w, len(distinct))
            row = rows[rest]
            for key in row[2]:  # each distinct key of the rest's row
                if unit + key not in weights:
                    weights[unit + key] = w * weights[key] if key else w
            steps.append((cycle, row, unit))
        if unused != full:
            held, keys = [], []
            for cycle, (rest_held, rest_keys, _), unit in steps:
                head = item(cycle)
                held += [head + lsd for lsd in rest_held]
                keys += map(unit.__add__, rest_keys)
            rows[unused] = (held, keys, Counter(keys))
    # the full set is the table's last, so ``steps`` holds its blocks
    return steps, weights


def det_via_lsd(m: SquareMatrix):
    """Determinant as the signed weight sum over all linear subdigraphs.

    The sum is factored cycle by cycle, as in the paper's recurrence: with
    ``f(U)`` the signed weight sum over the linear subdigraphs of the
    vertex set ``U``,

        f(U) = sum over the first cycles C of U of sw(C) * f(U - C),

    where ``sw(C) = (-1)**(|C|-1) * w(C)`` is the cycle's signed weight,
    and ``f(empty) = 1``.  One pass over the ``_first_cycles`` table, which
    lists each set after the sets its cycles leave, computes ``f`` of each
    distinct vertex set once; no linear subdigraph is built.
    """
    check_cap("lsd", m.n)
    return _run_packed(_lsd_sum, m)


def _lsd_sum(rows):
    sums = {0: 1}
    for unused, entries in _first_cycles(rows).items():
        total = 0
        for _, rest, weight in entries:
            sub = sums[rest]
            if sub:  # a sum that cancels to zero costs no product
                total = total + (weight * sub if rest else weight)
        sums[unused] = total
    return sums[(1 << len(rows)) - 1]


def cycle_types(n: int, band: int):
    """Cycle types ``{t: i_t}`` with ``2 <= t <= band`` that fit in ``n`` vertices, no zeros.

    In lexicographic order of ``(i_2, i_3, ...)``.  Each length's count
    ranges only over what the shorter lengths leave, so no count vector
    that overfills the ``n`` vertices is built.
    """
    lengths = range(2, min(band, n) + 1)
    partial = [((), n)]  # the counts so far, and the vertices they leave
    for t in lengths:
        partial = [(counts + (c,), left - t * c)
                   for counts, left in partial for c in range(left // t + 1)]
    for counts, _ in partial:
        yield {t: c for t, c in zip(lengths, counts) if c}


def count_cycle_type(n: int, ct: Mapping[int, int], band: int) -> int:
    """Number of LSDs of the width-``band`` banded digraph with cycle type ``ct``.

    In that digraph every cycle of length ``t`` occupies ``t`` consecutive
    vertices, so an LSD is an arrangement of blocks and loops along the
    line and the count is the multinomial

        (number of cycles)! / (prod_t i_t! * (number of loops)!).

    Pure integer combinatorics; weights play no role.
    """
    if n < 1:
        raise InvalidCycleType("vertex count must be positive")
    covered = 0
    blocks = 0
    for t, count in ct.items():
        if count < 0:
            raise InvalidCycleType(f"negative count for length {t}")
        if count == 0:
            continue
        if t < 2:
            raise InvalidCycleType(f"cycle length {t} below 2")
        if t > band:
            raise InvalidCycleType(f"cycle length {t} exceeds band {band}")
        covered += t * count
        blocks += count
    if covered > n:
        raise InvalidCycleType(f"cycle type covers {covered} > {n} vertices")
    loops = n - covered
    result = factorial(loops + blocks)
    for count in ct.values():
        result //= factorial(count)
    return result // factorial(loops)


def cycle_type_sum(n: int, weights: Sequence):
    """The width-``len(weights)`` banded digraph's LSDs summed by cycle type.

    Each cycle type ``{t: i_t}`` contributes ``count_cycle_type`` times
    ``w_1**loops * prod_t w_t**i_t``, with ``w_t = weights[t - 1]``: the
    weight of every LSD of that type when a ``t``-cycle weighs ``w_t``.
    With unit weights it counts the LSDs; with ``(-1)**(t-1) e_t`` it is
    Sury's expansion of ``h_n``.  The sum is one ``power_sum`` whose
    exponent vector for a type is ``(loops, i_2, ..., i_band)``.
    """
    band = len(weights)
    terms = []
    for ct in cycle_types(n, band):
        exps = [0] * band
        for t, c in ct.items():
            exps[t - 1] = c
        exps[0] = n - sum(t * c for t, c in ct.items())
        terms.append((count_cycle_type(n, ct, band), exps))
    return power_sum(weights, terms)


def digraph_dot(m: SquareMatrix, highlight: LinearSubdigraph | None = None,
                names=None) -> str:
    """DOT rendering of the digraph of ``m``; edges of the highlighted LSD are drawn bold."""
    bold = set()
    if highlight is not None:
        for cyc in highlight.cycles:
            for k, v in enumerate(cyc):
                bold.add((v, cyc[(k + 1) % len(cyc)]))
    lines = ["digraph {"]
    for v in range(m.n):
        lines.append(f"  v{v + 1};")
    for i, edges in enumerate(_successors(m)):
        for j, w in edges:
            attrs = f'label="{scalar_str(w, names)}"'
            if (i, j) in bold:
                attrs += ", style=bold"
            lines.append(f"  v{i + 1} -> v{j + 1} [{attrs}];")
    lines.append("}")
    return "\n".join(lines)
