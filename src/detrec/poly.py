"""Exact sparse multivariate polynomials and real quadratic-field scalars.

A polynomial is a map from monomials to arbitrary-precision integer
coefficients.  A monomial is a tuple of ``(variable index, exponent)`` pairs,
sorted by variable index, with every exponent positive (an absent variable
has exponent 0).

Canonical invariant: no stored coefficient is zero, every coefficient is an
``int``, and every monomial is sorted with positive exponents.  The zero
polynomial has no terms, and two polynomials are equal exactly when their
term maps are.  The public constructor ``MultiPoly(terms)`` validates and
normalises its input into this form: it merges a variable repeated within a
monomial, adds up coefficients whose monomials normalise alike, and rejects
a variable index or an exponent that is not a non-negative int.  Copying
and pickling also rebuild through the public constructors.  The private
``_from_terms`` stores a dict as it is and trusts it to be canonical
already; every ring operation (``+``, ``-``, unary ``-``, ``*``, ``**``) and
``exact_divide`` builds its result through it, so canonical terms are never
normalised a second time.

There is one polynomial ring over two key types.  ``MultiPoly`` keys its
terms by tuple monomials; ``_Packed`` keys them by exponent vectors packed
into single ints (``_Packing``), so that a monomial product is an integer
addition and graded-lex order is integer order.  Their shared base
``_Ring`` holds ``+``, ``-``, unary ``-``, truth and the int coercion (an
int is the constant, of key ``()`` or ``0``); each type adds its own ``*``,
and ``_Packed`` the exact ``/``.  A packing lasts for one computation and
the packed form never leaves it: ``_pack`` is the one way in, packing
several polynomials into one packing sized by a degree bound, and
``_Packed.unpack`` the one way out, so the stored term map of a
``MultiPoly`` always has tuple monomials.  A multi-term product is
``(a * b).unpack()`` of its packed factors and ``exact_divide`` is
``(a / b).unpack()``.  ``power_sum`` evaluates a whole sum
``sum(count * prod(w_t ** a_t))`` in one packing: each power once, every
intermediate product and the running sum packed, and only the final sum
unpacked.  A determinant route does the same through ``_pack_rows``,
which packs a matrix's polynomial entries in a packing with one bound, two
minors: the degree of a product of two minors, which Bareiss forms and
which covers the one minor of the cofactor and LSD routes.  The route
runs its ring code on them and unpacks only the determinant.
``recurrence.eval_recurrence`` packs a recurrence's coefficients once
too, with the bound ``n * max deg c_t``, and makes each ``u_m`` one
``_mul_sum``, a multiply-accumulate that adds every ``c_t * u_(m-t)``
into one term map; only ``u_n`` is unpacked.  There is one packed
multiply loop, ``_mul_into``, and one packed division loop, ``_divide``.

The canonical text form lists terms in descending graded-lexicographic order
(total degree first, then lexicographically with the lowest-indexed variable
strongest), e.g. ``x0^2 + x0*x1 + x1^2``.  That string is the golden format
used by the test suite and the command line.  The producers hand their terms
over in that order where it costs nothing: ``_Packed.unpack`` walks its keys
in descending order, so every product, quotient, power sum and determinant
comes out in order, and so do ``symfunc``'s ``elementary`` and
``homogeneous``.  ``poly_str`` checks the order in the one pass that builds
the text, and sorts only a map that arrives out of order, such as a sum's.

``QuadExt`` is an exact element of the golden-ratio field Q(sqrt 5), stored
as three ints ``(a, b, den)`` for ``(a + b*sqrt(5)) / den`` with
``den > 0`` and ``gcd(den, a, b) == 1``: one representation per element, so
equality compares the triples.  Ring operations work on the ints and build
their results through the trusted ``_quad``, which only reduces by the gcd;
no ``Fraction`` arithmetic runs inside them.  A square takes three big-int
products, and ``conjugate`` is the automorphism ``sqrt(5) -> -sqrt(5)``, so
``PSI ** n`` is ``(PHI ** n).conjugate()``, one power for both.  A
``Fraction`` exists only at the boundary: the public constructor parses one
from input that is not an int, and ``rational`` and ``radical`` return one.
``fractions`` is imported there, when first needed, so a process that makes
no ``Fraction`` never loads it, nor the ``decimal`` and ``numbers`` it
brings; ``PHI``, ``PSI`` and ``SQRT5`` are built by ``_quad``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Collection, Iterable, Mapping, Sequence, Union

from .errors import NotDivisible, UnassignedVariable

# (variable index, exponent) pairs, sorted by variable, exponents > 0.
Monomial = tuple[tuple[int, int], ...]

_EMPTY: Monomial = ()


def _normalize_mono(pairs: Iterable[tuple[int, int]]) -> Monomial:
    """Canonical monomial: sorted by variable, repeats merged, zero exponents dropped."""
    merged: dict[int, int] = {}
    for v, e in pairs:
        if type(v) is not int or v < 0:
            raise ValueError(f"variable index {v!r} is not a non-negative int")
        if type(e) is not int or e < 0:
            raise ValueError(f"exponent {e!r} for variable {v} is not a non-negative int")
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials: a merge of their variable-sorted pairs."""
    if not b:
        return a
    if not a:
        return b
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = pa = a[i]
        vb, eb = pb = b[j]
        if va < vb:
            out.append(pa)
            i += 1
        elif vb < va:
            out.append(pb)
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class _Packing:
    """Exponent vectors of one operation's monomials packed into single ints.

    Each variable that occurs in ``monos`` gets a field of ``bits`` bits,
    the lowest-indexed variable in the most significant one, and the total
    degree gets a field above them all.  Integer order is then graded-lex
    order, and multiplying monomials adds their keys.  ``bound`` must bound
    the total degree of every monomial the operation forms, so no field
    carries into the next and each field's top bit stays clear, free to act
    as the borrow guard in ``divide``.
    """

    __slots__ = ("variables", "bits", "shift", "top", "guard")

    def __init__(self, monos, bound: int):
        self.variables = variables = sorted({v for m in monos for v, _ in m})
        self.bits = bits = bound.bit_length() + 1
        self.top = top = bits * len(variables)  # the total degree's field
        self.shift = dict(zip(variables, range(top - bits, -1, -bits)))
        # the top bit of each of the n + 1 fields
        self.guard = (1 << (bits - 1)) * ((1 << top + bits) - 1) // ((1 << bits) - 1)

    def pack(self, m: Monomial) -> int:
        shift = self.shift
        key = degree = 0
        for v, e in m:
            key += e << shift[v]
            degree += e
        return key + (degree << self.top)

    def unpack(self, key: int) -> Monomial:
        bits = self.bits
        mask = (1 << bits) - 1
        out = []
        for v in reversed(self.variables):
            e = key & mask
            if e:
                out.append((v, e))
            key >>= bits
        out.reverse()
        return tuple(out)

    def divide(self, a: int, b: int) -> int | None:
        """Key of ``a / b``, or ``None`` when ``b`` does not divide ``a``."""
        # a field of a below b's borrows its guard bit and clears it
        d = (a | self.guard) - b
        return d ^ self.guard if d & self.guard == self.guard else None


class _Ring:
    """The ring operations of one polynomial ring, shared by its two key types.

    ``MultiPoly`` keys its terms by tuple monomials, ``_Packed`` by the
    keys of one ``_Packing``.  Each stores a canonical term map (key ->
    nonzero int) in ``_terms``, names the key of the constant monomial
    ``_ONE`` and builds an element of its own type from a canonical term
    map with ``_new``.  An int operand is the constant of key ``_ONE``.
    """

    __slots__ = ()

    def _terms_of(self, other) -> dict | None:
        """The term map of ``other`` as this type keys it, or ``None`` if it is no ring element."""
        if type(other) is type(self):
            return other._terms
        if isinstance(other, int):
            return {self._ONE: int(other)} if other else {}
        return None

    def __add__(self, other):
        right = self._terms_of(other)
        if right is None:
            return NotImplemented
        left = self._terms
        if len(left) < len(right):
            left, right = right, left
        out = dict(left)  # the longer map is the one copied
        for key, coef in right.items():
            coef += out.get(key, 0)
            if coef:
                out[key] = coef
            else:
                del out[key]
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -coef for key, coef in self._terms.items()})

    def __sub__(self, other):
        right = self._terms_of(other)
        if right is None:
            return NotImplemented
        return self._new(_sub_terms(self._terms, right))

    def __rsub__(self, other):
        left = self._terms_of(other)
        if left is None:
            return NotImplemented
        return self._new(_sub_terms(left, self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)


class MultiPoly(_Ring):
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)
    _ONE = _EMPTY

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        canonical: dict[Monomial, int] = {}
        if terms:
            for mono, coef in terms.items():
                if not isinstance(coef, int):
                    raise TypeError(f"coefficient {coef!r} is not an int")
                mono = _normalize_mono(mono)
                # keys that normalise to one monomial add up
                coef = int(coef) + canonical.get(mono, 0)
                if coef:
                    canonical[mono] = coef
                else:
                    canonical.pop(mono, None)
        _set_terms(self, canonical)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by setting slots
        return MultiPoly, (self._terms,)

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls({_EMPTY: 1})

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({_EMPTY: c})

    @classmethod
    def var(cls, index: int) -> "MultiPoly":
        """The polynomial consisting of the single variable ``x_index``."""
        if index < 0:
            raise ValueError("variable index must be non-negative")
        return cls({((index, 1),): 1})

    @property
    def terms(self) -> dict[Monomial, int]:
        """Copy of the term map (monomial -> coefficient)."""
        return dict(self._terms)

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        top = 0
        for mono in self._terms:
            degree = 0
            for _, e in mono:
                degree += e
            if degree > top:
                top = degree
        return top

    # -- ring operations (``+``, ``-`` and unary ``-`` are ``_Ring``'s) ------

    @staticmethod
    def _new(terms: dict[Monomial, int]) -> "MultiPoly":
        """Trusted constructor: stores ``terms`` as is, which must be canonical."""
        p = object.__new__(MultiPoly)
        _set_terms(p, terms)
        return p

    @staticmethod
    def _coerce(other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, int):
            return _from_terms({_EMPTY: int(other)} if other else {})
        return None

    # bound here too: MultiPoly's own namespace lists every operator it has,
    # which is where perfbench's tracer looks them up
    __add__ = __radd__ = _Ring.__add__
    __sub__, __rsub__, __neg__ = _Ring.__sub__, _Ring.__rsub__, _Ring.__neg__

    def __mul__(self, other):
        right = self._terms_of(other)
        if right is None:
            return NotImplemented
        left = self._terms
        if len(left) > len(right):
            left, right = right, left
        if len(left) < 2:
            # at most one term times a polynomial: no two products collide, so
            # packing (which pays off through collisions) would cost more than it saves
            return _from_terms({_mono_mul(ma, mb): ca * cb
                                for ma, ca in left.items() for mb, cb in right.items()})
        a, b = _pack((self, other), self.degree() + other.degree())
        return (a * b).unpack()

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("polynomial powers must be non-negative")
        return _power(self, k, MultiPoly.one())

    def _constant(self) -> int | None:
        """The int this polynomial equals, or ``None`` when it has a variable."""
        terms = self._terms
        if not terms or (len(terms) == 1 and _EMPTY in terms):
            return terms.get(_EMPTY, 0)
        return None

    def __eq__(self, other) -> bool:
        right = self._terms_of(other)
        if right is not None:
            return self._terms == right
        # a constant equals exactly what its int equals: a Fraction, a QuadExt
        value = self._constant()
        return NotImplemented if value is None else value == other

    def __hash__(self) -> int:
        # a constant equals, so must hash like, its int
        value = self._constant()
        return hash(frozenset(self._terms.items())) if value is None else hash(value)

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)})"


_set_terms = MultiPoly._terms.__set__
_from_terms = MultiPoly._new


def _sub_terms(left: dict, right: dict) -> dict:
    """The term map of ``left - right``, for either key type."""
    out = dict(left)
    for mono, coef in right.items():
        coef = out.get(mono, 0) - coef
        if coef:
            out[mono] = coef
        else:
            del out[mono]
    return out


def _mul_into(out: dict[int, int], left: Iterable[tuple[int, int]],
              right: Collection[tuple[int, int]]) -> dict[int, int]:
    """Add the product of two packed polynomials into ``out``, and return ``out``.

    This is the one packed multiply loop: a product of monomials is a sum
    of keys.  Both factors are packed ``(key, coefficient)`` pairs.
    ``left`` drives the outer loop and is read once, so it may be an
    iterator; ``right`` is read once per term of ``left``, so callers pass
    the shorter factor as ``left`` where they can.  A term that cancels
    keeps its key with coefficient zero, so the caller drops the zeros.
    """
    get = out.get
    for ka, ca in left:
        for kb, cb in right:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _power(base, k: int, one):
    """``base**k`` for ``k >= 0`` by right-to-left square-and-multiply.

    The result starts as the power of ``base`` at the lowest set bit of
    ``k``, and ``base`` is squared only while higher bits remain, so ``k >
    0`` costs ``k.bit_length() - 1`` squarings and ``popcount(k) - 1`` other
    products (Knuth, TAOCP vol. 2, 4.6.3).  ``one`` is returned for ``k ==
    0`` only.
    """
    if not k:
        return one
    while not k & 1:
        base = base * base
        k >>= 1
    result = base
    k >>= 1
    while k:
        base = base * base
        if k & 1:
            result = result * base
        k >>= 1
    return result


VarNames = Union[Sequence[str], Callable[[int], str], None]


# Past this many bits a packed key costs more to build than a tuple of the
# monomial's factors costs to compare (h_1 in 2000 variables, 4000 bits, is
# about even with Python 3.11 on a 2-core VM), and its memory grows with
# the variable count rather than with the factors.
_MAX_KEY_BITS = 4096


def _graded_lex_key(m: Monomial) -> tuple:
    """Sort key of ``m`` in graded-lex order, unpacked."""
    return sum(e for _, e in m), tuple([(-v, e) for v, e in m])


def poly_str(p: MultiPoly, names: VarNames = None) -> str:
    """Canonical text form: graded-lex descending, ``coef*x0^e0*...`` terms.

    Exponent 1 and coefficient 1 are omitted; the zero polynomial is ``0``.
    One pass over the term map builds each term's text, each ``(variable,
    exponent)`` factor's text once, and checks that the map is in order.
    Only a map out of order has its texts sorted, by packed key, or by
    ``_graded_lex_key`` past ``_MAX_KEY_BITS``.
    """
    if not p:
        return "0"
    name_of = (lambda v: f"x{v}") if names is None else (
        names if callable(names) else names.__getitem__)
    texts: dict[tuple[int, int], str] = {}  # a factor's text
    pieces: list[str] = []  # each term's text after its sign, " + " or " - "
    ordered = True
    last: Monomial = ()
    # the first term is in order; one of degree 2**63 or more costs a sort
    last_degree, top = 1 << 63, 0
    for mono, coef in p._terms.items():
        factors = [] if mono and (coef == 1 or coef == -1) else [str(abs(coef))]
        degree = 0
        for pair in mono:
            text = texts.get(pair)
            if text is None:
                v, e = pair
                text = texts[pair] = name_of(v) if e == 1 else f"{name_of(v)}^{e}"
            factors.append(text)
            degree += pair[1]
        pieces.append((" + " if coef > 0 else " - ") + "*".join(factors))
        if ordered and degree >= last_degree:
            # in order after a term of higher degree, or of the same degree
            # whose first pair that differs has the lower variable, or the
            # same variable with the higher exponent
            ordered = False
            if degree == last_degree:
                for a, b in zip(last, mono):
                    if a != b:
                        ordered = (a[0], b[1]) < (b[0], a[1])
                        break
        last, last_degree = mono, degree
        if degree > top:
            top = degree
    if not ordered:
        packing = _Packing(p._terms, top)
        narrow = packing.bits * len(packing.variables) <= _MAX_KEY_BITS
        key = packing.pack if narrow else _graded_lex_key
        pieces = [piece for _, piece in sorted(zip(map(key, p._terms), pieces), reverse=True)]
    first = pieces[0]
    pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(pieces)


def exact_divide(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Quotient ``q`` with ``q * den == num``, exact over the integers.

    Packs both operands in one packing (``_pack``), divides them with
    ``_Packed``'s ``/`` and unpacks the quotient.  Raises ``NotDivisible``
    as soon as a leading monomial or integer coefficient fails to divide,
    which happens exactly when no integer-coefficient quotient exists.  No
    term the division forms exceeds the degree of ``num``, which the
    packing is sized for.
    """
    a, b = _pack((num, den), max(num.degree(), den.degree()))
    return (a / b).unpack()


def _divide(packing: _Packing, num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """Packed quotient of two packed polynomials: the one packed division loop.

    Division tracks a single quotient by repeatedly cancelling graded-lex
    leading terms, and raises ``NotDivisible``, naming the tuple
    monomials, as soon as a leading monomial or coefficient fails to
    divide.  The remainder is one mutable dict keyed by packed monomials,
    beside a heap of its keys, so each step pops the leading term instead
    of scanning the remainder for it.  Each step subtracts ``c*mono*den``
    from the dict term by term.  A term that cancels keeps its key, with
    coefficient zero, until the heap reaches it and skips it (lazy
    deletion), so every key enters the heap once.  Every term a step adds
    is below the current leading term, so a popped key never comes back,
    and no term exceeds the degree of ``num``.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    divide = packing.divide
    den_key = max(den)
    den_coef = den[den_key]
    den_tail = [(k, c) for k, c in den.items() if k != den_key]
    remainder = dict(num)
    heap = [-k for k in remainder]
    heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        rem_key = -heappop(heap)
        rem_coef = remainder.pop(rem_key)
        if not rem_coef:
            continue
        key = divide(rem_key, den_key)
        if key is None:
            raise NotDivisible(f"{packing.unpack(rem_key)} not divisible by "
                               f"{packing.unpack(den_key)}")
        c, leftover = divmod(rem_coef, den_coef)
        if leftover:
            raise NotDivisible(f"coefficient {rem_coef} not divisible by {den_coef}")
        quotient[key] = c
        for tail_key, tail_coef in den_tail:
            k = key + tail_key
            old = remainder.get(k)
            if old is None:
                remainder[k] = -c * tail_coef
                heappush(heap, -k)
            else:
                remainder[k] = old - c * tail_coef
    return quotient


class _Packed(_Ring):
    """A polynomial whose monomials are keys of a packing shared by one computation.

    ``_terms`` maps packed keys to nonzero int coefficients.  The ring
    operations (``+``, ``-``, unary ``-``, ``*`` and exact ``/``) take
    another element of the same packing or an int, whose key is 0, and
    return an element of that packing, so a computation on them packs
    nothing and unpacks nothing until ``unpack``, the one way back to a
    ``MultiPoly``.  The packing's bound must cover the degree of every
    product the computation forms (see ``_pack``).  ``*`` is ``_mul_into``
    with the shorter factor on the left, for every operand, an int too.
    ``/`` is ``_divide`` and raises ``NotDivisible`` when the quotient does
    not exist.
    """

    __slots__ = ("_terms", "packing")
    _ONE = 0

    def __init__(self, terms: dict[int, int], packing: _Packing):
        self._terms = terms
        self.packing = packing

    def _new(self, terms: dict[int, int]) -> "_Packed":
        return _Packed(terms, self.packing)

    def unpack(self) -> MultiPoly:
        """The ``MultiPoly``, its terms in descending key order, which is the printed order."""
        unpack, terms = self.packing.unpack, self._terms
        return _from_terms({unpack(k): terms[k] for k in sorted(terms, reverse=True)})

    def __mul__(self, other):
        right = self._terms_of(other)
        if right is None:
            return NotImplemented
        left = self._terms
        if len(left) > len(right):
            left, right = right, left
        product = _mul_into({}, left.items(), right.items())
        if 0 in product.values():  # drop the terms that cancelled
            product = {k: c for k, c in product.items() if c}
        return self._new(product)

    __rmul__ = __mul__

    def __truediv__(self, other):
        den = self._terms_of(other)
        if den is None:
            return NotImplemented
        return self._new(_divide(self.packing, self._terms, den))

    def __rtruediv__(self, other):
        num = self._terms_of(other)
        if num is None:
            return NotImplemented
        return self._new(_divide(self.packing, num, self._terms))


def _pack(polys: Sequence[MultiPoly], bound: int) -> list[_Packed]:
    """``polys`` as ``_Packed`` elements of one new packing, whose bound is ``bound``.

    The one way into the packed form: ``bound`` must cover the total
    degree of every monomial the computation on them forms.
    """
    packing = _Packing([m for p in polys for m in p._terms], bound)
    pack = packing.pack
    return [_Packed({pack(m): c for m, c in p._terms.items()}, packing) for p in polys]


def _mul_sum(lefts: Sequence[_Packed], rights: Iterable) -> _Packed:
    """``sum(map(mul, lefts, rights))`` of packed ``lefts``, as one multiply-accumulate.

    ``rights`` are elements of the same packing or ints, and ``zip`` pairs
    them with ``lefts``, which must not be empty.  ``_mul_into`` adds every
    product straight into one term map, so no product gets a map of its
    own and no running sum is copied; the terms that cancel are dropped
    once, at the end.
    """
    out: dict[int, int] = {}
    for left, right in zip(lefts, rights):
        _mul_into(out, left._terms.items(), left._terms_of(right).items())
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return lefts[0]._new(out)


def _pack_rows(rows: Sequence[Sequence]) -> list[list]:
    """The matrix ``rows`` with each polynomial entry a ``_Packed`` of one packing.

    Int entries stay as they are.  One bound serves every route: twice
    ``sum_i max_j deg a_ij``, the row maxima summed.  A ``k x k`` minor
    takes its entries from ``k`` distinct rows, so that sum bounds the
    degree of every minor, and twice it covers a product of two minors,
    the most that Bareiss forms; the cofactor and LSD routes form products
    of one minor's degree at most.  The distinct entries go through
    ``_pack`` together: an entry object that fills several cells, as a
    band coefficient does, is packed once.
    """
    degrees: dict[int, int] = {}  # id -> degree of each distinct polynomial entry
    polys = []
    bound = 0
    for row in rows:
        top = 0
        for x in row:
            if type(x) is MultiPoly:
                degree = degrees.get(id(x))
                if degree is None:
                    degree = degrees[id(x)] = x.degree()
                    polys.append(x)
                if degree > top:
                    top = degree
        bound += top
    packed = dict(zip(degrees, _pack(polys, 2 * bound)))  # the ids are in polys' order
    return [[packed[id(x)] if type(x) is MultiPoly else x for x in row] for row in rows]


class QuadExt:
    """Exact element ``(a + b*sqrt(5)) / den`` of the real quadratic field Q(sqrt 5).

    Stored as three ints with ``den > 0`` and ``gcd(den, a, b) == 1``, so
    every element has exactly one representation and two elements are equal
    exactly when their triples are.  ``QuadExt(rational, radical)`` builds
    ``rational + radical*sqrt(5)`` from ints or fractions (anything
    ``Fraction`` accepts); every ring operation builds its result through
    the trusted ``_quad``, which takes the triple as computed and only
    divides out the gcd.  ``rational`` and ``radical`` read the two
    components back as reduced ``Fraction``s.  A ``Fraction`` exists only
    at that boundary: the constructor parses one from input that is not
    an int, ``rational`` and ``radical`` return one, a rational element
    hashes and compares with a non-field operand (a float, say) as one,
    and a ``Fraction`` operand is read as a rational element.  Arithmetic
    and equality on ints and ``QuadExt``s, and the text of every element,
    make none, so ``fractions`` is imported only when one is.
    """

    __slots__ = ("_a", "_b", "_den")

    def __init__(self, rational=0, radical=0):
        if isinstance(rational, int) and isinstance(radical, int):
            a, b, den = int(rational), int(radical), 1
        else:
            from fractions import Fraction
            r, s = Fraction(rational), Fraction(radical)
            den = lcm(r.denominator, s.denominator)
            # both components are reduced, so the common denominator leaves gcd 1
            a, b = r.numerator * (den // r.denominator), s.numerator * (den // s.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by setting slots
        return QuadExt, (self.rational, self.radical)

    @property
    def rational(self) -> Fraction:
        """The rational component ``a/den``, reduced."""
        from fractions import Fraction
        return Fraction(self._a, self._den)

    @property
    def radical(self) -> Fraction:
        """The coefficient ``b/den`` of ``sqrt(5)``, reduced."""
        from fractions import Fraction
        return Fraction(self._b, self._den)

    @staticmethod
    def _coerce(other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, int):
            return _quad(int(other), 0, 1)
        from fractions import Fraction
        if isinstance(other, Fraction):
            return _quad(other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _quad(self._a + other._a, self._b + other._b, d1)
        return _quad(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self._a, -self._b, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _quad(self._a - other._a, self._b - other._b, d1)
        return _quad(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other is self:
            # a square: three big-int products, not four
            a, b, den = self._a, self._b, self._den
            return _quad(a * a + 5 * (b * b), 2 * (a * b), den * den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _quad(a1 * a2 + 5 * b1 * b2, a1 * b2 + a2 * b1, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2, d2 = self._a, self._b, other._a, other._b, other._den
        # x / y = x * conj(y) * d2**2 / (a2**2 - 5*b2**2); that integer
        # vanishes only at y == 0, since sqrt(5) is irrational
        n = a2 * a2 - 5 * b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        a, b, den = (a1 * a2 - 5 * b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._den * n
        if den < 0:
            a, b, den = -a, -b, -den
        return _quad(a, b, den)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("quadratic powers must be non-negative")
        return _power(self, k, _quad(1, 0, 1))

    def conjugate(self) -> "QuadExt":
        """``(a - b*sqrt(5)) / den``: the field automorphism that maps ``PHI`` to ``PSI``."""
        return _quad(self._a, -self._b, self._den)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        right = self._coerce(other)
        if right is not None:
            return self._a == right._a and self._b == right._b and self._den == right._den
        # a rational element equals exactly what its Fraction equals (a float,
        # say), as a constant polynomial does its int; an irrational one equals
        # nothing outside the field
        return NotImplemented if self._b else self.rational.__eq__(other)

    def __hash__(self) -> int:
        if self._b:
            return hash((self._a, self._b, self._den))
        # a rational element equals, so must hash like, its Fraction and int
        return hash(self._a) if self._den == 1 else hash(self.rational)

    def __str__(self) -> str:
        rational = _ratio_str(self._a, self._den)
        if not self._b:
            return rational
        sign = "-" if self._b < 0 else "+"
        return f"{rational} {sign} {_ratio_str(abs(self._b), self._den)}*sqrt(5)"

    def __repr__(self) -> str:
        return f"QuadExt({_ratio_str(self._a, self._den)}, {_ratio_str(self._b, self._den)})"


_set_a = QuadExt._a.__set__
_set_b = QuadExt._b.__set__
_set_den = QuadExt._den.__set__


def _quad(a: int, b: int, den: int) -> QuadExt:
    """Trusted constructor: ``(a + b*sqrt(5)) / den`` from ints with ``den > 0``.

    Divides out ``gcd(den, a, b)`` and stores the triple.  ``den`` goes
    first because it is small next to ``a`` and ``b`` and ``gcd`` stops
    reading its arguments once the running gcd is 1.
    """
    g = gcd(den, a, b)
    if g != 1:
        a //= g
        b //= g
        den //= g
    z = object.__new__(QuadExt)
    _set_a(z, a)
    _set_b(z, b)
    _set_den(z, den)
    return z


def _ratio_str(n: int, den: int) -> str:
    """The text of ``n/den`` reduced, ``den > 0``: the text its ``Fraction`` prints."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


#: Golden ratio (1 + sqrt(5))/2 and its conjugate (1 - sqrt(5))/2.
PHI = _quad(1, 1, 2)
PSI = _quad(1, -1, 2)
SQRT5 = _quad(0, 1, 1)


def substitute(p: MultiPoly, assignment: Mapping[int, "QuadExt | int | Fraction"]) -> QuadExt:
    """Evaluate ``p`` exactly at a point of the quadratic field.

    Every variable occurring in ``p`` must be assigned; plain integers and
    fractions are promoted.  Raises ``UnassignedVariable`` otherwise.
    """
    values = {v: value if isinstance(value, QuadExt) else QuadExt(value)
              for v, value in assignment.items()}
    total = QuadExt(0)
    for mono, coef in p._terms.items():
        term = QuadExt(coef)
        for v, e in mono:
            if v not in values:
                raise UnassignedVariable(f"variable x{v} is not assigned")
            term = term * values[v] ** e
        total = total + term
    return total


def scalar_sum(values: Iterable):
    """Sum of exact scalars, equal to adding them one by one with ``+``.

    Polynomial terms collect in one dict, so a sum of many polynomials costs
    their total term count rather than one copy of the running total per
    summand.  An empty sum is the int 0.
    """
    rest = 0
    terms: dict[Monomial, int] = {}
    polys = False
    for value in values:
        if isinstance(value, MultiPoly):
            polys = True
            for mono, coef in value._terms.items():
                terms[mono] = terms.get(mono, 0) + coef
        else:
            rest = rest + value
    if not polys:
        return rest
    return _from_terms({m: c for m, c in terms.items() if c}) + rest


def power_sum(weights: Sequence, terms: Iterable[tuple[int, Sequence[int]]]):
    """``sum(count * prod(w ** a for w, a in zip(weights, exps)))`` over ``terms``.

    ``terms`` holds ``(count, exps)`` pairs, one non-negative exponent per
    weight.  The result equals ``scalar_sum`` of the terms built one by one
    and has its type: an empty sum is the int 0, and with a polynomial
    weight any other sum is a ``MultiPoly``, the zero one when the terms
    cancel.  Without a polynomial weight each term is a plain product.
    With one, the call packs the weights once, with ``_pack`` in one
    packing sized for the largest term degree, and builds each power
    ``w**a`` it needs once, as ``w**(a-1) * w``.  Each term multiplies its
    count and factors smallest first, the last product adding straight into
    the packed running sum, and only that sum is unpacked.  Nothing
    outlives the call.
    """
    terms = list(terms)
    if not any(isinstance(w, MultiPoly) for w in weights):
        total = 0
        for count, exps in terms:
            total = total + count * prod(map(pow, weights, exps))
        return total
    if not terms:
        return 0
    polys = [MultiPoly._coerce(w) for w in weights]
    if None in polys:
        raise TypeError("power_sum weights must be ints or polynomials")
    degrees = [w.degree() for w in polys]
    packed = _pack(polys, max(sum(map(mul, exps, degrees)) for _, exps in terms))
    powers = []  # powers[t][a]: weights[t]**a, packed
    for w, top in zip(packed, map(max, zip(*(exps for _, exps in terms)))):
        table = [[(0, 1)]]
        if top:
            base = list(w._terms.items())
            while len(table) <= top:
                table.append(list(_mul_into({}, base, table[-1]).items()))
        powers.append(table)
    total: dict[int, int] = {}
    for count, exps in terms:
        if not count:
            continue
        factors = sorted((table[a] for table, a in zip(powers, exps) if a), key=len)
        last = factors.pop() if factors else [(0, 1)]
        product = [(0, count)]
        for factor in factors:
            product = _mul_into({}, product, factor).items()
        _mul_into(total, product, last)
    return packed[0]._new({k: c for k, c in total.items() if c}).unpack()


def scalar_str(value, names: VarNames = None) -> str:
    """Canonical serialization shared by every scalar type.

    Integers and fractions print plainly, polynomials in graded-lex text
    form, quadratic elements as ``p + q*sqrt(5)`` (or plainly when the
    radical part vanishes, so rational-valued routes compare equal across
    scalar types).
    """
    if isinstance(value, MultiPoly):
        return poly_str(value, names)
    return str(value)
