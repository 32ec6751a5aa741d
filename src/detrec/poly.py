"""Exact sparse multivariate polynomials and real quadratic-field scalars.

A polynomial is a map from monomials to arbitrary-precision integer
coefficients.  A monomial is a tuple of ``(variable index, exponent)`` pairs,
sorted by variable index, with every exponent positive (an absent variable
has exponent 0).

Canonical invariant: no stored coefficient is zero, every coefficient is an
``int``, and every monomial is sorted with positive exponents.  The zero
polynomial has no terms, and two polynomials are equal exactly when their
term maps are.  The public constructor ``MultiPoly(terms)`` validates and
normalises its input into this form.  The private ``_from_terms`` stores a
dict as it is and trusts it to be canonical already; every ring operation
(``+``, ``-``, unary ``-``, ``*``, ``**``) and ``exact_divide`` builds its
result through it, so canonical terms are never normalised a second time.

Multiplication and division pack the exponent vectors of their operands
into single ints for the length of one call (``_Packing``), so that a
monomial product is an integer addition and graded-lex order is integer
order.  The packed form never leaves the call: the stored term map always
has tuple monomials.

The canonical text form lists terms in descending graded-lexicographic order
(total degree first, then lexicographically with the lowest-indexed variable
strongest), e.g. ``x0^2 + x0*x1 + x1^2``.  That string is the golden format
used by the test suite and the command line.

``QuadExt`` is an exact element ``p + q*sqrt(d)`` of a real quadratic field
with reduced rational components; all shipped call sites use ``d = 5`` for
golden-ratio arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import NotDivisible, UnassignedVariable

# (variable index, exponent) pairs, sorted by variable, exponents > 0.
Monomial = tuple[tuple[int, int], ...]

_EMPTY: Monomial = ()


def _normalize_mono(pairs: Iterable[tuple[int, int]]) -> Monomial:
    kept = [(v, e) for v, e in pairs if e != 0]
    for v, e in kept:
        if e < 0:
            raise ValueError(f"negative exponent {e} for variable {v}")
    kept.sort()
    return tuple(kept)


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

    __slots__ = ("variables", "bits", "shift", "guard")

    def __init__(self, monos, bound: int):
        self.variables = sorted({v for m in monos for v, _ in m})
        self.bits = bits = bound.bit_length() + 1
        n = len(self.variables)
        self.shift = {v: bits * (n - 1 - i) for i, v in enumerate(self.variables)}
        top = 1 << (bits - 1)
        self.guard = sum(top << (bits * i) for i in range(n + 1))

    def pack(self, m: Monomial) -> int:
        shift = self.shift
        key = degree = 0
        for v, e in m:
            key += e << shift[v]
            degree += e
        return key + (degree << (self.bits * len(self.variables)))

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


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        canonical: dict[Monomial, int] = {}
        if terms:
            for mono, coef in terms.items():
                if not isinstance(coef, int):
                    raise TypeError(f"coefficient {coef!r} is not an int")
                if coef == 0:
                    continue
                canonical[_normalize_mono(mono)] = int(coef)
        _set_terms(self, canonical)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

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

    def variables(self) -> set[int]:
        return {v for m in self._terms for v, _ in m}

    def leading_term(self) -> tuple[Monomial, int]:
        """Largest term in graded-lex order.  Undefined for zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=_Packing(self._terms, self.degree()).pack)
        return mono, self._terms[mono]

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, int):
            return _from_terms({_EMPTY: int(other)} if other else {})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for mono, coef in small.items():
            coef += out.get(mono, 0)
            if coef:
                out[mono] = coef
            else:
                del out[mono]
        return _from_terms(out)

    __radd__ = __add__

    def __neg__(self):
        return _from_terms({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coef in other._terms.items():
            coef = out.get(mono, 0) - coef
            if coef:
                out[mono] = coef
            else:
                del out[mono]
        return _from_terms(out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        left, right = self._terms, other._terms
        if len(left) > len(right):
            left, right = right, left
        if len(left) == 1:
            # a term times a polynomial: no two products collide, so packing
            # (which pays off through collisions) would cost more than it saves
            (ma, ca), = left.items()
            return _from_terms({_mono_mul(ma, mb): ca * cb for mb, cb in right.items()})
        if not left:
            return _from_terms({})
        packing = _Packing([*left, *right], self.degree() + other.degree())
        pack = packing.pack
        right = [(pack(m), c) for m, c in right.items()]
        out: dict[int, int] = {}
        get = out.get
        for ma, ca in left.items():
            ka = pack(ma)
            for kb, cb in right:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        unpack = packing.unpack
        return _from_terms({unpack(k): c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("polynomial powers must be non-negative")
        result = MultiPoly.one()
        base = self
        n = k
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)})"


_set_terms = MultiPoly._terms.__set__


def _from_terms(terms: dict[Monomial, int]) -> MultiPoly:
    """Trusted constructor: stores ``terms`` as is, which must be canonical."""
    p = object.__new__(MultiPoly)
    _set_terms(p, terms)
    return p


VarNames = Union[Sequence[str], Callable[[int], str], None]


def _name_of(names: VarNames, index: int) -> str:
    if names is None:
        return f"x{index}"
    if callable(names):
        return names(index)
    return names[index]


def poly_str(p: MultiPoly, names: VarNames = None) -> str:
    """Canonical text form: graded-lex descending, ``coef*x0^e0*...`` terms.

    Exponent 1 and coefficient 1 are omitted; the zero polynomial is ``0``.
    """
    if not p:
        return "0"
    pack = _Packing(p._terms, p.degree()).pack
    ordered = sorted(p._terms.items(), key=lambda kv: pack(kv[0]), reverse=True)
    pieces: list[str] = []
    for i, (mono, coef) in enumerate(ordered):
        mag = abs(coef)
        factors = []
        if mag != 1 or not mono:
            factors.append(str(mag))
        for v, e in mono:
            name = _name_of(names, v)
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if i == 0:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coef > 0 else f" - {body}")
    return "".join(pieces)


def exact_divide(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Quotient ``q`` with ``q * den == num``, exact over the integers.

    Division tracks a single quotient by repeatedly cancelling graded-lex
    leading terms.  Raises ``NotDivisible`` as soon as a leading monomial or
    integer coefficient fails to divide, which happens exactly when no
    integer-coefficient quotient exists.

    The remainder is one mutable dict keyed by packed monomials, beside a
    heap of its keys, so each step pops the leading term instead of
    scanning the remainder for it.  Each step subtracts ``c*mono*den`` from
    the dict term by term.  A term that cancels keeps its key, with
    coefficient zero, until the heap reaches it and skips it (lazy
    deletion), so every key enters the heap once.  Every term a step adds
    is below the current leading term, so a popped key never comes back.
    No term exceeds the degree of ``num``, which the packing is sized for.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    packing = _Packing([*num._terms, *den._terms], max(num.degree(), den.degree()))
    pack, divide = packing.pack, packing.divide
    den_terms = {pack(m): c for m, c in den._terms.items()}
    den_key = max(den_terms)
    den_coef = den_terms.pop(den_key)
    den_tail = list(den_terms.items())
    remainder = {pack(m): c for m, c in num._terms.items()}
    heap = [-k for k in remainder]
    heapify(heap)
    quotient: dict[Monomial, int] = {}
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
        quotient[packing.unpack(key)] = c
        for tail_key, tail_coef in den_tail:
            k = key + tail_key
            old = remainder.get(k)
            if old is None:
                remainder[k] = -c * tail_coef
                heappush(heap, -k)
            else:
                remainder[k] = old - c * tail_coef
    return _from_terms(quotient)


class QuadExt:
    """Exact element ``p + q*sqrt(d)`` of a real quadratic field.

    Components are reduced rationals; ``d`` is a square-free positive
    integer, 5 everywhere in this library.  Mixing different ``d`` values in
    one operation is an error.
    """

    __slots__ = ("rational", "radical", "d")

    def __init__(self, rational=0, radical=0, d: int = 5):
        object.__setattr__(self, "rational", Fraction(rational))
        object.__setattr__(self, "radical", Fraction(radical))
        object.__setattr__(self, "d", int(d))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed discriminants {self.d} and {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.rational + other.rational,
                       self.radical + other.radical, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.rational, -self.radical, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p1, q1, p2, q2 = self.rational, self.radical, other.rational, other.radical
        return QuadExt(p1 * p2 + q1 * q2 * self.d, p1 * q2 + p2 * q1, self.d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.rational, -self.radical, self.d)

    def norm(self) -> Fraction:
        return self.rational * self.rational - self.d * self.radical * self.radical

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        conj = other.conjugate()
        # 1/other = conj/norm since d is square-free (norm 0 only at 0)
        return self * QuadExt(conj.rational / n, conj.radical / n, self.d)

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
        result = QuadExt(1, 0, self.d)
        base = self
        n = k
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return self.rational != 0 or self.radical != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other, 0, self.d)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return (self.d == other.d and self.rational == other.rational
                and self.radical == other.radical)

    def __hash__(self) -> int:
        return hash((self.rational, self.radical, self.d))

    def __str__(self) -> str:
        if self.radical == 0:
            return str(self.rational)
        tail = f"{abs(self.radical)}*sqrt({self.d})"
        if self.radical < 0:
            return f"{self.rational} - {tail}"
        return f"{self.rational} + {tail}"

    def __repr__(self) -> str:
        return f"QuadExt({self.rational}, {self.radical}, d={self.d})"


#: Golden ratio (1 + sqrt(5))/2 and its conjugate (1 - sqrt(5))/2.
PHI = QuadExt(Fraction(1, 2), Fraction(1, 2))
PSI = QuadExt(Fraction(1, 2), Fraction(-1, 2))
SQRT5 = QuadExt(0, 1)


def quad_pow(z: QuadExt, n: int) -> QuadExt:
    """Exact ``z**n`` for non-negative ``n``; ``quad_pow(z, 0) == 1``."""
    return z ** n


def substitute(p: MultiPoly, assignment: Mapping[int, "QuadExt | int | Fraction"]) -> QuadExt:
    """Evaluate ``p`` exactly at a point of the quadratic field.

    Every variable occurring in ``p`` must be assigned; plain integers and
    fractions are promoted.  Raises ``UnassignedVariable`` otherwise.
    """
    d = 5
    for value in assignment.values():
        if isinstance(value, QuadExt):
            d = value.d
            break
    values: dict[int, QuadExt] = {}
    for v, value in assignment.items():
        values[v] = value if isinstance(value, QuadExt) else QuadExt(value, 0, d)
    total = QuadExt(0, 0, d)
    for mono, coef in p._terms.items():
        term = QuadExt(coef, 0, d)
        for v, e in mono:
            if v not in values:
                raise UnassignedVariable(f"variable x{v} is not assigned")
            term = term * values[v] ** e
        total = total + term
    return total


def scalar_str(value, names: VarNames = None) -> str:
    """Canonical serialization shared by every scalar type.

    Integers and fractions print plainly, polynomials in graded-lex text
    form, quadratic elements as ``p + q*sqrt(d)`` (or plainly when the
    radical part vanishes, so rational-valued routes compare equal across
    scalar types).
    """
    if isinstance(value, MultiPoly):
        return poly_str(value, names)
    if isinstance(value, QuadExt):
        if value.radical == 0 and value.rational.denominator == 1:
            return str(value.rational.numerator)
        return str(value)
    return str(value)
