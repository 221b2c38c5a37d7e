"""Exact sparse multivariate polynomial arithmetic over the integers.

Polynomials live over a fixed, ordered collection of variables (a
VariableUniverse).  A monomial is packed into a single big integer, one byte
per variable in universe order with the first variable in the most
significant byte.  Two consequences make this representation fast enough for
large determinant expansions in pure Python:

  * comparing packed monomials as integers is exactly the pure
    lexicographic monomial order, and
  * multiplying monomials is integer addition.

Each byte keeps its top bit as a guard, so exponents are capped at 127 and
monomial divisibility can be decided by one subtraction and one mask test.
Coefficients are arbitrary-precision ints; term maps never hold a zero
coefficient and the zero polynomial has an empty term map.

Large term maps are worked on block by block, as a dict get+set costs about
150 ns at 2 000 entries and 650 ns at 200 000.  A term's block key,
`m >> 8 * (nvars - BLOCK_VARS)`, holds the first BLOCK_VARS exponents; no
byte carries, so key(m1 + m2) = key(m1) + key(m2), and a product adds each
block pair into the one block its key sum names.  Over more than
2 * BLOCK_VARS variables, a sum of products is built in blocks when an operand
is blocked or the product size bound, max |p| * max |q|, reaches
BLOCK_MIN_TERMS (`_block_shift`).  Products, `==`, `bool`, `len`, `stats`,
`evaluate` and `exact_div` take it in its blocks; reading `terms` (so `+`, `-`
and pickling) builds a new joined map and leaves the blocks as they are.
Division takes blocks when the dividend or divisor is blocked or the larger
holds BLOCK_MIN_TERMS terms: it is long division over block keys, with
coefficients in the other variables, taken in descending key order, which is
descending lex order (`exact_div`).

A polynomial is built only by `Polynomial.variable` and `constant` (with
`zero` and `one`) and by ring operations; `Polynomial(...)` itself raises
TypeError.  `len` and `repr` give the term count; there is no text form.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import or_
from typing import Iterable, Mapping

EXPONENT_LIMIT = 127

# Swept on the half-specialized b0 n = 4, k = 2 det W (49 variables, 323 506 terms):
# 4 leading variables expanded it in 1.75 s, against 2.54, 2.03, 1.99 and 2.74 s for
# 2, 6, 8 and 12 (4.0 s flat), and divided it in 1.0-1.25 s at every width (1.6 s flat).
BLOCK_VARS = 4
# Met by a product's size bound or by a dividend's term count (the same sweep, as an operand
# size: 1.85-1.90 s to expand from 256 to 4 096, 2.26 s at 16 384).
BLOCK_MIN_TERMS = 4096

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class UniverseMismatch(ValueError):
    """Raised when an operation mixes polynomials over different universes."""


class VariableUniverse:
    """Ordered variable names; fixes the monomial packing and the lex order."""

    __slots__ = ("names", "nvars", "_index", "_guard_mask", "_safe_mask")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.nvars = len(names)
        self._index = {name: i for i, name in enumerate(names)}
        # guard bit per byte; top two bits clear means products need no check
        self._guard_mask = int.from_bytes(b"\x80" * self.nvars, "big")
        self._safe_mask = int.from_bytes(b"\xc0" * self.nvars, "big")

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable: {name!r}") from None

    def variable_monomial(self, name: str) -> int:
        return 1 << (8 * (self.nvars - 1 - self.index(name)))

    def unpack(self, monomial: int) -> tuple[int, ...]:
        return tuple(monomial.to_bytes(self.nvars, "big"))

    def compatible(self, other: "VariableUniverse") -> bool:
        return self is other or self.names == other.names

    def __repr__(self):
        return f"VariableUniverse({len(self.names)} vars)"


@dataclass(frozen=True)
class PolyStats:
    """Size summary of a polynomial: term count, total degree, content."""

    monomials: int
    degree: int | None
    content: int

    def to_json_dict(self) -> dict:
        return _omit_none({"monomials": self.monomials, "degree": self.degree, "content": self.content})


def _omit_none(fields: dict) -> dict:
    """A report's JSON fields in their order, each optional field left out while it is None."""
    return {key: value for key, value in fields.items() if value is not None}


class Polynomial:
    """Immutable canonical polynomial: packed monomial -> nonzero coefficient.

    Build one with the named constructors below or by ring operations.
    """

    __slots__ = ("universe", "terms", "_key_or")

    def __new__(cls, *args, **kwargs):
        raise TypeError("build a Polynomial with variable, constant or ring operations")

    def __reduce__(self):  # copy and pickle rebuild through _from_clean, not __new__
        return (Polynomial._from_clean, (self.universe, self.terms))

    @classmethod
    def _from_clean(cls, universe: VariableUniverse, terms: dict[int, int]) -> "Polynomial":
        # the one constructor; terms already canonical, no validation pass
        self = object.__new__(cls)
        self.universe = universe
        self.terms = terms
        self._key_or = None
        return self

    @classmethod
    def zero(cls, universe: VariableUniverse) -> "Polynomial":
        return cls._from_clean(universe, {})

    @classmethod
    def constant(cls, universe: VariableUniverse, value: int) -> "Polynomial":
        return cls._from_clean(universe, {0: value} if value else {})

    @classmethod
    def one(cls, universe: VariableUniverse) -> "Polynomial":
        return cls.constant(universe, 1)

    @classmethod
    def variable(cls, universe: VariableUniverse, name: str) -> "Polynomial":
        return cls._from_clean(universe, {universe.variable_monomial(name): 1})

    # -- ring structure ----------------------------------------------------

    @property
    def _monomial_or(self) -> int:
        v = self._key_or
        if v is None:
            v = 0
            for m in self.terms:
                v |= m
            self._key_or = v
        return v

    def _term_maps(self) -> list[dict[int, int]]:  # or a blocked product's block maps, unjoined
        return [self.terms]

    def __len__(self):
        return sum(map(len, self._term_maps()))

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if not self.universe.compatible(other.universe):
                raise UniverseMismatch("polynomials over different universes")
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.universe, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        out = dict(big.terms)
        for m, c in small.terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return Polynomial._from_clean(self.universe, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_clean(self.universe, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if type(self) is not _Blocked and type(other) is not _Blocked:  # their terms would join them
            one, many = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
            if len(one.terms) == 1 and not (one._monomial_or | many._monomial_or) & self.universe._safe_mask:
                ((m1, c1),) = one.terms.items()  # a monomial times a polynomial, in one pass
                return Polynomial._from_clean(self.universe, {m1 + m: c1 * c for m, c in many.terms.items()})
        return sums_of_products(self.universe, [self], [other], [((0, 0, False),)])[0]  # one sum: self * other

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not exponent:
            return Polynomial.one(self.universe)
        result = self  # repeated products from the base, so det ** 1 (chio) takes none
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __bool__(self):  # a blocked product's slot holds its blocks, none of them zero
        return bool(_TERMS.__get__(self))

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.universe, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.universe.compatible(other.universe):
            return False
        if type(self) is _Blocked or type(other) is _Blocked:  # block by block, neither joined
            mine, theirs = (dict(_parts(x, 8 * (self.universe.nvars - BLOCK_VARS))) for x in (self, other))
            return mine.keys() == theirs.keys() and all(p.terms == theirs[k].terms for k, p in mine.items())
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int | None:
        """Max over terms of the exponent sum; None for the zero polynomial."""
        if not self:
            return None
        nb, maps = self.universe.nvars, self._term_maps()
        if sum(self._monomial_or.to_bytes(nb, "big")) < 255:  # 256 = 1 mod 255, and no byte sum wraps
            return max(max([m % 255 for m in t]) for t in maps)
        return max(sum(m.to_bytes(nb, "big")) for t in maps for m in t)

    def content(self) -> int:
        """Nonnegative gcd of the coefficients; 0 for the zero polynomial."""
        return math.gcd(*[math.gcd(*t.values()) for t in self._term_maps()])

    def stats(self) -> PolyStats:
        return PolyStats(len(self), self.total_degree(), self.content())

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Substitute integers for variables; every occurring variable is required."""
        u = self.universe
        occurring = u.unpack(self._monomial_or)
        values: list[int | None] = []
        for i, name in enumerate(u.names):
            if occurring[i] and name not in assignment:
                raise ValueError(f"assignment missing variable {name!r}")
            values.append(assignment.get(name))
        total = 0
        nb = u.nvars
        for m, c in (item for t in self._term_maps() for item in t.items()):
            v = c
            for i, e in enumerate(m.to_bytes(nb, "big")):
                if e:
                    v *= values[i] ** e
            total += v
        return total

    def __repr__(self):
        return f"<Polynomial {len(self)} terms>"


_TERMS = Polynomial.terms  # the slot itself, which _Blocked's `terms` shadows


class _Blocked(Polynomial):
    """A product kept in its blocks: the `terms` slot holds [(block key, block
    polynomial)], none of them zero.  Reading `terms` returns a new map of all
    of them joined and leaves the blocks as they are."""

    __slots__ = ()

    def _join(self) -> dict[int, int]:
        joined: dict[int, int] = {}
        for _, p in _TERMS.__get__(self):
            joined.update(p.terms)
        return joined

    terms = property(_join, _TERMS.__set__)

    def _term_maps(self):
        return [p.terms for _, p in _TERMS.__get__(self)]

    _monomial_or = property(lambda self: reduce(or_, [p._monomial_or for _, p in _TERMS.__get__(self)], 0))


def accumulate_product(acc: dict[int, int], p: Polynomial, q: Polynomial, negate: bool = False) -> None:
    """acc += p*q (or -= with negate), as raw term maps; zeros are kept.

    Shared hot loop for multiplication and determinant expansion.  Only when
    some operand exponent reaches 64, which no realistic input here does,
    are the per-variable maximum exponents of p and q summed: some product
    overflows a byte exactly when one of those sums exceeds EXPONENT_LIMIT,
    and then OverflowError is raised before acc changes.
    """
    a, b = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    if not a or not b:
        return
    u = p.universe
    if (p._monomial_or | q._monomial_or) & u._safe_mask:
        tops = (map(max, zip(*(m.to_bytes(u.nvars, "big") for m in t))) for t in (a, b))
        if any(x + y > EXPONENT_LIMIT for x, y in zip(*tops)):
            raise OverflowError("monomial exponent exceeds the packing limit")
    get = acc.get
    for m1, c1 in a.items():
        if negate:
            c1 = -c1
        for m2, c2 in b.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def _block_shift(universe: VariableUniverse, ps, qs=()) -> int | None:
    """Shift from a packed monomial to its block key, or None to keep term maps flat, by the
    module docstring's rule for products ps[i] * qs[j] (or for a division's operands ps alone)."""
    if universe.nvars <= 2 * BLOCK_VARS:
        return None
    bound = 1
    for xs in (ps, qs) if qs else (ps,):
        top = 0
        for x in xs:
            if type(x) is _Blocked:  # tested first: x.terms would join its blocks
                return 8 * (universe.nvars - BLOCK_VARS)
            if len(x.terms) > top:
                top = len(x.terms)
        bound *= top
    return 8 * (universe.nvars - BLOCK_VARS) if bound >= BLOCK_MIN_TERMS else None


def _parts(x: Polynomial, shift: int | None) -> list[tuple[int, Polynomial]]:
    """x as [(block key, block polynomial)]: one block under no shift, a blocked
    product's own list, or a split."""
    if shift is None:
        return [(0, x)]
    if type(x) is _Blocked:
        return _TERMS.__get__(x)
    blocks: dict[int, dict[int, int]] = {}
    for m, c in x.terms.items():
        blocks.setdefault(m >> shift, {})[m] = c
    return [(k, Polynomial._from_clean(x.universe, t)) for k, t in blocks.items()]


def sums_of_products(universe: VariableUniverse, ps: list, qs: list, sums) -> list[Polynomial]:
    """Per sum, the sum of ps[i]*qs[j] (negated where negate) over its (i, j, negate)
    triples.  Once `_block_shift` picks blocks, each operand is taken in blocks,
    a flat one split once per call, and each sum is returned in its blocks.

    The caller hands qs over: in blocks, each qs[j] and its split are set to None
    right after the last triple that reads j, so a determinant's top level frees
    the level below while its sum grows.  Pass a list you no longer need."""
    shift = _block_shift(universe, ps, qs)
    out: list[Polynomial] = []
    if shift is None:
        for pairs in sums:
            acc: dict[int, int] = {}
            for i, j, negate in pairs:
                accumulate_product(acc, ps[i], qs[j], negate)
            out.append(Polynomial._from_clean(universe, {m: c for m, c in acc.items() if c}))
        return out
    p_parts, q_parts = ([_parts(x, shift) for x in xs] for xs in (ps, qs))
    reads = Counter(j for pairs in sums for _, j, _ in pairs)  # triples still to read each qs[j]
    for pairs in sums:
        blocks: dict[int, dict[int, int]] = {}
        for i, j, negate in pairs:
            for kp, bp in p_parts[i]:
                for kq, bq in q_parts[j]:
                    accumulate_product(blocks.setdefault(kp + kq, {}), bp, bq, negate)
            reads[j] -= 1
            if not reads[j]:
                qs[j] = q_parts[j] = None
        for block in blocks.values():  # zeros are rare: deleting beats copying
            for m in [m for m, c in block.items() if not c]:
                del block[m]
        parts = [(key, Polynomial._from_clean(universe, block)) for key, block in blocks.items() if block]
        out.append(_Blocked._from_clean(universe, parts))
    return out


def _descending(keys: list[int], added: list[int]):
    """keys, sorted descending, merged with the heap `added` of negated keys,
    into which the caller pushes only keys below the one last yielded."""
    for m in keys:
        while added and -added[0] > m:
            yield -heappop(added)
        yield m
    while added:
        yield -heappop(added)


def exact_div(f: Polynomial, d: Polynomial) -> Polynomial | None:
    """Exact quotient f/d over the integers, or None when d does not divide f.

    Greedy cancellation of the lex-leading term; exactness of every
    intermediate coefficient division is required, matching divisibility in
    Z[x1..xm].  It is long division over block keys, each of f and d one
    block when `_block_shift` keeps them flat: the remainder's blocks
    (copies of a blocked dividend's own) are taken in descending key order,
    and each is divided by d's lead block alone, walking its nonzero terms
    sorted once, descending, with a side heap for only the keys that the
    subtraction adds.  The quotient block found there, times each lower
    block of d, is subtracted by `accumulate_product` into the block its key
    sum names.  A block whose key minus the lead key borrows must cancel to
    zero.  An exact quotient has deg q + deg d <= EXPONENT_LIMIT in every
    variable, so a block product that would overflow means None, not
    OverflowError.  A zero divisor raises ZeroDivisionError.
    """
    if not isinstance(d, Polynomial) or not isinstance(f, Polynomial):
        raise TypeError("exact_div expects polynomials")
    if not f.universe.compatible(d.universe):
        raise UniverseMismatch("polynomials over different universes")
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return Polynomial.zero(f.universe)
    u = f.universe
    guard = u._guard_mask
    shift = _block_shift(u, (f, d))
    (lead_key, lead), *lower = sorted(_parts(d, shift), reverse=True)  # the first block holds d's lead
    lead_d = max(lead.terms)
    lead_c = lead.terms[lead_d]
    rem = {k: dict(p.terms) for k, p in _parts(f, shift)}
    keys = sorted(-k for k in rem)  # a sorted list is a heap
    lead_items = [(md, cd) for md, cd in lead.terms.items() if md != lead_d]  # it would only cancel m: popped
    quotient: dict[int, int] = {}
    while keys:
        key = -heappop(keys)
        cur = rem.pop(key)
        added: list[int] = []
        q_block: dict[int, int] = {}
        for m in _descending(sorted([m for m, c in cur.items() if c], reverse=True), added):
            c = cur.pop(m, None)
            if not c:
                continue  # cancelled since the sort
            t = m - lead_d
            if t < 0 or (t & guard):  # as is every term of a block whose key borrows
                return None
            qc, r = divmod(c, lead_c)
            if r:
                return None
            q_block[t] = qc
            for md, cd in lead_items:
                mm = md + t
                old = cur.get(mm)
                nc = (old or 0) - cd * qc
                if nc:
                    cur[mm] = nc
                    if not old:  # maybe not among the sorted keys; a repeat pops nothing
                        heappush(added, -mm)
                elif old is not None:
                    del cur[mm]
        if q_block and lower:
            t_key = key - lead_key
            q_poly = Polynomial._from_clean(u, q_block)
            for d_key, d_poly in lower:
                low = rem.get(d_key + t_key)
                if low is None:
                    low = rem[d_key + t_key] = {}
                    heappush(keys, -(d_key + t_key))
                try:  # an exact quotient keeps deg q + deg d <= EXPONENT_LIMIT in every variable
                    accumulate_product(low, q_poly, d_poly, negate=True)
                except OverflowError:
                    return None
        quotient.update(q_block)
    return Polynomial._from_clean(u, quotient)
