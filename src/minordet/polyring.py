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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

EXPONENT_LIMIT = 127

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TERM_RE = re.compile(r"([+-])(\d+)((?:\*[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?)*)")
_FACTOR_RE = re.compile(r"\*([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?")


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

    def __eq__(self, other):
        return isinstance(other, VariableUniverse) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableUniverse({len(self.names)} vars)"


@dataclass(frozen=True)
class PolyStats:
    """Size summary of a polynomial: term count, total degree, content."""

    monomials: int
    degree: int | None
    content: int

    def to_json_dict(self) -> dict:
        d: dict = {"monomials": self.monomials}
        if self.degree is not None:
            d["degree"] = self.degree
        d["content"] = self.content
        return d


class Polynomial:
    """Immutable canonical polynomial: packed monomial -> nonzero coefficient."""

    __slots__ = ("universe", "terms", "_key_or")

    def __init__(self, universe: VariableUniverse, terms: Mapping[int, int] = ()):
        clean: dict[int, int] = {}
        guard = universe._guard_mask
        for m, c in dict(terms).items():
            if m < 0 or (m & guard):
                raise ValueError("monomial out of range for universe")
            if m >> (8 * universe.nvars):
                raise ValueError("monomial has more variables than universe")
            if c:
                clean[m] = c
        self.universe = universe
        self.terms = clean
        self._key_or = None

    @classmethod
    def _from_clean(cls, universe: VariableUniverse, terms: dict[int, int]) -> "Polynomial":
        # internal: terms already canonical, no validation pass
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

    @classmethod
    def from_terms(
        cls,
        universe: VariableUniverse,
        terms: Iterable[tuple[int, Mapping[str, int]]],
    ) -> "Polynomial":
        """Build from (coefficient, {variable name: exponent}) pairs."""
        acc: dict[int, int] = {}
        for coeff, exps in terms:
            m = 0
            for name, e in exps.items():
                if e < 0 or e > EXPONENT_LIMIT:
                    raise ValueError(f"exponents must lie in [0, {EXPONENT_LIMIT}]")
                m += e << (8 * (universe.nvars - 1 - universe.index(name)))
            acc[m] = acc.get(m, 0) + coeff
        return cls._from_clean(universe, {m: c for m, c in acc.items() if c})

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
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.universe)
            return Polynomial._from_clean(
                self.universe, {m: c * other for m, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        accumulate_product(out, self, other)
        return Polynomial._from_clean(
            self.universe, {m: c for m, c in out.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None  # starting from the base, not from one, saves a product (det ** 1 in chio)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Polynomial.one(self.universe) if result is None else result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            if not self.universe.compatible(other.universe):
                return False
            return self.terms == other.terms
        if isinstance(other, int):
            if not other:
                return not self.terms
            return self.terms == {0: other}
        return NotImplemented

    __hash__ = None  # mutable dict inside; polynomials are not dict keys

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int | None:
        """Max over terms of the exponent sum; None for the zero polynomial."""
        if not self.terms:
            return None
        nb = self.universe.nvars
        return max(sum(m.to_bytes(nb, "big")) for m in self.terms)

    def content(self) -> int:
        """Nonnegative gcd of the coefficients; 0 for the zero polynomial."""
        return reduce(math.gcd, map(abs, self.terms.values()), 0)

    def stats(self) -> PolyStats:
        return PolyStats(len(self.terms), self.total_degree(), self.content())

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
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m.to_bytes(nb, "big")):
                if e:
                    v *= values[i] ** e
            total += v
        return total

    # -- canonical text ----------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form, terms in descending lex order, one space apart."""
        if not self.terms:
            return "0"
        u = self.universe
        nb = u.nvars
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            bits = [f"+{c}" if c > 0 else str(c)]
            for name, e in zip(u.names, m.to_bytes(nb, "big")):
                if e == 1:
                    bits.append(name)
                elif e:
                    bits.append(f"{name}^{e}")
            parts.append("*".join(bits))
        return " ".join(parts)

    @classmethod
    def parse(cls, universe: VariableUniverse, text: str) -> "Polynomial":
        """Inverse of serialize; accepts spaced or glued terms, nothing else."""
        if text == "0":
            return cls.zero(universe)
        terms: dict[int, int] = {}
        for token in text.split(" "):
            if not token:
                raise ValueError("empty term in polynomial text")
            pos = 0
            while pos < len(token):
                m = _TERM_RE.match(token, pos)
                if not m or m.start() != pos:
                    raise ValueError(f"cannot parse polynomial near {token[pos:]!r}")
                sign, digits, factors = m.groups()
                coeff = int(digits)
                if coeff == 0:
                    raise ValueError("zero coefficient term")
                if sign == "-":
                    coeff = -coeff
                mono = 0
                prev_index = -1
                for f in _FACTOR_RE.finditer(factors):
                    name, exp = f.group(1), int(f.group(2) or 1)
                    idx = universe.index(name)
                    if idx <= prev_index:
                        raise ValueError("variables out of canonical order in term")
                    prev_index = idx
                    if exp < 1 or exp > EXPONENT_LIMIT:
                        raise ValueError(f"exponent out of range: {exp}")
                    mono += exp << (8 * (universe.nvars - 1 - idx))
                if mono in terms:
                    raise ValueError("duplicate monomial in polynomial text")
                terms[mono] = coeff
                pos = m.end()
        return cls._from_clean(universe, terms)

    def __str__(self):
        return self.serialize()

    def __repr__(self):
        return f"<Polynomial {self.serialize()}>"


def accumulate_product(acc: dict[int, int], p: Polynomial, q: Polynomial, negate: bool = False) -> None:
    """acc += p*q (or -= with negate), as raw term maps; zeros are kept.

    Shared hot loop for multiplication and determinant expansion.  The guard
    bits are checked only when some operand exponent reaches 64, which no
    realistic input here does.
    """
    a, b = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    if not a or not b:
        return
    u = p.universe
    get = acc.get
    if (p._monomial_or | q._monomial_or) & u._safe_mask:
        guard = u._guard_mask
        for m1, c1 in a.items():
            if negate:
                c1 = -c1
            for m2, c2 in b.items():
                m = m1 + m2
                if m & guard:
                    raise OverflowError("monomial exponent exceeds the packing limit")
                acc[m] = get(m, 0) + c1 * c2
        return
    for m1, c1 in a.items():
        if negate:
            c1 = -c1
        for m2, c2 in b.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def exact_div(f: Polynomial, d: Polynomial) -> Polynomial | None:
    """Exact quotient f/d over the integers, or None when d does not divide f.

    Greedy cancellation of the lex-leading term; exactness of every
    intermediate coefficient division is required, matching divisibility in
    Z[x1..xm].  A zero divisor raises ZeroDivisionError.
    """
    if not isinstance(d, Polynomial) or not isinstance(f, Polynomial):
        raise TypeError("exact_div expects polynomials")
    if not f.universe.compatible(d.universe):
        raise UniverseMismatch("polynomials over different universes")
    if not d.terms:
        raise ZeroDivisionError("polynomial division by zero")
    if not f.terms:
        return Polynomial.zero(f.universe)
    u = f.universe
    guard = u._guard_mask
    lead_d = max(d.terms)
    lead_c = d.terms[lead_d]
    d_items = list(d.terms.items())
    rem = dict(f.terms)
    heap = [-m for m in rem]
    heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        m = -heappop(heap)
        c = rem.get(m)
        if not c:
            continue  # stale heap entry
        t = m - lead_d
        if t < 0 or (t & guard):
            return None
        qc, r = divmod(c, lead_c)
        if r:
            return None
        quotient[t] = qc
        for md, cd in d_items:
            mm = md + t
            old = rem.get(mm)
            nc = (old or 0) - cd * qc
            if nc:
                rem[mm] = nc
                if old is None:
                    heappush(heap, -mm)
            elif old is not None:
                del rem[mm]
    if rem:
        return None
    return Polynomial._from_clean(u, quotient)
