"""Exact matrices over the integers or over a shared polynomial ring.

A MatrixExpr is dense row-major and never mixes entry kinds: every entry is
a Python int, or every entry is a Polynomial over one universe.  Nothing is
promoted: a constant in a polynomial matrix is a `Polynomial.constant`.  All
public row/column indices are 1-based, like the paper's k-subsets of {1..n},
which are plain increasing tuples; internals are 0-based.

Three determinant routines cross-check one another:

  * det_laplace   memoized column expansion, works for both entry kinds;
                  it is the k = n case of bordered_minors, the engine
                  behind every minor the package takes,
  * det_bareiss   fraction-free elimination, integer matrices only,
  * brute_force_det  signed permutation sum, capped at size 8, oracle role.

A fourth, det_mod, gives det(a) mod m for an integer matrix by elimination
mod m, so a divisibility test by m never forms the full determinant.
`det` takes det_bareiss for an integer matrix, det_laplace for a polynomial one.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, permutations
from math import gcd
from typing import Mapping, Sequence, Union

from .polyring import Polynomial, VariableUniverse, sums_of_products

RingEntry = Union[int, Polynomial]

BRUTE_FORCE_CAP = 8

# det_laplace's index tables (k = n) hold size * 2^(size-1) pairs: cached up to
# this size (at most 1 024 pairs each), built per call and dropped above it
LAPLACE_PLAN_CACHE_CAP = 8


class MatrixExpr:
    """Dense matrix with integer or polynomial entries, never mixed."""

    __slots__ = ("rows", "cols", "entries", "universe")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Sequence[RingEntry],
        universe: VariableUniverse | None = None,
    ):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        if universe is None:
            for e in entries:
                if not isinstance(e, int):
                    if not isinstance(e, Polynomial):
                        raise ValueError(f"unsupported entry type: {type(e).__name__}")
                    universe = e.universe
                    break
        if universe is not None:
            for e in entries:
                if not isinstance(e, Polynomial):
                    raise ValueError(f"cannot mix {type(e).__name__} and polynomial entries")
                if not e.universe.compatible(universe):
                    raise ValueError("entries over different universes")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.universe = universe

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[RingEntry]], universe: VariableUniverse | None = None
    ) -> "MatrixExpr":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [e for row in rows for e in row]
        return cls(nrows, ncols, flat, universe)

    @classmethod
    def identity(cls, n: int) -> "MatrixExpr":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int) -> RingEntry:
        """1-based entry access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"entry ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def row_list(self) -> list[list[RingEntry]]:
        c = self.cols
        return [self.entries[r * c : (r + 1) * c] for r in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, MatrixExpr):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        kind = "int" if self.universe is None else "poly"
        return f"<MatrixExpr {self.rows}x{self.cols} {kind}>"


def _normalize_indices(sel, limit: int) -> tuple[int, ...]:
    idx = tuple(sel)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    if any(i < 1 or i > limit for i in idx):
        raise ValueError("index out of range")
    return idx


def submatrix(a: MatrixExpr, row_sel, col_sel) -> MatrixExpr:
    """Rows and columns selected by 1-based strictly increasing indices."""
    ri = _normalize_indices(row_sel, a.rows)
    ci = _normalize_indices(col_sel, a.cols)
    c = a.cols
    ent = [a.entries[(i - 1) * c + (j - 1)] for i in ri for j in ci]
    return MatrixExpr(len(ri), len(ci), ent, a.universe)


def matmul(a: MatrixExpr, b: MatrixExpr) -> MatrixExpr:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.universe is not None or b.universe is not None:
        raise ValueError("matmul multiplies integer matrices only")
    n, p, m = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = []
    for i in range(n):
        base = i * p
        for j in range(m):
            out.append(sum(ae[base + t] * be[t * m + j] for t in range(p)))
    return MatrixExpr(n, m, out)


def _require_square(a: MatrixExpr):
    if not a.is_square:
        raise ValueError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")


def det_laplace(a: MatrixExpr) -> RingEntry:
    """Determinant by column expansion: the k = n case of bordered_minors."""
    _require_square(a)
    if not a.rows:
        return 1 if a.universe is None else Polynomial.one(a.universe)
    return bordered_minors(a, a.rows - 1)[0]


def bordered_minors(a: MatrixExpr, k: int) -> list:
    """det(a[I+, J+]) for every pair of k-subsets (I, J) of {1..n}, row-major.

    Column expansion memoized on (row set, column set): level 0 takes the
    border column alone, and level t takes the t-element suffix of some J
    plus the border column, i.e. every t-subset of columns 0..n-1 whose
    minimum is at least k - t.  Each level expands along its first column,
    over every (t+1)-subset of rows 0..n, except the last level (t = k),
    which needs only the row sets I+.  A sub-minor that several (I, J) share
    is thus expanded once, and levels below the current one are freed as the
    expansion climbs.  With k = n the single minor is det(a).  Callers have
    checked that `a` is (n+1) x (n+1) and 0 <= k <= n.
    """
    size = a.rows
    n = size - 1
    ent = a.entries
    if a.universe is None:
        expand, one = _expand_int, 1
    else:
        expand, one = partial(sums_of_products, a.universe), Polynomial.one(a.universe)
    level = {(): [one]}  # column suffix -> minors, indexed like that level's row sets
    if k < n or size <= LAPLACE_PLAN_CACHE_CAP:
        plans = _expansion_plan(size, k)
    else:
        plans = _expansion_plan.__wrapped__(size, k)
    for t, plan in enumerate(plans):
        level = {
            cols: expand(ent[cols[0] if cols else n :: size], level[cols[1:]], plan)
            for cols in combinations(range(k - t, n), t)
        }
    return [minor for row in zip(*level.values()) for minor in row]


@lru_cache(maxsize=64)
def _expansion_plan(size: int, k: int) -> tuple:
    """Index tables of bordered_minors; they depend only on the size and k.

    Level t has one entry per row set, in combinations order: for each row
    of the set, in order, (row, index of the row set without it in level
    t - 1, negate); the signs alternate, so negate holds at odd positions.
    """
    border = size - 1
    rank = {(): 0}
    plans = []
    for t in range(k + 1):
        if t < k:
            row_sets = list(combinations(range(size), t + 1))
        else:
            row_sets = [rows + (border,) for rows in combinations(range(border), k)]
        plans.append(
            tuple(
                tuple((r, rank[rows[:p] + rows[p + 1 :]], p % 2 == 1) for p, r in enumerate(rows))
                for rows in row_sets
            )
        )
        rank = {rows: i for i, rows in enumerate(row_sets)}
    return tuple(plans)


def _expand_int(column: list, sub: list, plan: tuple) -> list:
    """One Laplace step on raw ints: column[r] times the minors in sub."""
    out = []
    for terms in plan:
        acc = 0
        for r, j, negate in terms:
            e = column[r]
            if e:
                if negate:
                    acc -= e * sub[j]
                else:
                    acc += e * sub[j]
        out.append(acc)
    return out


def det(a: MatrixExpr) -> RingEntry:
    """det_bareiss for an integer matrix, det_laplace for a polynomial one."""
    return det_bareiss(a) if a.universe is None else det_laplace(a)


def det_bareiss(a: MatrixExpr) -> int:
    """Fraction-free determinant; integer matrices only, exact at every step."""
    _require_square(a)
    if a.universe is not None:
        raise TypeError("det_bareiss handles integer matrices only")
    n = a.rows
    if n == 0:
        return 1
    c = a.cols
    m = [list(a.entries[r * c : (r + 1) * c]) for r in range(n)]
    sign = 1
    prev = 1
    for j in range(n - 1):
        if m[j][j] == 0:
            for i in range(j + 1, n):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[j][j]
        row_j = m[j]
        for i in range(j + 1, n):
            row_i = m[i]
            lead = row_i[j]
            for l in range(j + 1, n):
                row_i[l] = (pivot * row_i[l] - lead * row_j[l]) // prev
            row_i[j] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_mod(a: MatrixExpr, m: int) -> int:
    """det(a) mod m in [0, m) for an integer matrix and any modulus m >= 1.

    Elimination mod m by row swaps and row operations of determinant 1 mod m,
    so a composite m needs no inverse that may not exist.  Each row is one
    int of fixed-width nonnegative slots, column j in slot j, and a row
    update is one multiply-add of whole rows, `(row + x * pivot) >> bits`
    with 0 < x <= m, whose shift drops the eliminated column.  The pivot row
    is reduced slot by slot mod m first, so a slot gains under 2 m^2 per
    column and stays below (2n + 2) m^2, which its width holds: no slot ever
    borrows or carries into the next.  Per column the pivot p is an entry
    whose gcd h with m is least; an entry e that h divides takes one update,
    as e = q p (mod m) for q = (e/h) (p/h)^-1 mod m/h, and any other entry
    one 2 x 2 step (s, t; m - e/g, p/g), s p + t e = g = gcd(p, e), on the
    reduced rows, which leaves g as the pivot.
    """
    _require_square(a)
    if a.universe is not None:
        raise TypeError("det_mod handles integer matrices only")
    if m < 1:
        raise ValueError("det_mod needs a modulus m >= 1")
    width = -(-((2 * a.rows + 2) * m * m).bit_length() // 8)
    bits, mask = 8 * width, (1 << 8 * width) - 1

    def pack(slots) -> int:
        return int.from_bytes(b"".join([(x % m).to_bytes(width, "little") for x in slots]), "little")

    def reduce(row: int) -> int:
        raw = row.to_bytes(-(-row.bit_length() // 8), "little")
        return pack([int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)])

    c = a.cols
    rows = [pack(a.entries[r * c : (r + 1) * c]) for r in range(a.rows)]
    det = 1 % m
    while rows:
        column = [(row & mask) % m for row in rows]
        ideals = [gcd(e, m) for e in column]
        h = min(ideals)
        if h == m:
            return 0
        pick = ideals.index(h)
        if pick:
            rows[0], rows[pick] = rows[pick], rows[0]
            column[0], column[pick] = column[pick], column[0]
            det = -det
        pivot, p = reduce(rows[0]), column[0]
        inverse = pow(p // h, -1, m // h)
        remaining = []
        for row, e in zip(rows[1:], column[1:]):
            if e % h == 0:
                remaining.append((row + (m - e // h * inverse % m) * pivot) >> bits)
                continue
            g, s, t = _xgcd(p, e)
            row = reduce(row)
            remaining.append(((p // g) * row + (m - e // g) * pivot) >> bits)
            pivot, p, h = reduce(s % m * pivot + t % m * row), g, gcd(g, m)
            inverse = pow(g // h, -1, m // h)
        det = det * p % m
        rows = remaining
    return det


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _parity(perm: Sequence[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        pi = perm[i]
        for j in range(i + 1, len(perm)):
            if pi > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def brute_force_det(a: MatrixExpr) -> RingEntry:
    """Signed permutation sum; the independent oracle, capped at size 8."""
    _require_square(a)
    n = a.rows
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute_force_det is capped at size {BRUTE_FORCE_CAP}")
    if n == 0:
        return 1 if a.universe is None else Polynomial.one(a.universe)
    ent = a.entries
    total = None
    for perm in permutations(range(n)):
        term = _parity(perm)
        for i in range(n):
            term = term * ent[i * n + perm[i]]
        total = term if total is None else total + term
    return total


def evaluate_matrix(a: MatrixExpr, assignment: Mapping[str, int]) -> MatrixExpr:
    """Specialize a polynomial matrix to an integer matrix."""
    if a.universe is None:
        raise TypeError("matrix is already an integer matrix")
    ent = [e.evaluate(assignment) for e in a.entries]
    return MatrixExpr(a.rows, a.cols, ent)
