"""Exact matrices over the integers or over a shared polynomial ring.

A MatrixExpr is dense row-major and never mixes entry kinds: every entry is
a Python int, or every entry is a Polynomial over one universe (integer
literals 0 and 1 are promoted when they appear next to polynomials, nothing
else is).  All public row/column indices are 1-based, like the paper's
k-subsets of {1..n}, which are plain increasing tuples; internals are 0-based.

Three determinant routines cross-check one another:

  * det_laplace   memoized column expansion, works for both entry kinds;
                  it is the k = n case of bordered_minors, the engine that
                  builds every bordered minor of a compound,
  * det_bareiss   fraction-free elimination, integer matrices only,
  * brute_force_det  signed permutation sum, capped at size 8, oracle role.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, permutations
from typing import Mapping, Sequence, Union

from .polyring import Polynomial, VariableUniverse, accumulate_product

RingEntry = Union[int, Polynomial]

BRUTE_FORCE_CAP = 8


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
                if isinstance(e, Polynomial):
                    universe = e.universe
                    break
        if universe is not None:
            promoted = []
            for e in entries:
                if isinstance(e, Polynomial):
                    if not e.universe.compatible(universe):
                        raise ValueError("entries over different universes")
                    promoted.append(e)
                elif isinstance(e, int) and e in (0, 1):
                    promoted.append(Polynomial.constant(universe, e))
                else:
                    raise ValueError(
                        "cannot mix integer and polynomial entries "
                        "(only literals 0 and 1 are promoted)"
                    )
            entries = promoted
        else:
            for e in entries:
                if not isinstance(e, int):
                    raise ValueError(f"unsupported entry type: {type(e).__name__}")
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

    def __matmul__(self, other):
        return matmul(self, other)

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
    if (a.universe is None) != (b.universe is None):
        raise ValueError("cannot multiply integer and polynomial matrices")
    n, p, m = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out: list[RingEntry] = []
    if a.universe is None:
        for i in range(n):
            base = i * p
            for j in range(m):
                out.append(sum(ae[base + t] * be[t * m + j] for t in range(p)))
        return MatrixExpr(n, m, out)
    u = a.universe
    if not u.compatible(b.universe):
        raise ValueError("entries over different universes")
    for i in range(n):
        for j in range(m):
            acc: dict[int, int] = {}
            for t in range(p):
                accumulate_product(acc, ae[i * p + t], be[t * m + j])
            out.append(Polynomial._from_clean(u, {k: v for k, v in acc.items() if v}))
    return MatrixExpr(n, m, out, u)


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
        expand, one = partial(_expand_poly, a.universe), Polynomial.one(a.universe)
    level = {(): [one]}  # column suffix -> minors, indexed like that level's row sets
    for t, plan in enumerate(_expansion_plan(size, k)):
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
    t - 1).  The expansion signs alternate along that order.
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
                tuple((r, rank[rows[:p] + rows[p + 1 :]]) for p, r in enumerate(rows))
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
        negate = False
        for r, j in terms:
            e = column[r]
            if e:
                if negate:
                    acc -= e * sub[j]
                else:
                    acc += e * sub[j]
            negate = not negate
        out.append(acc)
    return out


def _expand_poly(universe: VariableUniverse, column: list, sub: list, plan: tuple) -> list:
    """The same step over polynomials, accumulating raw term maps."""
    out = []
    for terms in plan:
        acc: dict[int, int] = {}
        negate = False
        for r, j in terms:
            accumulate_product(acc, column[r], sub[j], negate)
            negate = not negate
        out.append(Polynomial._from_clean(universe, {m: c for m, c in acc.items() if c}))
    return out


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
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
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
