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
mod m on rows packed into ints, so a divisibility test by m never forms the
full determinant.  `det` takes det_bareiss for an integer matrix above size
7, else det_laplace; `divides_det(d, a)`, the one test of d | det(a), takes
det_mod from MOD_DET_MIN_ROWS rows when d != 0, else `det`.

bordered_minors compiles each integer (size, k) plan once and keeps it: on
a shared 2-vCPU VM n = 4, k = 2 takes 0.7-1.2 ms once, then 5-8 us per
matrix, and n = 8, k = 4 5-7 ms, then 1.8-2.1 ms.  So det_laplace keeps the
plan of each integer size it is given, and a large size is slow the first
time: size 12 takes 0.08-0.1 s once, then 1.3-1.5 ms, and size 15 about
1.8 s and 70 MB kept, then 21-29 ms.  No verb compiles a k = n plan above size 9.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, permutations
from math import comb, gcd
from typing import Mapping, Sequence, Union

from .polyring import Polynomial, VariableUniverse, sums_of_products

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
    is thus expanded once.  On polynomials each list of minors below is
    freed by the step that reads it last, each minor right after its last
    product, so at the top level the level below shrinks while the sum
    grows.  With k = n the single minor is det(a).  Callers have checked
    that `a` is (n+1) x (n+1) and 0 <= k <= n.

    On integers each (size, k) plan is compiled once and kept (`_int_minors`),
    whole up to WHOLE_PLAN_MAX_PRODUCTS products, else one step per level for
    `_expand`; on polynomials `_expand` runs `polyring.sums_of_products` steps
    over the cached `_expansion_plan`.
    """
    size = a.rows
    if a.universe is None:
        return _int_minors(size, k)(a.entries)
    steps = [partial(sums_of_products, a.universe, sums=plan) for plan in _expansion_plan(size, k)]
    return _expand(steps, Polynomial.one(a.universe), a.entries, size, k, releases=True)


def _expand(steps, one, ent: list, size: int, k: int, releases: bool = False) -> list:
    """bordered_minors level by level: each step once per column suffix, with its column and the level below.

    In combinations order the last suffix to read a list below starts just below the list's first column
    (at size - 2 on level 1) and takes the list popped from its level.  Where steps release what they read
    (`releases`, as `sums_of_products` does), each earlier reader takes a copy."""
    level = {(): [one]}  # column suffix -> minors, indexed like that level's row sets
    for t, step in enumerate(steps):
        below, level = level, {}
        for cols in combinations(range(k - t, size - 1), t):
            if not t or cols[0] + 1 == (cols[1] if t > 1 else size - 1):
                minors = below.pop(cols[1:])
            else:
                minors = below[cols[1:]][:] if releases else below[cols[1:]]
            level[cols] = step(ent[cols[0] if t else size - 1 :: size], minors)
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


# The most products (c * s multiply-adds, once per column suffix) of a plan compiled whole. Compiling
# takes about 3.3 us and 1.3 KB of traced memory per product, once; per matrix n = 5, k = 2 (426
# products) went 22 -> 10 us and n = 6, k = 3 (2 825) 104 -> 74 us on a shared 2-vCPU VM, but a
# bound of 4 096, which compiles the latter whole, took fuzz-small's peak RSS 19.4 -> 21.9 MB.
WHOLE_PLAN_MAX_PRODUCTS = 512


@lru_cache(maxsize=64)
def _int_minors(size: int, k: int):
    """bordered_minors' integer function for (size, k), compiled from an uncached plan (not kept
    twice): `_whole_plan` up to WHOLE_PLAN_MAX_PRODUCTS products, else `_level_steps`."""
    plan = _expansion_plan.__wrapped__(size, k)
    products = sum(comb(size - 1 - k + t, t) * sum(map(len, rows)) for t, rows in enumerate(plan))
    return (_whole_plan if products <= WHOLE_PLAN_MAX_PRODUCTS else _level_steps)(plan, size, k)


def _whole_plan(plan: tuple, size: int, k: int):
    """`minors(e)`, straight-line: the entries e unpacked into locals, each minor below the last
    level one signed sum of products bound to a local, and the last level's returned row-major."""
    lines = [f"def minors(e):\n    {''.join(f'e{i}, ' for i in range(size * size))}= e\n"]
    level = {(): [""]}  # column suffix -> local names of its minors; "" is the empty minor, 1
    for t, rows in enumerate(plan):
        below, level = level, {}
        for cols in combinations(range(k - t, size - 1), t):
            col = cols[0] if cols else size - 1
            level[cols] = names = _signed_sums(rows, [f"e{r * size + col}" for r in range(size)], below[cols[1:]])
            for i, name in enumerate(names):
                if t < k and not name.isidentifier():
                    lines.append(f"    m{len(lines)} = {name}\n")
                    names[i] = f"m{len(lines) - 1}"
    lines.append(f"    return [{', '.join(name for row in zip(*level.values()) for name in row)}]\n")
    return _compiled("".join(lines), f"<bordered_minors {size}x{size} k={k}>")


def _level_steps(plan: tuple, size: int, k: int):
    """`_expand` over one compiled `minors(c, s)` per level: the column c and the level below s
    unpacked into locals, and one signed sum of products c_r * s_j returned per row set."""
    steps, column, below = [], [f"c{r}" for r in range(size)], ["s0"]  # level -1 is the empty minor
    for t, rows in enumerate(plan):
        unpack = f"    {', '.join(column)}, = c\n    {', '.join(below)}, = s\n"
        source = f"def minors(c, s):\n{unpack}    return [{', '.join(_signed_sums(rows, column, below))}]\n"
        steps.append(_compiled(source, f"<bordered_minors step {size}x{size} k={k} t={t}>"))
        below = [f"s{j}" for j in range(len(rows))]
    return partial(_expand, tuple(steps), 1, size=size, k=k)


def _signed_sums(rows: tuple, column: list, below: list) -> list:
    """Source of one plan level's minors, one signed sum of products per row set: column[r] names
    entry r of the level's column and below[j] minor j of the level below, "" for the empty minor."""
    return [
        "".join(f"{'+-'[neg]}{column[r]}" + (below[j] and f"*{below[j]}") for r, j, neg in terms).lstrip("+")
        for terms in rows
    ]


def _compiled(source: str, filename: str):
    """The function `minors` that source defines."""
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["minors"]


def det(a: MatrixExpr) -> RingEntry:
    """det_laplace for polynomials and where its k = n plan (size * 2^(size-1) products) compiles
    whole, det_bareiss for a larger integer matrix."""
    bareiss = a.universe is None and a.rows * 2 ** (a.rows - 1) > WHOLE_PLAN_MAX_PRODUCTS
    return det_bareiss(a) if bareiss else det_laplace(a)


# Matrices with fewer rows take `det` even when d != 0.  On 40 seeded bound-50
# compounds per plan (Python 3.11, shared 2-vCPU VM) det_mod takes 0.85-1.05x Bareiss's
# time on 10-row b0 compounds, 1.4-1.65x on ab0's, 0.27-0.91x on 15 rows, 0.18-0.31x
# on 20 and about 0.015x on 70; no compound has 11 to 14 rows
MOD_DET_MIN_ROWS = 15


def divides_det(d: int, a: MatrixExpr) -> bool:
    """d | det(a) for an integer matrix, where 0 divides only 0: from MOD_DET_MIN_ROWS rows and
    d != 0 by det_mod mod |d|, without the thousands of bits of det(a), else by det."""
    if d and a.rows >= MOD_DET_MIN_ROWS:
        return det_mod(a, abs(d)) == 0
    return det(a) % d == 0 if d else det(a) == 0


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
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_mod(a: MatrixExpr, m: int) -> int:
    """det(a) mod m in [0, m) for an integer matrix and any modulus m >= 1.

    Elimination mod m by row swaps and row operations of determinant 1 mod m,
    so a composite m needs no inverse that may not exist.  Each row is one
    int of fixed-width nonnegative slots, column j in slot j, and a row
    update is one multiply-add of whole rows, `(row + x * pivot) >> bits`
    with 0 < x <= m, whose shift drops the eliminated column.  Per column
    the pivot p is an entry whose gcd h with m is least; an entry e that h
    divides takes one update, as e = q p (mod m) for q = (e/h) (p/h)^-1
    mod m/h, and any other entry one 2 x 2 step (s, t; m - e/g, p/g) with
    s p + t e = g = gcd(p, e), on the reduced rows, leaving g as the pivot.

    A row is reduced by Barrett's method on whole rows, to slots below 2m: the
    even slots, and the odd ones shifted down one, sit alone in 2 bits bits
    each, where (s mu >> bits) & low, mu = 2^bits // m, is s // m or one less
    as s < 2^bits, and s mu < 2^(2 bits) stays put.  An update thus adds
    under 2 m^2 to a slot and a 2 x 2 step leaves it under 4 m^2, so after c
    columns a slot is below (2c + 2) m^2 <= 2n m^2 < 2^bits, which its width
    holds: no slot ever borrows or carries into the next.  Each input of a
    reduction, a row or the 2 x 2 step's new pivot (under 4 m^2), is below
    2^bits too, as Barrett's step needs.
    """
    _require_square(a)
    if a.universe is not None:
        raise TypeError("det_mod handles integer matrices only")
    if m < 1:
        raise ValueError("det_mod needs a modulus m >= 1")
    width = -(-((2 * a.rows + 2) * m * m).bit_length() // 8)
    bits = 8 * width
    mask, mu = (1 << bits) - 1, (1 << bits) // m
    low = int.from_bytes((b"\xff" * width + bytes(width)) * -(-a.cols // 2), "little")  # even slots

    def pack(slots) -> int:
        return int.from_bytes(b"".join([(x % m).to_bytes(width, "little") for x in slots]), "little")

    def reduce(row: int) -> int:
        even, odd = row & low, (row >> bits) & low
        return (even - m * ((even * mu >> bits) & low)) | (odd - m * ((odd * mu >> bits) & low)) << bits

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
