"""Determinant identities on matrices of bordered minors, verified exactly.

The objects of study are (n+1) x (n+1) matrices A and B with generic
(symbolic) entries, possibly constrained: a zero corner, a zero last row, or
borders of ones.  A k-subset of {1..n} is an increasing tuple, and the
subsets are listed in `itertools.combinations` order.  For each pair (I, J)
of k-subsets, the bordered minor takes rows I and columns J together with
the last row and column.  The compound of those minors for one matrix
satisfies a classical power identity (check_sylvester; check_chio is its
k = 1 case); for the entrywise product of the A-minor and the B-minor,
zero-corner constraints force det A (or det A * det B) to divide the
compound determinant.  check_sylvester derives the power identity at
1 < k < n from chio, Sylvester's identity on Chio's condensation (`condense`)
and the Sylvester-Franke theorem, which it checks up to FRANKE_CHECKED_N and
cites above, up to MAX_N_SYLVESTER.  Each theorem's constraints are stated once, in
THEOREM_CONSTRAINTS, and both evidence tiers read them there:
`forced_entries` turns them into fixed entries of the symbolic matrices here
and of the fuzzing oracle's integer draws, and `forced_divisor` derives the
divisor from them.  `symbolic_quotient` certifies the divisibility by exact
polynomial division for `quotient` and `check_lemma_adb0`.  This module is
the symbolic tier only: integer draws, and every check made on them, live in
`oracle`, whose `divisibility` picks the tier by size.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from itertools import combinations, product

from .exactmat import MatrixExpr, bordered_minors, det, det_laplace, submatrix
from .polyring import Polynomial, PolyStats, VariableUniverse, _omit_none, exact_div

# Each theorem's hypotheses on (A, B), shared by the symbolic checks and the fuzzing oracle.
THEOREM_CONSTRAINTS = {
    "b0": frozenset({"b_corner_zero"}),
    "ab0": frozenset({"a_corner_zero", "b_corner_zero"}),
    "adb0": frozenset({"a_last_row_zero", "b_corner_zero"}),
    "griolv": frozenset({"a_corner_zero", "borders_one_a", "b_corner_zero", "borders_one_b"}),
}
CONSTRAINT_FLAGS = frozenset().union(*THEOREM_CONSTRAINTS.values())

SYMBOLIC_N_LIMIT = 3
MAX_N_SYLVESTER = 7  # check_sylvester and check_chio refuse more; chio's det S took 1.3 s and 1.3 GB at n = 8
# Sylvester-Franke is checked up to this size (size 4: 5-6 ms) and cited above (size 5: 18.9 s, 1.2 GB)
FRANKE_CHECKED_N = 4


@dataclass(frozen=True)
class GenericSpec:
    """Size and constraint flags for a pair of generic bordered matrices."""

    n: int
    constraints: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "constraints", frozenset(self.constraints))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        unknown = self.constraints - CONSTRAINT_FLAGS
        if unknown:
            raise ValueError(f"unknown constraint flags: {sorted(unknown)}")
        if "a_last_row_zero" in self.constraints and "borders_one_a" in self.constraints:
            raise ValueError("a_last_row_zero contradicts borders_one_a")


@dataclass(frozen=True)
class CompoundMatrix:
    """A square matrix whose rows and columns are the k-subsets in `family`."""

    family: tuple[tuple[int, ...], ...]
    matrix: MatrixExpr


@dataclass
class VerificationReport:
    """Outcome of one identity check, JSON-stable."""

    check: str
    n: int
    k: int
    passed: bool
    witness: dict | None = None
    elapsed_ms: float = 0.0
    evidence: str | None = None  # "derived" where a cited theorem closes the proof

    def to_json_dict(self) -> dict:
        head = {"check": self.check, "n": self.n, "k": self.k, "pass": self.passed, "evidence": self.evidence}
        return _omit_none({**head, "witness": self.witness, "elapsed_ms": self.elapsed_ms})

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        cited = ", derived citing the Sylvester-Franke theorem" if self.evidence == "derived" else ""
        return f"{self.check} n={self.n} k={self.k}: {verdict}{cited} ({self.elapsed_ms} ms)"


@dataclass
class QuotientReport:
    """Constructive divisibility certificate for one constrained mode."""

    mode: str
    n: int
    k: int
    divisible: bool
    quotient_stats: PolyStats | None
    detw_stats: PolyStats
    unconstrained_detw_monomials: int | None = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.divisible

    def to_json_dict(self) -> dict:
        return _omit_none(
            {
                "check": "quotient",
                "n": self.n,
                "k": self.k,
                "mode": self.mode,
                "pass": self.divisible,
                "stats": self.quotient_stats.to_json_dict() if self.quotient_stats is not None else None,
                "detw_stats": self.detw_stats.to_json_dict(),
                "unconstrained_detw_monomials": self.unconstrained_detw_monomials,
                "elapsed_ms": self.elapsed_ms,
            }
        )

    def summary(self) -> str:
        line = f"quotient n={self.n} k={self.k}: {'PASS' if self.passed else 'FAIL'}"
        if self.quotient_stats is not None:
            line += f" quotient monomials={self.quotient_stats.monomials}"
        line += f" ({self.elapsed_ms} ms)"
        if self.unconstrained_detw_monomials is not None:
            line += f"\nunconstrained compound determinant monomials: {self.unconstrained_detw_monomials}"
        return line


def forced_entries(letter: str, n: int, constraints) -> dict[tuple[int, int], int]:
    """Positions (1-based) that the flags fix in the (n+1) x (n+1) matrix `letter`, with values.

    `letter` is "a" or "b"; each fixed entry is 0 or 1.
    """
    last = n + 1
    forced = {}
    if f"borders_one_{letter}" in constraints:
        for t in range(1, last):
            forced[(t, last)] = forced[(last, t)] = 1
    if letter == "a" and "a_last_row_zero" in constraints:  # the corner stays generic
        for j in range(1, last):
            forced[(last, j)] = 0
    if f"{letter}_corner_zero" in constraints:
        forced[(last, last)] = 0
    return forced


def generic_matrix(universe: VariableUniverse, letter: str, size: int, forced) -> MatrixExpr:
    """The size x size matrix of variables {letter}_i_j (1-based), constants where forced."""
    entries = [
        Polynomial.constant(universe, forced[(i, j)])
        if (i, j) in forced
        else Polynomial.variable(universe, f"{letter}_{i}_{j}")
        for i in range(1, size + 1)
        for j in range(1, size + 1)
    ]
    return MatrixExpr(size, size, entries, universe)


def build_generic(spec: GenericSpec):
    """Create the constrained generic pair (A, B) over one shared universe.

    Variables are named a_i_j / b_i_j, 1-based, and ordered row-major with
    all a-variables before all b-variables; constrained positions contribute
    constants instead of variables.
    """
    size = spec.n + 1
    forced = {letter: forced_entries(letter, spec.n, spec.constraints) for letter in "ab"}
    universe = VariableUniverse(
        f"{letter}_{i}_{j}"
        for letter in "ab"
        for i in range(1, size + 1)
        for j in range(1, size + 1)
        if (i, j) not in forced[letter]
    )
    a, b = (generic_matrix(universe, letter, size, forced[letter]) for letter in "ab")
    return a, b, universe


def _single_generic(n: int):
    """One fully generic (n+1) x (n+1) matrix over a universe of its own variables."""
    size = n + 1
    universe = VariableUniverse(f"a_{i}_{j}" for i in range(1, size + 1) for j in range(1, size + 1))
    return generic_matrix(universe, "a", size, {}), universe


def compound_minors(a: MatrixExpr, k: int) -> CompoundMatrix:
    """Square matrix of bordered minors det(sub_{I+}^{J+} a) over the k-subset family.

    `a` is (n+1) x (n+1); rows and columns are indexed by the k-subsets of
    {1..n} in lexicographic order.
    """
    if not a.is_square or a.rows < 1:
        raise ValueError("compound_minors needs a square matrix of size at least 1")
    family = _subset_family(a.rows - 1, k)
    m = MatrixExpr(len(family), len(family), bordered_minors(a, k), a.universe)
    return CompoundMatrix(family, m)


def compound_minor_products(a: MatrixExpr, b: MatrixExpr, k: int) -> CompoundMatrix:
    """Entrywise products of the A-minor and B-minor over the k-subset family."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("the two matrices must have equal shape")
    if not a.is_square or a.rows < 1:
        raise ValueError("compound_minor_products needs square matrices of size at least 1")
    family = _subset_family(a.rows - 1, k)
    ent = [x * y for x, y in zip(bordered_minors(a, k), bordered_minors(b, k))]
    m = MatrixExpr(len(family), len(family), ent, a.universe)
    return CompoundMatrix(family, m)


def compound(m: MatrixExpr, k: int, size: int) -> MatrixExpr:
    """C_k(m padded with zeros to size x size), as the bordered minors of [[m, 0], [0, 1]]."""
    zero, one = (0, 1) if m.universe is None else (Polynomial.zero(m.universe), Polynomial.one(m.universe))
    rows = m.row_list() + [[]] * (size - m.rows)
    ent = [e for row in rows for e in row + [zero] * (size + 1 - len(row))] + [zero] * size + [one]
    return compound_minors(MatrixExpr(size + 1, size + 1, ent, m.universe), k).matrix


def condense(a: MatrixExpr):
    """Chio's condensation (S, c) of (n+1) x (n+1) `a`: its corner c and S = c A' - u v^T, whose entry
    c a_ij - a_i,n+1 a_n+1,j is the 2 x 2 bordered minor on (i, j), so S is taken as the k = 1 compound."""
    n = a.rows - 1
    return MatrixExpr(n, n, bordered_minors(a, 1), a.universe), a.entry(n + 1, n + 1)


def _subset_family(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of {1..n} in combinations order, for 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n} k={k}")
    return tuple(combinations(range(1, n + 1), k))


def forced_divisor(theorem: str, a, b):
    """What the theorem's hypotheses force to divide det W: det A, times det B if A's corner is 0."""
    if "a_corner_zero" in THEOREM_CONSTRAINTS[theorem]:
        return det(a) * det(b)
    return det(a)


def power_identity(a: MatrixExpr, k: int):
    """(det C_k(a), corner^C(n-1, k) * det(a)^C(n-1, k-1)) for (n+1) x (n+1) `a`, ints or polynomials."""
    if a.rows < 2 or not 0 <= k < a.rows:
        raise ValueError(f"need 1 <= n and 0 <= k <= n, got n={a.rows - 1} k={k}")
    n = a.rows - 1
    p, q = math.comb(n - 1, k), math.comb(n - 1, k - 1) if k else 0
    corner = a.entry(a.rows, a.cols)
    return det(compound_minors(a, k).matrix), corner**p * det(a) ** q if q else corner**p


def franke_identity(m: MatrixExpr, k: int):
    """(det C_k(m), det(m)^C(n-1, k-1)) for n x n `m`, equal by the Sylvester-Franke theorem."""
    return det(compound(m, k, m.rows)), det(m) ** (math.comb(m.rows - 1, k - 1) if k else 0)


def symbolic_quotient(theorem: str, a: MatrixExpr, b: MatrixExpr, k: int):
    """(det W, forced divisor, det W / divisor or None) for a symbolic pair.

    A zero divisor (det A at n = 0 under a zero corner) divides only a zero
    det W, and then the quotient is 0.
    """
    det_w = det_laplace(compound_minor_products(a, b, k).matrix)
    divisor = forced_divisor(theorem, a, b)
    if not divisor:
        return det_w, divisor, None if det_w else Polynomial.zero(det_w.universe)
    return det_w, divisor, exact_div(det_w, divisor)


# -- checks ------------------------------------------------------------------


def check_sylvester(n: int, k: int) -> VerificationReport:
    """Symbolic power identity det Cb_k(A) = c^C(n-1, k) det A^C(n-1, k-1) for one generic matrix.

    k in {0, 1, n} expands both sides.  Any other k is derived, with (S, c) = condense(A), from
    Sylvester's identity c^(k-1) Cb_k(A) = C_k(S) entry by entry, chio det S = c^(n-1) det A and the
    Sylvester-Franke theorem det C_k(S) = det S^C(n-1, k-1) (Tornheim, Amer. Math. Monthly 1952): as
    (n-1) C(n-1, k-1) - (k-1) C(n, k) = C(n-1, k), cancelling c^((k-1) C(n, k)) in the domain Z[x]
    leaves the identity.  The first two are checked; Sylvester-Franke is checked on a generic n x n
    matrix up to FRANKE_CHECKED_N and cited above it, where the report's evidence is "derived".
    """
    t0 = time.perf_counter()
    if n > MAX_N_SYLVESTER:
        raise ValueError(f"the power identity is checked symbolically up to n = {MAX_N_SYLVESTER}")
    a, _ = _single_generic(n)
    evidence = witness = None
    if not 1 < k < n:
        lhs, rhs = power_identity(a, k)
        if lhs != rhs:
            witness = {"lhs_stats": lhs.stats().to_json_dict(), "rhs_stats": rhs.stats().to_json_dict()}
    else:
        failures = _derivation_failures(a, k)
        witness = {"failures": failures} if failures else None
        evidence = "derived" if n > FRANKE_CHECKED_N else None
    return VerificationReport(
        check="sylvester", n=n, k=k, passed=witness is None, witness=witness, evidence=evidence, elapsed_ms=_ms(t0)
    )


def _derivation_failures(a: MatrixExpr, k: int) -> list[str]:
    """The checked steps of check_sylvester's derivation at 1 <= k <= n that fail."""
    n = a.rows - 1
    s, c = condense(a)
    failures = []
    if [c ** (k - 1) * minor for minor in bordered_minors(a, k)] != compound(s, k, n).entries:
        failures.append("entrywise")
    if not operator.eq(*power_identity(a, 1)):
        failures.append("chio")
    if n <= FRANKE_CHECKED_N and not operator.eq(*franke_identity(_single_generic(n - 1)[0], k)):
        failures.append("Sylvester-Franke")
    return failures


def check_chio(n: int) -> VerificationReport:
    """Pivotal condensation: the k = 1 power identity, corner^(n-1) * det."""
    return replace(check_sylvester(n, 1), check="chio")


def quotient(
    mode: str,
    n: int,
    k: int,
    unconstrained_count: bool = False,
) -> QuotientReport:
    """Divide the compound determinant by its forced factor, constructively.

    mode is a THEOREM_CONSTRAINTS key, e.g. "b0" (B's corner zero); the divisor
    is forced_divisor's (det A, or det A * det B).  Bounded at n <= 3.
    """
    t0 = time.perf_counter()
    if mode not in THEOREM_CONSTRAINTS:
        raise ValueError(f"unknown quotient mode: {mode!r}")
    if n > SYMBOLIC_N_LIMIT:
        raise ValueError(f"symbolic quotient is bounded at n <= {SYMBOLIC_N_LIMIT}")
    a, b, _ = build_generic(GenericSpec(n, THEOREM_CONSTRAINTS[mode]))
    det_w, _, q = symbolic_quotient(mode, a, b, k)
    unconstrained = None
    if unconstrained_count:
        ga, gb, _ = build_generic(GenericSpec(n, frozenset()))
        unconstrained = len(det_laplace(compound_minor_products(ga, gb, k).matrix))
    return QuotientReport(
        mode=mode,
        n=n,
        k=k,
        divisible=q is not None,
        quotient_stats=q.stats() if q is not None else None,
        detw_stats=det_w.stats(),
        unconstrained_detw_monomials=unconstrained,
        elapsed_ms=_ms(t0),
    )


def check_lemma_adb0(n: int, k: int) -> VerificationReport:
    """Zero last row on A plus zero corner on B: divisibility and structure.

    Verifies det A | det W by exact division, together with the two
    structural facts that drive it: det A factors through the corner times
    det A_top, A's top-left n x n block, and every bordered minor of A
    through the corner times the unbordered minor, an entry of C_k(A_top).
    """
    t0 = time.perf_counter()
    if n > SYMBOLIC_N_LIMIT:
        raise ValueError(f"check_lemma_adb0 is symbolic and bounded at n <= {SYMBOLIC_N_LIMIT}")
    a, b, _ = build_generic(GenericSpec(n, THEOREM_CONSTRAINTS["adb0"]))
    corner = a.entry(n + 1, n + 1)
    det_w, det_a, q = symbolic_quotient("adb0", a, b, k)
    top = submatrix(a, range(1, n + 1), range(1, n + 1))
    failures = []
    if det_a != corner * det_laplace(top):
        failures.append("corner-block factorization")
    cb = compound_minors(a, k)
    pairs = product(cb.family, repeat=2)  # row-major, like the entries
    for (row_set, col_set), bordered, minor in zip(pairs, cb.matrix.entries, compound(top, k, n).entries):
        if bordered != corner * minor:
            failures.append(f"minor factorization at ({row_set}, {col_set})")
            break
    if q is None or det_a * q != det_w:
        failures.append("divisibility")
    passed = not failures
    witness = {"failures": failures} if failures else None
    return VerificationReport(
        check="lemma-adb0", n=n, k=k, passed=passed, witness=witness, elapsed_ms=_ms(t0)
    )


def _ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)
