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
compound determinant, which `quotient` certifies constructively by exact
polynomial division.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations, product

from .exactmat import (
    MatrixExpr,
    bordered_minors,
    det_bareiss,
    det_laplace,
    evaluate_matrix,
    matmul,
    submatrix,
)
from .polyring import Polynomial, PolyStats, VariableUniverse, exact_div
from .rng import rand_int_matrix, trial_rng

CONSTRAINT_FLAGS = frozenset(
    {"a_corner_zero", "b_corner_zero", "a_last_row_zero", "borders_one_a", "borders_one_b"}
)

SYMBOLIC_N_LIMIT = 3


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
class SylvesterExponents:
    """The two exponents of the compound power identity, binomials in n and k."""

    p: int
    q: int

    @classmethod
    def from_params(cls, n: int, k: int) -> "SylvesterExponents":
        if n < 1 or k < 0 or k > n:
            raise ValueError(f"need 1 <= n and 0 <= k <= n, got n={n} k={k}")
        p = math.comb(n - 1, k)
        q = math.comb(n - 1, k - 1) if k >= 1 else 0
        if p + q != math.comb(n, k):  # Pascal sanity
            raise AssertionError("exponent pair violates the Pascal relation")
        return cls(p, q)


@dataclass(frozen=True)
class CompoundMatrix:
    """A square matrix whose rows and columns are the k-subsets in `family`."""

    family: tuple[tuple[int, ...], ...]
    matrix: MatrixExpr

    def entry(self, row_subset, col_subset):
        """The entry at two k-subsets; ValueError if either is not in the family."""
        i = self.family.index(tuple(row_subset))
        j = self.family.index(tuple(col_subset))
        return self.matrix.entry(i + 1, j + 1)


@dataclass
class VerificationReport:
    """Outcome of one identity check, JSON-stable."""

    check: str
    n: int
    k: int
    passed: bool
    mode: str | None = None
    stats: PolyStats | None = None
    witness: dict | None = None
    elapsed_ms: float = 0.0

    def to_json_dict(self) -> dict:
        d: dict = {"check": self.check, "n": self.n, "k": self.k}
        if self.mode is not None:
            d["mode"] = self.mode
        d["pass"] = self.passed
        if self.stats is not None:
            d["stats"] = self.stats.to_json_dict()
        if self.witness is not None:
            d["witness"] = self.witness
        d["elapsed_ms"] = self.elapsed_ms
        return d


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

    def to_json_dict(self) -> dict:
        d: dict = {
            "check": "quotient",
            "n": self.n,
            "k": self.k,
            "mode": self.mode,
            "pass": self.divisible,
        }
        if self.quotient_stats is not None:
            d["stats"] = self.quotient_stats.to_json_dict()
        d["detw_stats"] = self.detw_stats.to_json_dict()
        if self.unconstrained_detw_monomials is not None:
            d["unconstrained_detw_monomials"] = self.unconstrained_detw_monomials
        d["elapsed_ms"] = self.elapsed_ms
        return d


def _entry_value(i: int, j: int, n: int, corner_zero: bool, last_row_zero: bool, borders_one: bool):
    """Classify position (i, j) of an (n+1) x (n+1) matrix: "var", 0 or 1."""
    last = n + 1
    if i == last and j == last:
        return 0 if corner_zero else "var"
    if i == last and last_row_zero:
        return 0
    if (i == last or j == last) and borders_one:
        return 1
    return "var"


def _matrix_pattern(letter: str, n: int, constraints: frozenset[str]):
    corner = f"{letter}_corner_zero" in constraints
    last_row = "a_last_row_zero" in constraints and letter == "a"
    borders = f"borders_one_{letter}" in constraints
    return [
        [_entry_value(i, j, n, corner, last_row, borders) for j in range(1, n + 2)]
        for i in range(1, n + 2)
    ]


def build_generic(spec: GenericSpec):
    """Create the constrained generic pair (A, B) over one shared universe.

    Variables are named a_i_j / b_i_j, 1-based, and ordered row-major with
    all a-variables before all b-variables; constrained positions contribute
    constants instead of variables.
    """
    patterns = {letter: _matrix_pattern(letter, spec.n, spec.constraints) for letter in "ab"}
    names = [
        f"{letter}_{i + 1}_{j + 1}"
        for letter in "ab"
        for i in range(spec.n + 1)
        for j in range(spec.n + 1)
        if patterns[letter][i][j] == "var"
    ]
    universe = VariableUniverse(names)
    matrices = {}
    for letter in "ab":
        rows = []
        for i in range(spec.n + 1):
            row = []
            for j in range(spec.n + 1):
                v = patterns[letter][i][j]
                if v == "var":
                    row.append(Polynomial.variable(universe, f"{letter}_{i + 1}_{j + 1}"))
                else:
                    row.append(Polynomial.constant(universe, v))
            rows.append(row)
        matrices[letter] = MatrixExpr.from_rows(rows, universe)
    return matrices["a"], matrices["b"], universe


def _single_generic(n: int, letter: str = "a"):
    """One fully generic (n+1) x (n+1) matrix over a universe of its own variables."""
    names = [f"{letter}_{i}_{j}" for i in range(1, n + 2) for j in range(1, n + 2)]
    universe = VariableUniverse(names)
    rows = [
        [Polynomial.variable(universe, f"{letter}_{i}_{j}") for j in range(1, n + 2)]
        for i in range(1, n + 2)
    ]
    return MatrixExpr.from_rows(rows, universe), universe


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


def _subset_family(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k-subsets of {1..n} in combinations order, for 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n} k={k}")
    return tuple(combinations(range(1, n + 1), k))


# -- checks ------------------------------------------------------------------


def check_sylvester(n: int, k: int) -> VerificationReport:
    """Symbolic power identity for the compound of bordered minors of one matrix."""
    t0 = time.perf_counter()
    exps = SylvesterExponents.from_params(n, k)
    a, _ = _single_generic(n)
    compound = compound_minors(a, k)
    lhs = det_laplace(compound.matrix)
    corner = a.entry(n + 1, n + 1)
    rhs = corner**exps.p * det_laplace(a) ** exps.q
    passed = lhs == rhs
    witness = None
    if not passed:
        witness = {"lhs_stats": lhs.stats().to_json_dict(), "rhs_stats": rhs.stats().to_json_dict()}
    return VerificationReport(
        check="sylvester",
        n=n,
        k=k,
        passed=passed,
        witness=witness,
        elapsed_ms=_ms(t0),
    )


def check_chio(n: int) -> VerificationReport:
    """Pivotal condensation: the k = 1 power identity, corner^(n-1) * det."""
    return replace(check_sylvester(n, 1), check="chio")


def check_cauchy_binet(
    dims: tuple[int, int, int],
    k: int,
    trials: int = 100,
    seed: int = 0,
    bound: int = 100,
) -> VerificationReport:
    """Minor-of-a-product expansion on random integer matrices.

    dims = (n, p, m): A is n x p, B is p x m.  For every size-k row set P and
    column set Q, det(sub_P^Q(AB)) must equal the sum over size-k subsets R
    of the inner index range of det(sub_P^R A) * det(sub_R^Q B); for k > p
    the sum is empty and the left side must vanish.
    """
    t0 = time.perf_counter()
    n, p, m = dims
    if min(dims) < 0 or max(dims) > 6:
        raise ValueError("dimensions must lie in [0, 6]")
    if k < 0 or k > min(n, m):
        raise ValueError("need 0 <= k <= min(n, m)")
    if trials < 1:
        raise ValueError("trials must be positive")
    row_sets = tuple(combinations(range(1, n + 1), k))
    col_sets = tuple(combinations(range(1, m + 1), k))
    inner_sets = tuple(combinations(range(1, p + 1), k))  # empty when k > p
    passed = True
    witness = None
    for t in range(trials):
        rng = trial_rng(seed, t)
        a = rand_int_matrix(rng, n, p, bound)
        b = rand_int_matrix(rng, p, m, bound)
        ab = matmul(a, b)
        for row_set in row_sets:
            for col_set in col_sets:
                lhs = det_bareiss(submatrix(ab, row_set, col_set))
                rhs = sum(
                    det_bareiss(submatrix(a, row_set, r)) * det_bareiss(submatrix(b, r, col_set))
                    for r in inner_sets
                )
                if lhs != rhs:
                    passed = False
                    witness = {
                        "trial": t,
                        "a": a.row_list(),
                        "b": b.row_list(),
                        "row_set": list(row_set),
                        "col_set": list(col_set),
                        "lhs": lhs,
                        "rhs": rhs,
                    }
                    break
            if not passed:
                break
        if not passed:
            break
    return VerificationReport(
        check="cauchy-binet", n=n, k=k, passed=passed, witness=witness, elapsed_ms=_ms(t0)
    )


def check_griolv_k2(
    n: int, trials: int = 100, seed: int = 0, bound: int = 100
) -> VerificationReport:
    """Borders-one, corner-zero case at k = 2: closed-form entries plus divisibility.

    Every entry of the minor-product compound must equal
    (a_jk + a_il - a_ik - a_jl) * (b_jk + b_il - b_ik - b_jl) for row pair
    {i < j} and column pair {k < l}.  Divisibility of the compound
    determinant by det A * det B is verified symbolically for n <= 3 and at
    random integer points for larger n.
    """
    t0 = time.perf_counter()
    if n < 2:
        raise ValueError("check_griolv_k2 needs n >= 2")
    spec = GenericSpec(
        n, frozenset({"a_corner_zero", "borders_one_a", "b_corner_zero", "borders_one_b"})
    )
    a, b, universe = build_generic(spec)
    compound = compound_minor_products(a, b, 2)
    passed = True
    witness = None
    for row_set in compound.family:
        i, j = row_set
        for col_set in compound.family:
            kk, ll = col_set
            expected_a = a.entry(j, kk) + a.entry(i, ll) - a.entry(i, kk) - a.entry(j, ll)
            expected_b = b.entry(j, kk) + b.entry(i, ll) - b.entry(i, kk) - b.entry(j, ll)
            if compound.entry(row_set, col_set) != expected_a * expected_b:
                passed = False
                witness = {"row_set": list(row_set), "col_set": list(col_set), "problem": "entry"}
                break
        if not passed:
            break
    if passed:
        if n <= SYMBOLIC_N_LIMIT:
            det_w = det_laplace(compound.matrix)
            divisor = det_laplace(a) * det_laplace(b)
            q = exact_div(det_w, divisor)
            if q is None or divisor * q != det_w:
                passed = False
                witness = {"problem": "divisibility", "evidence": "symbolic"}
        else:
            for t in range(trials):
                rng = trial_rng(seed, t)
                assignment = {name: rng.randint(-bound, bound) for name in universe.names}
                w_val = det_bareiss(evaluate_matrix(compound.matrix, assignment))
                d_val = det_bareiss(evaluate_matrix(a, assignment)) * det_bareiss(
                    evaluate_matrix(b, assignment)
                )
                ok = (w_val == 0) if d_val == 0 else (w_val % d_val == 0)
                if not ok:
                    passed = False
                    witness = {"problem": "divisibility", "evidence": "pointwise", "trial": t}
                    break
    return VerificationReport(
        check="griolv", n=n, k=2, passed=passed, witness=witness, elapsed_ms=_ms(t0)
    )


def quotient(
    mode: str,
    n: int,
    k: int,
    unconstrained_count: bool = False,
) -> QuotientReport:
    """Divide the compound determinant by its forced factor, constructively.

    mode "b0" zeroes the corner of B and divides by det A; mode "ab0" zeroes
    both corners and divides by det A * det B.  Symbolic work is bounded at
    n <= 3.
    """
    t0 = time.perf_counter()
    if mode not in ("b0", "ab0"):
        raise ValueError(f"unknown quotient mode: {mode!r}")
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if n > SYMBOLIC_N_LIMIT:
        raise ValueError(f"symbolic quotient is bounded at n <= {SYMBOLIC_N_LIMIT}")
    flags = {"b_corner_zero"} if mode == "b0" else {"a_corner_zero", "b_corner_zero"}
    a, b, _ = build_generic(GenericSpec(n, frozenset(flags)))
    det_w = det_laplace(compound_minor_products(a, b, k).matrix)
    divisor = det_laplace(a) if mode == "b0" else det_laplace(a) * det_laplace(b)
    if not divisor:
        # n = 0 in mode ab0: det A = 0 and det W = 0, so 0 divides 0 with quotient 0
        divisible = not det_w
        q = Polynomial.zero(det_w.universe) if divisible else None
    else:
        q = exact_div(det_w, divisor)
        divisible = q is not None
    unconstrained = None
    if unconstrained_count:
        ga, gb, _ = build_generic(GenericSpec(n, frozenset()))
        unconstrained = len(det_laplace(compound_minor_products(ga, gb, k).matrix).terms)
    return QuotientReport(
        mode=mode,
        n=n,
        k=k,
        divisible=divisible,
        quotient_stats=q.stats() if q is not None else None,
        detw_stats=det_w.stats(),
        unconstrained_detw_monomials=unconstrained,
        elapsed_ms=_ms(t0),
    )


def check_lemma_adb0(n: int, k: int) -> VerificationReport:
    """Zero last row on A plus zero corner on B: divisibility and structure.

    Verifies det A | det W by exact division, together with the two
    structural facts that drive it: det A factors through the corner times
    the top-left block determinant, and every bordered minor of A factors
    through the corner times the unbordered minor.
    """
    t0 = time.perf_counter()
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if n > SYMBOLIC_N_LIMIT:
        raise ValueError(f"check_lemma_adb0 is symbolic and bounded at n <= {SYMBOLIC_N_LIMIT}")
    a, b, _ = build_generic(GenericSpec(n, frozenset({"a_last_row_zero", "b_corner_zero"})))
    corner = a.entry(n + 1, n + 1)
    det_a = det_laplace(a)
    failures = []
    if det_a != corner * det_laplace(submatrix(a, range(1, n + 1), range(1, n + 1))):
        failures.append("corner-block factorization")
    compound = compound_minors(a, k)
    pairs = product(compound.family, repeat=2)  # row-major, like the entries
    for (row_set, col_set), bordered in zip(pairs, compound.matrix.entries):
        if bordered != corner * det_laplace(submatrix(a, row_set, col_set)):
            failures.append(f"minor factorization at ({row_set}, {col_set})")
            break
    det_w = det_laplace(compound_minor_products(a, b, k).matrix)
    q = exact_div(det_w, det_a)
    if q is None or det_a * q != det_w:
        failures.append("divisibility")
    passed = not failures
    witness = {"failures": failures} if failures else None
    return VerificationReport(
        check="lemma-adb0", n=n, k=k, passed=passed, witness=witness, elapsed_ms=_ms(t0)
    )


def _ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)
