"""Randomized integer checks of the symbolic claims.

Polynomial identities and divisibilities survive every integer
specialization, so random integer matrices give an independent, cheap
oracle: build the compound of bordered minors numerically and test
divisibility or the power identity pointwise.  Whether d | det W is decided
by `exactmat.divides_det`, which alone picks the determinant method by size.
The entries each theorem fixes and the divisor it forces come from
the same rules as the symbolic checks (`forced_entries`, `forced_divisor`).
Negative controls run the same pipeline with the structural constraints
deliberately not applied and must produce failures.  `divisibility` alone
picks a divisibility check's tier: the exact symbolic quotient up to
SYMBOLIC_N_LIMIT, fuzzing above it.  check_griolv_k2 and check_cauchy_binet,
which tests the compound identity C_k(AB) = C_k(A) C_k(B), run here too.

Every random draw of the package is made here, from one child RNG per trial
derived from (seed, trial index) through a splitmix64 mix, so trial t of a
run is reproducible in isolation and independent of the trials before it.
An entry takes the `getrandbits` calls `randint` makes, without its layers.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, replace
from itertools import combinations, product

from .exactmat import MatrixExpr, det_bareiss, divides_det, matmul
from .identities import (
    MAX_N_SYLVESTER,
    SYMBOLIC_N_LIMIT,
    THEOREM_CONSTRAINTS,
    GenericSpec,
    VerificationReport,
    _ms,
    build_generic,
    compound,
    compound_minor_products,
    forced_divisor,
    forced_entries,
    power_identity,
    quotient,
)
from .polyring import _omit_none

DIVISIBILITY_THEOREMS = tuple(THEOREM_CONSTRAINTS)
THEOREMS = DIVISIBILITY_THEOREMS + ("sylv",)

MAX_N_DIVISIBILITY = 8

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def trial_seed(seed: int, trial: int) -> int:
    return _splitmix64((_splitmix64(seed & _M64) + trial) & _M64)


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(trial_seed(seed, trial))


def rand_int_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> MatrixExpr:
    """Uniform entries in [-bound, bound], drawn row-major as rng.randint(-bound, bound) draws them."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    width = 2 * bound + 1
    bits, draw = width.bit_length(), rng.getrandbits
    ent = []
    for _ in range(rows * cols):
        r = draw(bits)
        while r >= width:
            r = draw(bits)
        ent.append(r - bound)
    return MatrixExpr(rows, cols, ent)


@dataclass(frozen=True)
class FuzzPlan:
    """One reproducible fuzzing run: theorem, size, trial count, seed, bound."""

    theorem: str
    n: int
    k: int
    trials: int
    seed: int
    bound: int

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem: {self.theorem!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.theorem in DIVISIBILITY_THEOREMS and self.n > MAX_N_DIVISIBILITY:
            raise ValueError(f"divisibility fuzzing is bounded at n <= {MAX_N_DIVISIBILITY}")
        if self.theorem == "sylv" and self.n > MAX_N_SYLVESTER:
            raise ValueError(f"power-identity fuzzing is bounded at n <= {MAX_N_SYLVESTER}")
        if self.theorem == "sylv" and self.n < 1:
            raise ValueError(f"need 1 <= n and 0 <= k <= n, got n={self.n} k={self.k}")
        if not (0 <= self.k <= self.n):
            raise ValueError("need 0 <= k <= n")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.bound < 1:
            raise ValueError("bound must be positive")


@dataclass
class FuzzReport:
    """Counts plus the first failing instance, if any."""

    plan: FuzzPlan
    passes: int
    failures: int
    passed: bool
    first_failure: dict | None = None
    note: str | None = None

    def to_json_dict(self) -> dict:
        return _omit_none(
            {
                **asdict(self.plan),
                "passes": self.passes,
                "failures": self.failures,
                "first_failure": self.first_failure,
                "evidence": "pointwise",
                "note": self.note,
            }
        )

    def summary(self) -> str:
        p = self.plan
        note = f" note={self.note}" if self.note else ""
        return (
            f"{p.theorem} n={p.n} k={p.k}: {'PASS' if self.passed else 'FAIL'} "
            f"({self.passes} passes, {self.failures} failures{note})"
        )


def random_instance(plan: FuzzPlan, trial: int, apply_constraints: bool = True):
    """The (A, B) integer pair for one trial; deterministic in (plan, trial).

    Entries are uniform in [-bound, bound], A drawn row-major then B; the
    theorem's THEOREM_CONSTRAINTS overwrite entries afterwards, so the
    unconstrained draw (apply_constraints=False) shares the same randomness.
    """
    rng = trial_rng(plan.seed, trial)
    size = plan.n + 1
    a = rand_int_matrix(rng, size, size, plan.bound)
    b = rand_int_matrix(rng, size, size, plan.bound)
    if apply_constraints:
        constraints = THEOREM_CONSTRAINTS.get(plan.theorem, frozenset())  # sylv has none
        for letter, m in (("a", a), ("b", b)):
            for (i, j), value in forced_entries(letter, plan.n, constraints).items():
                m.entries[(i - 1) * size + j - 1] = value
    return a, b


def _tally(plan: FuzzPlan, failure_at) -> FuzzReport:
    """Run every trial of the plan.

    failure_at(t) is None on a pass, else a function that builds the
    failure's witness; only the first failure's is built.
    """
    passes = 0
    first = None
    for t in range(plan.trials):
        failure = failure_at(t)
        if failure is None:
            passes += 1
        elif first is None:
            first = failure()
    failures = plan.trials - passes
    return FuzzReport(plan=plan, passes=passes, failures=failures, passed=not failures, first_failure=first)


def _run_divisibility(plan: FuzzPlan, apply_constraints: bool) -> FuzzReport:
    if plan.theorem not in DIVISIBILITY_THEOREMS:
        raise ValueError(f"divisibility fuzzing cannot run theorem {plan.theorem!r}")

    def failure_at(t: int):
        a, b = random_instance(plan, t, apply_constraints)
        w = compound_minor_products(a, b, plan.k).matrix
        d = forced_divisor(plan.theorem, a, b)
        if divides_det(d, w):
            return None
        return lambda: {
            "trial": t,
            "a": a.row_list(),
            "b": b.row_list(),
            "det_w": det_bareiss(w),
            "divisor": d,
        }

    return _tally(plan, failure_at)


def fuzz_divisibility(plan: FuzzPlan) -> FuzzReport:
    """Divisibility of the compound determinant at random integer points."""
    return _run_divisibility(plan, apply_constraints=True)


def negative_control(plan: FuzzPlan) -> FuzzReport:
    """Same pipeline without the constraints; failures are the expected outcome.

    k = n and n = 0 are vacuous (the single compound entry is det A * det B,
    so divisibility holds regardless); otherwise a run with zero failures
    escalates the bound tenfold once, and a still-clean run is an anomaly.
    """
    report = _run_divisibility(plan, apply_constraints=False)
    if plan.n == 0 or plan.k == plan.n:
        report.note = "vacuous"
    elif report.failures == 0:
        report = _run_divisibility(replace(plan, bound=plan.bound * 10), apply_constraints=False)
        report.note = "escalated" if report.failures else "anomaly"
    report.passed = report.failures >= 1 or report.note == "vacuous"
    return report


def fuzz_sylvester(plan: FuzzPlan) -> FuzzReport:
    """Power identity for the single-matrix compound at random integer points."""
    if plan.theorem != "sylv":
        raise ValueError("fuzz_sylvester needs theorem 'sylv'")

    def failure_at(t: int):
        a, _ = random_instance(plan, t)
        lhs, rhs = power_identity(a, plan.k)
        if lhs == rhs:
            return None
        return lambda: {"trial": t, "a": a.row_list(), "lhs": lhs, "rhs": rhs}

    return _tally(plan, failure_at)


def divisibility(theorem: str, n: int, k: int, trials: int, seed: int, bound: int):
    """The forced divisor divides det W: quotient() up to SYMBOLIC_N_LIMIT, fuzz_divisibility above.

    The plan is built first, so a request it refuses is refused on both tiers before any work.
    """
    plan = FuzzPlan(theorem, n, k, trials, seed, bound)
    return quotient(theorem, n, k) if n <= SYMBOLIC_N_LIMIT else fuzz_divisibility(plan)


def check_griolv_k2(n: int, trials: int = 100, seed: int = 0, bound: int = 100) -> VerificationReport:
    """Borders-one, corner-zero case at k = 2: closed-form entries plus divisibility.

    Every entry of the minor-product compound must equal
    (a_jk + a_il - a_ik - a_jl) * (b_jk + b_il - b_ik - b_jl) for row pair
    {i < j} and column pair {k < l}.  Divisibility of the compound
    determinant by det A * det B is checked by `divisibility`, symbolically
    or pointwise; an entry failure is the witness ahead of it.
    """
    t0 = time.perf_counter()
    if n < 2:
        raise ValueError("check_griolv_k2 needs n >= 2")
    divisible = divisibility("griolv", n, 2, trials, seed, bound)
    a, b, _ = build_generic(GenericSpec(n, THEOREM_CONSTRAINTS["griolv"]))
    compound = compound_minor_products(a, b, 2)
    witness = None
    pairs = product(compound.family, repeat=2)  # row-major, like the entries
    for ((i, j), (kk, ll)), entry in zip(pairs, compound.matrix.entries):
        cross = [m.entry(j, kk) + m.entry(i, ll) - m.entry(i, kk) - m.entry(j, ll) for m in (a, b)]
        if entry != cross[0] * cross[1]:
            witness = {"row_set": [i, j], "col_set": [kk, ll], "problem": "entry"}
            break
    if witness is None and not divisible.passed:
        witness = {"problem": "divisibility", "evidence": "symbolic"}
        if isinstance(divisible, FuzzReport):
            witness.update(evidence="pointwise", trial=divisible.first_failure["trial"])
    return VerificationReport(
        check="griolv", n=n, k=2, passed=witness is None, witness=witness, elapsed_ms=_ms(t0)
    )


def check_cauchy_binet(
    dims: tuple[int, int, int],
    k: int,
    trials: int = 100,
    seed: int = 0,
    bound: int = 100,
) -> VerificationReport:
    """The compound identity C_k(AB) = C_k(A) C_k(B) on random integer matrices.

    dims = (n, p, m): A is n x p, B is p x m, and every matrix is padded with
    zeros to max(dims) square, which adds only zero minors.  Entry (P, Q) of
    C_k(A) C_k(B) is the sum over k-subsets R of det(sub_P^R A) * det(sub_R^Q B);
    for k > p, C_k(A) has only zero columns and every k-minor of AB must vanish.
    """
    t0 = time.perf_counter()
    n, p, m = dims
    if min(dims) < 0 or max(dims) > 6:
        raise ValueError("dimensions must lie in [0, 6]")
    if k < 0 or k > min(n, m):
        raise ValueError("need 0 <= k <= min(n, m)")
    if trials < 1:
        raise ValueError("trials must be positive")
    if bound < 1:
        raise ValueError("bound must be positive")
    size = max(dims)
    pairs = tuple(product(combinations(range(1, size + 1), k), repeat=2))

    def failure_at(t: int) -> dict | None:
        rng = trial_rng(seed, t)
        a = rand_int_matrix(rng, n, p, bound)
        b = rand_int_matrix(rng, p, m, bound)
        left = compound(matmul(a, b), k, size).entries
        right = matmul(compound(a, k, size), compound(b, k, size)).entries
        for (row_set, col_set), lhs, rhs in zip(pairs, left, right):
            if lhs != rhs:
                return {
                    "trial": t,
                    "a": a.row_list(),
                    "b": b.row_list(),
                    "row_set": list(row_set),
                    "col_set": list(col_set),
                    "lhs": lhs,
                    "rhs": rhs,
                }
        return None

    witness = next(filter(None, map(failure_at, range(trials))), None)
    return VerificationReport(
        check="cauchy-binet", n=n, k=k, passed=witness is None, witness=witness, elapsed_ms=_ms(t0)
    )
