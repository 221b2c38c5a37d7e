"""The acceptance suite: one function per criterion, shared by tests and CLI.

Each criterion function returns a CriterionResult with a pass flag and a
short human-readable detail string.  Criteria are exact (no tolerances);
the stated runtimes are expectations, not assertions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .exactmat import brute_force_det, det_bareiss, det_laplace, evaluate_matrix
from .identities import (
    GenericSpec,
    build_generic,
    check_cauchy_binet,
    check_chio,
    check_sylvester,
    compound_minor_products,
    generic_matrix,
    quotient,
)
from .oracle import FuzzPlan, check_griolv_k2, fuzz_divisibility, negative_control
from .polyring import Polynomial, VariableUniverse
from .rng import rand_int_matrix, trial_rng


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_ms: float

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "detail": self.detail,
            "elapsed_ms": self.elapsed_ms,
        }


def _result(number, name, t0, passed, detail) -> CriterionResult:
    ms = round((time.perf_counter() - t0) * 1000.0, 1)
    return CriterionResult(number, name, passed, detail, ms)


def criterion_1() -> CriterionResult:
    """Generic compound determinant at n=3, k=2: 110268 monomials in 32 variables."""
    t0 = time.perf_counter()
    a, b, universe = build_generic(GenericSpec(3))
    det_w = det_laplace(compound_minor_products(a, b, 2).matrix)
    count = len(det_w.terms)
    ok = count == 110268 and universe.nvars == 32
    return _result(1, "generic monomial count", t0, ok,
                   f"monomials={count} vars={universe.nvars}")


def criterion_2() -> CriterionResult:
    """Power identity exact for every 1 <= n <= 4, 0 <= k <= n."""
    t0 = time.perf_counter()
    bad = [
        (n, k)
        for n in range(1, 5)
        for k in range(0, n + 1)
        if not check_sylvester(n, k).passed
    ]
    return _result(2, "power identity sweep", t0, not bad,
                   "all 14 cases exact" if not bad else f"failed at {bad}")


def _quotient_sweep(mode: str):
    failures = []
    reports = {}
    for n in range(0, 4):
        for k in range(0, n + 1):
            rep = quotient(mode, n, k)
            reports[(n, k)] = rep
            if not rep.divisible:
                failures.append((n, k))
    return failures, reports


def criterion_3() -> CriterionResult:
    """Single-corner mode divides exactly for every 0 <= n <= 3, 0 <= k <= n."""
    t0 = time.perf_counter()
    failures, _ = _quotient_sweep("b0")
    return _result(3, "b0 quotient sweep", t0, not failures,
                   "all 10 cases divisible" if not failures else f"failed at {failures}")


def criterion_4() -> CriterionResult:
    """Both-corners mode divides, with the stated degrees at n=3, k=2."""
    t0 = time.perf_counter()
    failures, reports = _quotient_sweep("ab0")
    rep = reports[(3, 2)]
    deg_ok = rep.quotient_stats.degree == 10 and rep.detw_stats.degree == 18
    ok = not failures and deg_ok
    return _result(4, "ab0 quotient sweep", t0, ok,
                   f"quotient degree={rep.quotient_stats.degree} detW degree={rep.detw_stats.degree}")


def criterion_5() -> CriterionResult:
    """Divisibility fuzzing at n in {4,5,6}, all middle k: zero failures."""
    t0 = time.perf_counter()
    total_failures = 0
    runs = 0
    for theorem in ("b0", "ab0"):
        for n in (4, 5, 6):
            for k in range(1, n):
                rep = fuzz_divisibility(FuzzPlan(theorem, n, k, trials=100, seed=42, bound=50))
                total_failures += rep.failures
                runs += 1
    return _result(5, "divisibility fuzzing", t0, total_failures == 0,
                   f"{runs} runs x 100 trials, {total_failures} failures")


def criterion_6() -> CriterionResult:
    """Negative control at n=3, k=2 must produce at least one failure."""
    t0 = time.perf_counter()
    rep = negative_control(FuzzPlan("b0", 3, 2, trials=100, seed=7, bound=100))
    ok = rep.passed
    return _result(6, "negative control", t0, ok,
                   f"failures={rep.failures}/100 note={rep.note}")


def criterion_7() -> CriterionResult:
    """Pivotal condensation identity for n in {1,2,3,4}."""
    t0 = time.perf_counter()
    bad = [n for n in (1, 2, 3, 4) if not check_chio(n).passed]
    return _result(7, "condensation identity", t0, not bad,
                   "all 4 sizes exact" if not bad else f"failed at n={bad}")


def criterion_8() -> CriterionResult:
    """Minor-of-product expansion on 100+ random instances, all valid k, k>p included."""
    t0 = time.perf_counter()
    configs = [
        (3, 4, 3), (4, 3, 4), (5, 5, 5), (2, 4, 3), (3, 2, 3), (4, 4, 2), (5, 2, 4),
    ]
    trials_each = 15  # 7 configs x 15 = 105 instances
    bad = []
    empty_sum_hit = False
    for dims in configs:
        n, p, m = dims
        for k in range(0, min(n, m) + 1):
            if k > p:
                empty_sum_hit = True
            rep = check_cauchy_binet(dims, k, trials=trials_each, seed=11, bound=100)
            if not rep.passed:
                bad.append((dims, k))
    ok = not bad and empty_sum_hit
    return _result(8, "minor-of-product expansion", t0, ok,
                   f"{len(configs) * trials_each} instances, empty-sum cases hit={empty_sum_hit}"
                   if not bad else f"failed at {bad}")


def criterion_9() -> CriterionResult:
    """Borders-one corner-zero k=2 case at n in {2,3}: entries and divisibility."""
    t0 = time.perf_counter()
    bad = [n for n in (2, 3) if not check_griolv_k2(n).passed]
    return _result(9, "borders-one k=2 case", t0, not bad,
                   "entries match closed form, quotient exact" if not bad else f"failed at n={bad}")


def criterion_10() -> CriterionResult:
    """Three determinant algorithms agree; specialization commutes with det."""
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for t in range(200):
        rng = trial_rng(321, t)
        size = rng.randint(2, 6)
        m = rand_int_matrix(rng, size, size, 99)
        d1, d2, d3 = det_laplace(m), det_bareiss(m), brute_force_det(m)
        checked += 1
        if not (d1 == d2 == d3):
            mismatches += 1
    universe = VariableUniverse(f"x_{i}_{j}" for i in range(1, 5) for j in range(1, 5))
    sym = generic_matrix(universe, "x", 4, {})
    det_sym = det_laplace(sym)
    for t in range(50):
        rng = trial_rng(654, t)
        assignment = {name: rng.randint(-99, 99) for name in universe.names}
        checked += 1
        if det_sym.evaluate(assignment) != det_bareiss(evaluate_matrix(sym, assignment)):
            mismatches += 1
    return _result(10, "determinant oracle agreement", t0, mismatches == 0,
                   f"{checked} comparisons, {mismatches} mismatches")


def criterion_11() -> CriterionResult:
    """Content: gcd over coefficients; generic determinants are primitive."""
    t0 = time.perf_counter()
    u = VariableUniverse(["x", "y"])
    p = 4 * Polynomial.variable(u, "x") ** 2 + 6 * Polynomial.variable(u, "y") ** 2
    ok = p.content() == 2
    details = [f"content(4x^2+6y^2)={p.content()}"]
    for size in (2, 3, 4):
        universe = VariableUniverse(
            f"x_{i}_{j}" for i in range(1, size + 1) for j in range(1, size + 1)
        )
        c = det_laplace(generic_matrix(universe, "x", size, {})).content()
        ok = ok and c == 1
        details.append(f"content(det {size}x{size})={c}")
    return _result(11, "content computations", t0, ok, " ".join(details))


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_all(log=None) -> list[CriterionResult]:
    """Run every criterion to completion; never stops at the first failure."""
    results = []
    for fn in ALL_CRITERIA:
        if log:
            log(f"running {fn.__name__}")
        results.append(fn())
    return results
