"""The acceptance suite: one function per criterion, shared by tests and CLI.

Each criterion is declared once, by `_criterion(number, name)`: its body
returns (passed, detail), and the declaration times it, wraps the outcome in
a CriterionResult and lists it in ALL_CRITERIA, the order `run_all` and
`minordet selftest` follow.  Criteria are exact (no tolerances); the stated
runtimes are expectations, not assertions.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .exactmat import brute_force_det, det_bareiss, det_laplace, evaluate_matrix
from .identities import (
    GenericSpec,
    _ms,
    _single_generic,
    build_generic,
    check_chio,
    check_sylvester,
    compound_minor_products,
    quotient,
)
from .oracle import (
    FuzzPlan,
    check_cauchy_binet,
    check_griolv_k2,
    fuzz_divisibility,
    negative_control,
    rand_int_matrix,
    trial_rng,
)
from .polyring import Polynomial, VariableUniverse


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

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {self.name:<32} {status}  {self.detail}"


ALL_CRITERIA = []


def _criterion(number: int, name: str):
    """Declare criterion `number`: time the body's (passed, detail) and list it in ALL_CRITERIA."""

    def declare(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body()
            return CriterionResult(number, name, passed, detail, _ms(t0))

        ALL_CRITERIA.append(criterion)
        return criterion

    return declare


@_criterion(1, "generic monomial count")
def criterion_1():
    """Generic compound determinant at n=3, k=2: 110268 monomials in 32 variables."""
    a, b, universe = build_generic(GenericSpec(3))
    det_w = det_laplace(compound_minor_products(a, b, 2).matrix)
    count = len(det_w)
    return count == 110268 and universe.nvars == 32, f"monomials={count} vars={universe.nvars}"


@_criterion(2, "power identity sweep")
def criterion_2():
    """Power identity exact for every 1 <= n <= 4, 0 <= k <= n."""
    bad = [
        (n, k)
        for n in range(1, 5)
        for k in range(0, n + 1)
        if not check_sylvester(n, k).passed
    ]
    return not bad, "all 14 cases exact" if not bad else f"failed at {bad}"


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


@_criterion(3, "b0 quotient sweep")
def criterion_3():
    """Single-corner mode divides exactly for every 0 <= n <= 3, 0 <= k <= n."""
    failures, _ = _quotient_sweep("b0")
    return not failures, "all 10 cases divisible" if not failures else f"failed at {failures}"


@_criterion(4, "ab0 quotient sweep")
def criterion_4():
    """Both-corners mode divides, with the stated degrees at n=3, k=2."""
    failures, reports = _quotient_sweep("ab0")
    rep = reports[(3, 2)]
    deg_ok = rep.quotient_stats.degree == 10 and rep.detw_stats.degree == 18
    detail = f"quotient degree={rep.quotient_stats.degree} detW degree={rep.detw_stats.degree}"
    return not failures and deg_ok, detail


@_criterion(5, "divisibility fuzzing")
def criterion_5():
    """Divisibility fuzzing at n in {4,5,6}, all middle k: zero failures."""
    total_failures = 0
    runs = 0
    for theorem in ("b0", "ab0"):
        for n in (4, 5, 6):
            for k in range(1, n):
                rep = fuzz_divisibility(FuzzPlan(theorem, n, k, trials=100, seed=42, bound=50))
                total_failures += rep.failures
                runs += 1
    return total_failures == 0, f"{runs} runs x 100 trials, {total_failures} failures"


@_criterion(6, "negative control")
def criterion_6():
    """Negative control at n=3, k=2 must produce at least one failure."""
    rep = negative_control(FuzzPlan("b0", 3, 2, trials=100, seed=7, bound=100))
    return rep.passed, f"failures={rep.failures}/100 note={rep.note}"


@_criterion(7, "condensation identity")
def criterion_7():
    """Pivotal condensation identity for n in {1,2,3,4}."""
    bad = [n for n in (1, 2, 3, 4) if not check_chio(n).passed]
    return not bad, "all 4 sizes exact" if not bad else f"failed at n={bad}"


@_criterion(8, "minor-of-product expansion")
def criterion_8():
    """Minor-of-product expansion on 100+ random instances, all valid k, k>p included."""
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
    detail = f"{len(configs) * trials_each} instances, empty-sum cases hit={empty_sum_hit}"
    return not bad and empty_sum_hit, detail if not bad else f"failed at {bad}"


@_criterion(9, "borders-one k=2 case")
def criterion_9():
    """Borders-one corner-zero k=2 case at n in {2,3}: entries and divisibility."""
    bad = [n for n in (2, 3) if not check_griolv_k2(n).passed]
    return not bad, "entries match closed form, quotient exact" if not bad else f"failed at n={bad}"


@_criterion(10, "determinant oracle agreement")
def criterion_10():
    """Three determinant algorithms agree; specialization commutes with det."""
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
    sym, universe = _single_generic(3)
    det_sym = det_laplace(sym)
    for t in range(50):
        rng = trial_rng(654, t)
        assignment = {name: rng.randint(-99, 99) for name in universe.names}
        checked += 1
        if det_sym.evaluate(assignment) != det_bareiss(evaluate_matrix(sym, assignment)):
            mismatches += 1
    return mismatches == 0, f"{checked} comparisons, {mismatches} mismatches"


@_criterion(11, "content computations")
def criterion_11():
    """Content: gcd over coefficients; generic determinants are primitive."""
    u = VariableUniverse(["x", "y"])
    p = 4 * Polynomial.variable(u, "x") ** 2 + 6 * Polynomial.variable(u, "y") ** 2
    ok = p.content() == 2
    details = [f"content(4x^2+6y^2)={p.content()}"]
    for size in (2, 3, 4):
        c = det_laplace(_single_generic(size - 1)[0]).content()
        ok = ok and c == 1
        details.append(f"content(det {size}x{size})={c}")
    return ok, " ".join(details)


def run_all() -> list[CriterionResult]:
    """Run every criterion to completion; never stops at the first failure."""
    return [criterion() for criterion in ALL_CRITERIA]
