"""Seeded case lists for the minordet benchmark, each case with its known answer.

A case is one public minordet call that returns a verdict.  Every case
carries a check that compares the verdict with the answer known for it and
returns None when they agree, or a one-line description of the mismatch.
Checks run outside the timed span.

The four workloads pair up so that each layer does most of the work in one
workload and almost none in another (see perfbench/PREDICTIONS.md):

  fuzz-small  many short pointwise plans at n = 4..6: compound builder,
              submatrix and minor-sized Bareiss;
  fuzz-wide   single-trial plans at n = 7..8: Bareiss on huge compounds;
  sym-expand  symbolic power identities: polyring expansion;
  sym-divide  exact quotient certificates: polyring expansion and division.

Case lists are built against a minordet module object passed in, and every
call looks its function up on that module when it runs, so a tracer that
rebinds the module's functions sees the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

FUZZ_BOUND = 50

# One fuzz-small round: (theorem, n, k, bound, negative control).  Middle k
# at every size; the b0 n = 3, k = 2 negative controls must fail.  The
# per-size counts put the median verdict inside the n = 5 plans and the
# 90th percentile inside the n = 6 plans, away from a jump between sizes.
FUZZ_SMALL_ROUND = (
    ("b0", 3, 2, FUZZ_BOUND, True),
    ("b0", 4, 2, 1, False),
    ("adb0", 4, 2, 1, False),
    ("b0", 4, 2, FUZZ_BOUND, False),
    ("ab0", 4, 2, FUZZ_BOUND, False),
    ("adb0", 4, 2, FUZZ_BOUND, False),
    ("b0", 5, 2, FUZZ_BOUND, False),
    ("ab0", 5, 2, FUZZ_BOUND, False),
    ("adb0", 5, 2, FUZZ_BOUND, False),
    ("b0", 5, 2, FUZZ_BOUND, False),
    ("ab0", 5, 2, FUZZ_BOUND, False),
    ("adb0", 5, 2, FUZZ_BOUND, False),
    ("b0", 6, 3, FUZZ_BOUND, False),
    ("ab0", 6, 3, FUZZ_BOUND, False),
    ("adb0", 6, 3, FUZZ_BOUND, False),
    ("b0", 6, 3, FUZZ_BOUND, False),
)
FUZZ_SMALL_ROUNDS = 8
FUZZ_SMALL_TRIALS = 3

# fuzz-wide: (theorem, n, k), one trial each.  A short list, so that each
# case is repeated often in a run: four n = 7 plans, two n = 8, k = 3 plans
# and the n = 8, k = 4 ab0 plan (a 70 x 70 compound), which is the slowest
# case and the 90th percentile.
FUZZ_WIDE_PLANS = (
    ("b0", 7, 3),
    ("ab0", 7, 3),
    ("adb0", 7, 3),
    ("ab0", 7, 4),
    ("b0", 8, 3),
    ("adb0", 8, 3),
    ("ab0", 8, 4),
)

# Symbolic sizes of quotient(mode, n, k) for every n <= 3, as
# (det W terms, det W degree, quotient terms, quotient degree); a zero
# polynomial has no degree.  The n = 3, k = 2 rows are the sizes the
# package documents; the others were recorded from the package itself.
QUOTIENT_SIZES = {
    ("b0", 0, 0): (0, None, 0, None),
    ("b0", 1, 0): (0, None, 0, None),
    ("b0", 1, 1): (2, 4, 1, 2),
    ("b0", 2, 0): (0, None, 0, None),
    ("b0", 2, 1): (6, 8, 1, 5),
    ("b0", 2, 2): (24, 6, 4, 3),
    ("b0", 3, 0): (0, None, 0, None),
    ("b0", 3, 1): (24, 12, 1, 8),
    ("b0", 3, 2): (31410, 18, 2070, 14),
    ("b0", 3, 3): (432, 8, 18, 4),
    ("ab0", 0, 0): (0, None, 0, None),
    ("ab0", 1, 0): (0, None, 0, None),
    ("ab0", 1, 1): (1, 4, 1, 0),
    ("ab0", 2, 0): (0, None, 0, None),
    ("ab0", 2, 1): (0, None, 0, None),
    ("ab0", 2, 2): (16, 6, 1, 0),
    ("ab0", 3, 0): (0, None, 0, None),
    ("ab0", 3, 1): (0, None, 0, None),
    ("ab0", 3, 2): (7866, 18, 36, 10),
    ("ab0", 3, 3): (324, 8, 1, 0),
}

# The unconstrained n = 3, k = 2 compound determinant: monomials and variables.
UNCONSTRAINED_MONOMIALS = 110268
UNCONSTRAINED_VARIABLES = 32

# Half-specialized b0 at n = 4: A generic, B drawn from the seed.  A wide
# entry range makes an accidental zero minor of B (which shrinks det W) rare,
# so the work per case barely depends on the seed.
HALF_N = 4
HALF_KS = (2, 3)
HALF_B_BOUND = 1000


@dataclass
class Case:
    """One public call, its known answer, and the fuzz plan it runs, if any."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    plan: object = None
    negative: bool = False


def _all_trials_pass(report) -> str | None:
    if report.failures or report.passes != report.plan.trials:
        return f"{report.failures} of {report.plan.trials} trials failed"
    return None


def _control_fails(report) -> str | None:
    if report.failures == 0 or report.note == "anomaly":
        return f"negative control found no failure (note {report.note!r})"
    return None


def _passed(report) -> str | None:
    return None if report.passed else f"{report.check} reported failure: {report.witness}"


def fuzz_case(md, theorem: str, n: int, k: int, trials: int, seed: int, bound: int, negative: bool = False) -> Case:
    plan = md.FuzzPlan(theorem, n, k, trials, seed, bound)
    label = f"{'negative ' if negative else ''}{theorem} n={n} k={k} bound={bound} seed={seed}"
    if negative:
        return Case(label, lambda: md.negative_control(plan), _control_fails, plan, True)
    return Case(label, lambda: md.fuzz_divisibility(plan), _all_trials_pass, plan)


def quotient_check(expected: tuple) -> Callable[[object], "str | None"]:
    """Check a QuotientReport against (det W terms, degree, quotient terms, degree)."""

    def check(report) -> str | None:
        if not report.divisible or report.quotient_stats is None:
            return "quotient reported not divisible"
        w, q = report.detw_stats, report.quotient_stats
        got = (w.monomials, w.degree, q.monomials, q.degree)
        return None if got == expected else f"sizes {got}, expected {expected}"

    return check


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(32)


def fuzz_small(md, seed: int) -> list[Case]:
    seeds = _seeds("fuzz-small", seed)
    return [
        fuzz_case(md, theorem, n, k, FUZZ_SMALL_TRIALS, next(seeds), bound, negative)
        for _ in range(FUZZ_SMALL_ROUNDS)
        for theorem, n, k, bound, negative in FUZZ_SMALL_ROUND
    ]


def fuzz_wide(md, seed: int) -> list[Case]:
    seeds = _seeds("fuzz-wide", seed)
    return [fuzz_case(md, theorem, n, k, 1, next(seeds), FUZZ_BOUND) for theorem, n, k in FUZZ_WIDE_PLANS]


def sym_expand(md, seed: int) -> list[Case]:
    """Symbolic proofs that divide little; they have no randomness, so the seed is unused."""
    del seed
    cases = [Case(f"sylvester n=4 k={k}", lambda k=k: md.check_sylvester(4, k), _passed) for k in range(5)]
    cases += [Case(f"chio n={n}", lambda n=n: md.check_chio(n), _passed) for n in range(1, 8)]
    sizes = quotient_check(QUOTIENT_SIZES[("b0", 3, 2)])
    universe = md.build_generic(md.GenericSpec(3, frozenset()))[2]

    def unconstrained(report) -> str | None:
        if report.unconstrained_detw_monomials != UNCONSTRAINED_MONOMIALS:
            return f"{report.unconstrained_detw_monomials} unconstrained monomials, expected {UNCONSTRAINED_MONOMIALS}"
        if universe.nvars != UNCONSTRAINED_VARIABLES:
            return f"{universe.nvars} variables, expected {UNCONSTRAINED_VARIABLES}"
        return sizes(report)

    cases.append(
        Case(
            "quotient b0 n=3 k=2 unconstrained count",
            lambda: md.quotient("b0", 3, 2, unconstrained_count=True),
            unconstrained,
        )
    )
    cases += [Case(f"lemma-adb0 n=3 k={k}", lambda k=k: md.check_lemma_adb0(3, k), _passed) for k in range(4)]
    cases.append(Case("griolv n=3 k=2", lambda: md.check_griolv_k2(3), _passed))
    return cases


def half_specialized_case(md, k: int, seed: int) -> Case:
    """b0 at n = 4 with generic A and integer B: det A must divide det W exactly.

    The first verdict is checked by multiplying back (divisor * q == det W);
    later runs of the same case must return that same quotient.
    """
    a, _, universe = md.build_generic(md.GenericSpec(HALF_N, frozenset({"b_corner_zero"})))
    rng = random.Random(f"sym-divide:{seed}:{k}")
    size = HALF_N + 1
    b = md.MatrixExpr.from_rows(
        [
            [md.Polynomial.constant(universe, 0 if i == j == HALF_N else rng.randint(-HALF_B_BOUND, HALF_B_BOUND))
             for j in range(size)]
            for i in range(size)
        ],
        universe,
    )

    def run():
        det_w = md.det_laplace(md.compound_minor_products(a, b, k).matrix)
        det_a = md.det_laplace(a)
        return det_w, det_a, md.exact_div(det_w, det_a)

    verified: dict = {}

    def check(result) -> str | None:
        det_w, det_a, q = result
        if q is None:
            return "det A does not divide det W"
        if "q" not in verified:
            if det_a * q != det_w:
                return "divisor * quotient differs from det W"
            verified["q"] = q.terms
            verified["w"] = len(det_w.terms)
            return None
        if q.terms != verified["q"] or len(det_w.terms) != verified["w"]:
            return "quotient differs from the first verified run"
        return None

    return Case(f"half-specialized b0 n={HALF_N} k={k}", run, check)


def sym_divide(md, seed: int) -> list[Case]:
    cases = [
        Case(
            f"quotient {mode} n={n} k={k}",
            lambda mode=mode, n=n, k=k: md.quotient(mode, n, k),
            quotient_check(expected),
        )
        for (mode, n, k), expected in QUOTIENT_SIZES.items()
    ]
    cases += [half_specialized_case(md, k, seed) for k in HALF_KS]
    return cases


WORKLOADS = {
    "fuzz-small": fuzz_small,
    "fuzz-wide": fuzz_wide,
    "sym-expand": sym_expand,
    "sym-divide": sym_divide,
}


def degenerate_trials(md, cases: list[Case]) -> tuple[int, int]:
    """(trials, trials whose divisor is 0) over the constrained fuzz plans.

    A degenerate trial only tests det W == 0, so it is weak evidence.  This
    repeats the oracle's instance draw through the public random_instance and
    det_bareiss, outside any timed span.
    """
    trials = degenerate = 0
    for case in cases:
        plan = case.plan
        if plan is None or case.negative:
            continue
        for t in range(plan.trials):
            a, b = md.random_instance(plan, t)
            divisor = md.det_bareiss(a)
            if plan.theorem == "ab0":
                divisor *= md.det_bareiss(b)
            trials += 1
            degenerate += divisor == 0
    return trials, degenerate
