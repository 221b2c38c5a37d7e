"""Command-line front end: verify, quotient, fuzz, selftest.

verify runs one row of the VERIFY table per requested k; its b0 and ab0
rows take their tier, symbolic or pointwise, from `oracle.divisibility`.

Exit codes: 0 when every requested check passes, 1 on a mathematical-check
failure, 2 on a usage error or a request that ran out of memory.  --json
prints one JSON document on stdout (an object for one report or for
selftest, an array otherwise) whose bytes are identical across runs for
fixed inputs, except the elapsed_ms fields.
--verbose writes one line per report to stderr and never touches stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .identities import check_chio, check_lemma_adb0, check_sylvester, quotient
from .oracle import (
    FuzzPlan,
    check_cauchy_binet,
    check_griolv_k2,
    divisibility,
    fuzz_divisibility,
    negative_control,
)

# check -> (its fixed k, or None to take --k or sweep 0..n; the report for parsed args a at one k)
VERIFY = {
    "sylvester": (None, lambda a, k: check_sylvester(a.n, k)),
    "chio": (1, lambda a, k: check_chio(a.n)),
    "cauchy-binet": (None, lambda a, k: check_cauchy_binet((a.n,) * 3, k, a.trials, a.seed, a.bound)),
    "griolv": (2, lambda a, k: check_griolv_k2(a.n, a.trials, a.seed, a.bound)),
    "lemma-adb0": (None, lambda a, k: check_lemma_adb0(a.n, k)),
    "b0": (None, lambda a, k: divisibility("b0", a.n, k, a.trials, a.seed, a.bound)),
    "ab0": (None, lambda a, k: divisibility("ab0", a.n, k, a.trials, a.seed, a.bound)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minordet",
        description="exact checks of determinant identities on compounds of bordered minors",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="run one identity check, symbolically where feasible")
    p_verify.add_argument("--check", required=True, choices=tuple(VERIFY))
    p_verify.add_argument("--n", required=True, type=int)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--bound", type=int, default=100)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--verbose", action="store_true")

    p_quotient = sub.add_parser("quotient", help="divide the compound determinant by its forced factor")
    p_quotient.add_argument("--mode", required=True, choices=("b0", "ab0"))
    p_quotient.add_argument("--n", required=True, type=int)
    p_quotient.add_argument("--k", required=True, type=int)
    p_quotient.add_argument("--unconstrained-count", action="store_true")
    p_quotient.add_argument("--json", action="store_true")

    p_fuzz = sub.add_parser("fuzz", help="randomized integer checks")
    p_fuzz.add_argument("--theorem", required=True, choices=("b0", "ab0", "adb0"))
    p_fuzz.add_argument("--n", required=True, type=int)
    p_fuzz.add_argument("--k", required=True, type=int)
    p_fuzz.add_argument("--trials", required=True, type=int)
    p_fuzz.add_argument("--seed", required=True, type=int)
    p_fuzz.add_argument("--bound", required=True, type=int)
    p_fuzz.add_argument("--negative-control", action="store_true")
    p_fuzz.add_argument("--json", action="store_true")

    p_self = sub.add_parser("selftest", help="run the full acceptance suite")
    p_self.add_argument("--json", action="store_true")

    return parser


def _run_verify(args) -> list:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.trials < 1:
        raise ValueError("trials must be positive")
    if args.bound < 1:
        raise ValueError("bound must be positive")
    fixed_k, report = VERIFY[args.check]
    if fixed_k is not None and args.k is not None:
        raise ValueError(f"{args.check} does not take --k (it is the k={fixed_k} case)")
    one_k = args.k if fixed_k is None else fixed_k  # the called check bounds an explicit --k
    reports = []
    for k in range(args.n + 1) if one_k is None else [one_k]:
        if args.verbose:
            print(f"[minordet] {args.check} n={args.n} k={k}", file=sys.stderr)
        reports.append(report(args, k))
    return reports


def _emit(args, reports: list) -> int:
    """Print the reports, as JSON or by their summaries; exit 0 if every one passed."""
    passed = all(r.passed for r in reports)
    if args.json:
        payload = [r.to_json_dict() for r in reports]
        if args.verb == "selftest":
            payload = {"criteria": payload, "pass": passed}
        elif len(payload) == 1:
            payload = payload[0]
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(r.summary())
        if args.verb == "verify":  # a sweep ends with its overall verdict
            print("all checks passed" if passed else "CHECK FAILURES PRESENT")
        elif args.verb == "selftest":
            failed = [r.number for r in reports if not r.passed]
            print(f"selftest: FAILED criteria {failed}" if failed else "selftest: all criteria passed")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "verify":
            return _emit(args, _run_verify(args))

        if args.verb == "quotient":
            return _emit(args, [quotient(args.mode, args.n, args.k, unconstrained_count=args.unconstrained_count)])

        if args.verb == "fuzz":
            plan = FuzzPlan(args.theorem, args.n, args.k, args.trials, args.seed, args.bound)
            if args.negative_control:
                rep = negative_control(plan)
            else:
                rep = fuzz_divisibility(plan)
            return _emit(args, [rep])

        return _emit(args, run_all())  # selftest

    except (ValueError, ZeroDivisionError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
