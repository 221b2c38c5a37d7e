"""Command-line front end: verify, quotient, fuzz, selftest.

Exit codes: 0 when every requested check passes, 1 on a mathematical-check
failure, 2 on a usage error or a request that ran out of memory.  --json
prints one JSON document on stdout (an object for one report or for
selftest, an array otherwise) whose bytes are identical across runs for
fixed inputs, except the elapsed_ms fields.
--verbose writes stage logging to stderr and never touches stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .identities import SYMBOLIC_N_LIMIT, check_chio, check_lemma_adb0, check_sylvester, quotient
from .oracle import (
    FuzzPlan,
    check_cauchy_binet,
    check_griolv_k2,
    fuzz_divisibility,
    fuzz_sylvester,
    negative_control,
)

VERIFY_CHECKS = ("sylvester", "chio", "cauchy-binet", "griolv", "lemma-adb0", "b0", "ab0")


class UsageError(ValueError):
    """A rule of the command line itself; like every ValueError, it exits 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minordet",
        description="exact checks of determinant identities on compounds of bordered minors",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_verify = sub.add_parser("verify", help="run one identity check, symbolically where feasible")
    p_verify.add_argument("--check", required=True, choices=VERIFY_CHECKS)
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
    p_fuzz.add_argument("--theorem", required=True, choices=("b0", "ab0", "adb0", "sylv"))
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


def _verbose_log(enabled: bool):
    def log(msg: str):
        if enabled:
            print(f"[minordet] {msg}", file=sys.stderr)

    return log


def _k_range(args) -> list[int]:
    """The requested --k, or every k in [0, n]; the called check bounds an explicit --k."""
    return [args.k] if args.k is not None else list(range(args.n + 1))


def _run_verify(args) -> list:
    log = _verbose_log(args.verbose)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    reports = []
    check = args.check
    if check == "sylvester":
        for k in _k_range(args):
            log(f"sylvester n={args.n} k={k}")
            reports.append(check_sylvester(args.n, k))
    elif check == "chio":
        if args.k is not None:
            raise UsageError("chio does not take --k (it is the k=1 compound)")
        log(f"chio n={args.n}")
        reports.append(check_chio(args.n))
    elif check == "cauchy-binet":
        dims = (args.n, args.n, args.n)
        for k in _k_range(args):
            log(f"cauchy-binet dims={dims} k={k}")
            reports.append(check_cauchy_binet(dims, k, trials=args.trials, seed=args.seed, bound=args.bound))
    elif check == "griolv":
        if args.k is not None:
            raise UsageError("griolv does not take --k (it is the k=2 case)")
        log(f"griolv n={args.n}")
        reports.append(check_griolv_k2(args.n, trials=args.trials, seed=args.seed, bound=args.bound))
    elif check == "lemma-adb0":
        for k in _k_range(args):
            log(f"lemma-adb0 n={args.n} k={k}")
            reports.append(check_lemma_adb0(args.n, k))
    else:  # b0 / ab0: symbolic quotient when small, pointwise fuzzing when large
        for k in _k_range(args):
            if args.n <= SYMBOLIC_N_LIMIT:
                log(f"{check} n={args.n} k={k} (symbolic quotient)")
                reports.append(quotient(check, args.n, k))
            else:
                log(f"{check} n={args.n} k={k} (pointwise fuzzing)")
                plan = FuzzPlan(check, args.n, k, trials=args.trials, seed=args.seed, bound=args.bound)
                reports.append(fuzz_divisibility(plan))
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
            elif args.theorem == "sylv":
                rep = fuzz_sylvester(plan)
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
