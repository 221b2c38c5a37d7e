"""Command-line front end: verify, quotient, fuzz, selftest.

Exit codes: 0 when every requested check passes, 1 on a mathematical-check
failure, 2 on a usage error.  With --json the reports go to stdout as one
JSON document (an object for a single report, an array otherwise) whose
bytes are identical across runs for fixed inputs, except the elapsed_ms
fields.  --verbose writes stage logging to stderr and never touches stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_all
from .identities import (
    SYMBOLIC_N_LIMIT,
    check_cauchy_binet,
    check_chio,
    check_griolv_k2,
    check_lemma_adb0,
    check_sylvester,
    quotient,
)
from .oracle import FuzzPlan, fuzz_divisibility, fuzz_sylvester, negative_control

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


def _run_verify(args) -> tuple[list[dict], bool]:
    log = _verbose_log(args.verbose)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    reports: list[dict] = []
    ok = True

    def add(report):
        nonlocal ok
        d = report.to_json_dict()
        reports.append(d)
        ok = ok and d["pass"]

    check = args.check
    if check == "sylvester":
        for k in _k_range(args):
            log(f"sylvester n={args.n} k={k}")
            add(check_sylvester(args.n, k))
    elif check == "chio":
        if args.k is not None:
            raise UsageError("chio does not take --k (it is the k=1 compound)")
        log(f"chio n={args.n}")
        add(check_chio(args.n))
    elif check == "cauchy-binet":
        dims = (args.n, args.n, args.n)
        for k in _k_range(args):
            log(f"cauchy-binet dims={dims} k={k}")
            add(check_cauchy_binet(dims, k, trials=args.trials, seed=args.seed, bound=args.bound))
    elif check == "griolv":
        if args.k is not None:
            raise UsageError("griolv does not take --k (it is the k=2 case)")
        log(f"griolv n={args.n}")
        add(check_griolv_k2(args.n, trials=args.trials, seed=args.seed, bound=args.bound))
    elif check == "lemma-adb0":
        for k in _k_range(args):
            log(f"lemma-adb0 n={args.n} k={k}")
            add(check_lemma_adb0(args.n, k))
    else:  # b0 / ab0: symbolic quotient when small, pointwise fuzzing when large
        for k in _k_range(args):
            if args.n <= SYMBOLIC_N_LIMIT:
                log(f"{check} n={args.n} k={k} (symbolic quotient)")
                add(quotient(check, args.n, k))
            else:
                log(f"{check} n={args.n} k={k} (pointwise fuzzing)")
                plan = FuzzPlan(check, args.n, k, trials=args.trials, seed=args.seed, bound=args.bound)
                rep = fuzz_divisibility(plan)
                reports.append(rep.to_json_dict())
                ok = ok and rep.failures == 0
    return reports, ok


def _human_verify_line(d: dict) -> str:
    if "theorem" in d:  # fuzz-shaped report
        status = "PASS" if d["failures"] == 0 else "FAIL"
        return (
            f"{d['theorem']} n={d['n']} k={d['k']}: {status} "
            f"({d['passes']} passes, {d['failures']} failures)"
        )
    status = "PASS" if d["pass"] else "FAIL"
    extra = ""
    if "stats" in d:
        extra = f" quotient monomials={d['stats']['monomials']}"
    return f"{d['check']} n={d['n']} k={d['k']}: {status}{extra} ({d['elapsed_ms']} ms)"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "verify":
            reports, ok = _run_verify(args)
            if args.json:
                payload = reports[0] if len(reports) == 1 else reports
                print(json.dumps(payload, indent=2))
            else:
                for d in reports:
                    print(_human_verify_line(d))
                print("all checks passed" if ok else "CHECK FAILURES PRESENT")
            return 0 if ok else 1

        if args.verb == "quotient":
            rep = quotient(args.mode, args.n, args.k, unconstrained_count=args.unconstrained_count)
            d = rep.to_json_dict()
            if args.json:
                print(json.dumps(d, indent=2))
            else:
                print(_human_verify_line(d))
                if rep.unconstrained_detw_monomials is not None:
                    print(f"unconstrained compound determinant monomials: {rep.unconstrained_detw_monomials}")
            return 0 if rep.divisible else 1

        if args.verb == "fuzz":
            plan = FuzzPlan(args.theorem, args.n, args.k, args.trials, args.seed, args.bound)
            if args.negative_control:
                if args.theorem == "sylv":
                    raise UsageError("--negative-control applies to divisibility theorems only")
                rep = negative_control(plan)
                passed = rep.failures >= 1 or rep.note == "vacuous"
            elif args.theorem == "sylv":
                rep = fuzz_sylvester(plan)
                passed = rep.failures == 0
            else:
                rep = fuzz_divisibility(plan)
                passed = rep.failures == 0
            d = rep.to_json_dict()
            if args.json:
                print(json.dumps(d, indent=2))
            else:
                status = "PASS" if passed else "FAIL"
                note = f" note={rep.note}" if rep.note else ""
                print(
                    f"{plan.theorem} n={plan.n} k={plan.k}: {status} "
                    f"({rep.passes} passes, {rep.failures} failures{note})"
                )
            return 0 if passed else 1

        # selftest
        results = run_all()
        if args.json:
            payload = {
                "criteria": [r.to_json_dict() for r in results],
                "pass": all(r.passed for r in results),
            }
            print(json.dumps(payload, indent=2))
        else:
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"criterion {r.number:2d} {r.name:<32} {status}  {r.detail}")
            failed = [r.number for r in results if not r.passed]
            print(
                "selftest: all criteria passed"
                if not failed
                else f"selftest: FAILED criteria {failed}"
            )
        return 0 if all(r.passed for r in results) else 1

    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
