"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import minordet as md  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_highest_tail_percentile_keeps_ten_samples_beyond():
    assert run.highest_tail_percentile(100) == 90
    assert run.highest_tail_percentile(99) == 89
    assert run.highest_tail_percentile(1000) == 99
    assert run.highest_tail_percentile(20) == 50
    assert run.highest_tail_percentile(10) is None
    for n in range(11, 400):
        q = run.highest_tail_percentile(n)
        samples = list(range(n))
        beyond = sum(s > run.nearest_rank(samples, q) for s in samples)
        assert beyond >= 10
        if q < 99:
            assert sum(s > run.nearest_rank(samples, q + 1) for s in samples) < 10


def test_nearest_rank():
    samples = [float(v) for v in range(100, 0, -1)]
    assert run.nearest_rank(samples, 50) == 50.0
    assert run.nearest_rank(samples, 90) == 90.0
    assert run.nearest_rank([7.0], 50) == 7.0


def test_scaled_times_divide_by_the_slowdown():
    passes = run.Passes(2)
    passes.case_s = [[1.0, 2.0, 3.0], [0.5, 1.0, 0.2]]
    passes.slowdown = [[1.0, 2.0, 1.5], [1.0, 2.0, 0.5]]
    assert passes.scaled_case_s() == [1.0, 0.5]  # medians of (1, 1, 2) and (0.5, 0.5, 0.4)
    assert passes.scaled_pass_s() == 1.5  # median of the pass sums 1.5, 1.5, 2.4


def test_passes_measure_a_slowdown_per_case():
    cases = [case for case in workloads.sym_divide(md, 0) if case.label.startswith("quotient b0 n=2")]
    passes = run.run_passes(cases, seconds=0, min_passes=2)
    assert passes.failed == 0
    assert [len(row) for row in passes.slowdown] == [2] * len(cases)
    assert all(s > 0 for row in passes.slowdown for s in row)
    assert reference.units_for(0.0, 0.25) == 1
    assert reference.units_for(1.0, 0.25) == round(0.25 / reference.UNIT_S)
    assert reference.run_units(3) > 0


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["mid", 1.0, 6.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
        ["mid", 7.0, 9.0, 0, None],
        ["outer", 7.5, 8.0, 3, None],  # nested inside an outer span
    ]
    agg = tracing.aggregate(spans)
    assert agg["outer.calls"] == 2
    assert agg["outer.busy_s"] == 10.0  # the nested call is already covered
    assert agg["outer.self_s"] == (10.0 - 5.0 - 2.0) + 0.5
    assert agg["mid.busy_s"] == 7.0
    assert agg["mid.self_s"] == (5.0 - 1.0) + (2.0 - 0.5)
    assert agg["leaf.self_s"] == 1.0


def test_tracer_sees_calls_through_imported_names_and_defaults():
    originals = (md.exactmat.det_bareiss, md.exactmat.det_laplace, md.polyring.Polynomial.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.call("case", lambda: md.fuzz_divisibility(md.FuzzPlan("b0", 4, 2, 1, 0, 50)))
        fuzz = tracing.aggregate(tracer.take())
        tracer.call("case", lambda: md.check_chio(2))
        chio = tracing.aggregate(tracer.take())
    finally:
        tracer.uninstall()
    # 6 x 6 compound: 36 minors of A and 36 of B, then one compound and one divisor
    assert fuzz["exactmat.det_bareiss.minor.calls"] == 72
    assert fuzz["identities.compound_minor_products.minors"] == 72
    assert fuzz["exactmat.det_bareiss.compound.calls"] == 1
    assert fuzz["exactmat.det_bareiss.divisor.calls"] == 1
    assert not any(key.startswith("polyring.") for key in fuzz)
    # compound_minors' det= default was captured at definition time
    assert chio["identities.compound_minors.minors"] == 4
    assert chio["exactmat.det_laplace.calls"] == 4 + 2
    assert chio["polyring.accumulate_product.calls"] > 0
    assert (md.exactmat.det_bareiss, md.exactmat.det_laplace, md.polyring.Polynomial.__mul__) == originals
    assert md.det_bareiss is md.oracle.det_bareiss is originals[0]
    assert md.identities.compound_minors.__defaults__[0] is originals[1]


def test_wrong_expectation_fails_the_gate():
    right = workloads.QUOTIENT_SIZES[("b0", 3, 2)]
    wrong = (right[0] + 1,) + right[1:]
    cases = [
        workloads.Case("right", lambda: md.quotient("b0", 3, 2), workloads.quotient_check(right)),
        workloads.Case("wrong", lambda: md.quotient("b0", 3, 2), workloads.quotient_check(wrong)),
        workloads.Case("refused", lambda: md.quotient("b0", 4, 2), workloads.quotient_check(right)),
    ]
    passes = run.run_passes(cases, seconds=0)
    assert (passes.attempted, passes.failed) == (3, 2)
    constrained = workloads.fuzz_case(md, "b0", 4, 2, 2, 5, 50)
    negative = workloads.fuzz_case(md, "b0", 4, 2, 2, 5, 50, negative=True)
    assert constrained.check(constrained.run()) is None
    assert negative.check(constrained.run()) is not None


def test_seeds_change_inputs_not_verdicts():
    first = workloads.fuzz_small(md, 1)[: len(workloads.FUZZ_SMALL_ROUND)]
    second = workloads.fuzz_small(md, 2)[: len(workloads.FUZZ_SMALL_ROUND)]
    for a, b in zip(first, second):
        assert md.random_instance(a.plan, 0, not a.negative) != md.random_instance(b.plan, 0, not b.negative)
    verdicts = [[case.run().failures > 0 for case in cases] for cases in (first, second)]
    assert verdicts[0] == verdicts[1] == [case.negative for case in first]
    assert run.run_passes(first, seconds=0).failed == 0
    wide = [[case.plan.seed for case in workloads.fuzz_wide(md, seed)] for seed in (1, 2)]
    assert wide[0] != wide[1]


def test_fixed_quotient_sizes_hold():
    cases = [case for case in workloads.sym_divide(md, 0) if case.label.startswith("quotient")]
    assert len(cases) == 20
    assert run.run_passes(cases, seconds=0).failed == 0


def test_degenerate_trials_match_the_bound_one_example():
    b0 = workloads.fuzz_case(md, "b0", 4, 2, 200, 0, 1)
    adb0 = workloads.fuzz_case(md, "adb0", 4, 2, 200, 0, 1)
    control = workloads.fuzz_case(md, "b0", 4, 2, 200, 0, 1, negative=True)
    assert workloads.degenerate_trials(md, [b0]) == (200, 53)
    assert workloads.degenerate_trials(md, [adb0, control]) == (200, 110)
