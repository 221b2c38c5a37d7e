"""Fuzzing-layer tests: determinism, constraint wiring, control behavior."""

from __future__ import annotations

import pytest

from minordet import identities, oracle
from minordet.exactmat import det_bareiss, evaluate_matrix
from minordet.identities import (
    THEOREM_CONSTRAINTS,
    GenericSpec,
    build_generic,
    compound_minor_products,
    compound_minors,
    forced_divisor,
)
from minordet.oracle import (
    DIVISIBILITY_THEOREMS,
    MAX_N_DIVISIBILITY,
    MAX_N_SYLVESTER,
    MOD_DET_MIN_ROWS,
    THEOREMS,
    FuzzPlan,
    check_griolv_k2,
    fuzz_divisibility,
    fuzz_sylvester,
    negative_control,
    random_instance,
)


def test_plan_validation():
    FuzzPlan("b0", 3, 2, trials=10, seed=0, bound=5)
    with pytest.raises(ValueError):
        FuzzPlan("nope", 3, 2, trials=10, seed=0, bound=5)
    with pytest.raises(ValueError):
        FuzzPlan("cb", 3, 2, trials=10, seed=0, bound=5)
    with pytest.raises(ValueError):
        FuzzPlan("b0", -1, 0, trials=10, seed=0, bound=5)
    with pytest.raises(ValueError):
        FuzzPlan("b0", MAX_N_DIVISIBILITY + 1, 2, trials=10, seed=0, bound=5)
    with pytest.raises(ValueError):
        FuzzPlan("sylv", MAX_N_SYLVESTER + 1, 2, trials=10, seed=0, bound=5)
    with pytest.raises(ValueError, match=r"^need 1 <= n and 0 <= k <= n, got n=0 k=0$"):
        FuzzPlan("sylv", 0, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        FuzzPlan("b0", 3, 4, trials=10, seed=0, bound=5)
    with pytest.raises(ValueError):
        FuzzPlan("b0", 3, 2, trials=0, seed=0, bound=5)
    with pytest.raises(ValueError):
        FuzzPlan("b0", 3, 2, trials=10, seed=0, bound=0)
    assert set(DIVISIBILITY_THEOREMS) < set(THEOREMS)


def test_random_instance_is_deterministic():
    plan = FuzzPlan("b0", 3, 1, trials=5, seed=42, bound=30)
    a1, b1 = random_instance(plan, 2)
    a2, b2 = random_instance(plan, 2)
    assert a1 == a2 and b1 == b2
    a3, _ = random_instance(plan, 3)
    assert a3 != a1
    other_seed, _ = random_instance(
        FuzzPlan("b0", 3, 1, trials=5, seed=43, bound=30), 2
    )
    assert other_seed != a1


def test_random_instance_applies_constraints():
    size = 4
    for theorem in DIVISIBILITY_THEOREMS:
        plan = FuzzPlan(theorem, size - 1, 1, trials=1, seed=7, bound=50)
        a, b = random_instance(plan, 0)
        raw_a, raw_b = random_instance(plan, 0, apply_constraints=False)
        assert b.entry(size, size) == 0
        if theorem in ("ab0", "griolv"):
            assert a.entry(size, size) == 0
        if theorem == "adb0":
            for j in range(1, size):
                assert a.entry(size, j) == 0
            assert a.entry(size, size) == raw_a.entry(size, size)  # corner kept
        if theorem == "griolv":
            for t in range(1, size):
                assert a.entry(t, size) == a.entry(size, t) == b.entry(t, size) == b.entry(size, t) == 1
        # the unconstrained twin shares every unconstrained entry
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                on_border = theorem == "griolv" and size in (i, j)
                if (i, j) != (size, size) and not (theorem == "adb0" and i == size) and not on_border:
                    assert a.entry(i, j) == raw_a.entry(i, j)
                if (i, j) != (size, size) and not on_border:
                    assert b.entry(i, j) == raw_b.entry(i, j)
    # both evidence tiers read one table: the fuzzed pair is the symbolic pair
    # evaluated at the unconstrained draw, and the fuzzed divisor is the
    # symbolic divisor evaluated there
    for theorem in DIVISIBILITY_THEOREMS:
        for n in range(6):
            plan = FuzzPlan(theorem, n, 0, trials=3, seed=n, bound=9)
            ga, gb, _ = build_generic(GenericSpec(n, THEOREM_CONSTRAINTS[theorem]))
            for t in range(plan.trials):
                raw_a, raw_b = random_instance(plan, t, apply_constraints=False)
                point = {
                    f"{letter}_{i}_{j}": m.entry(i, j)
                    for letter, m in (("a", raw_a), ("b", raw_b))
                    for i in range(1, n + 2)
                    for j in range(1, n + 2)
                }
                a, b = random_instance(plan, t)
                assert (a, b) == (evaluate_matrix(ga, point), evaluate_matrix(gb, point))
                symbolic = forced_divisor(theorem, ga, gb).evaluate(point)
                assert symbolic == forced_divisor(theorem, a, b)


def test_fuzz_divisibility_clean_runs():
    for theorem, n, k in [("b0", 2, 1), ("ab0", 3, 2), ("adb0", 3, 1)]:
        plan = FuzzPlan(theorem, n, k, trials=15, seed=5, bound=25)
        rep = fuzz_divisibility(plan)
        assert rep.failures == 0
        assert rep.passes == 15
        assert rep.first_failure is None
    with pytest.raises(ValueError):
        fuzz_divisibility(FuzzPlan("sylv", 2, 1, trials=5, seed=0, bound=5))


def test_fuzz_divisibility_is_reproducible():
    plan = FuzzPlan("ab0", 2, 1, trials=10, seed=9, bound=40)
    assert fuzz_divisibility(plan).to_json_dict() == fuzz_divisibility(plan).to_json_dict()


def test_fuzz_sylvester_clean_runs():
    for n, k in [(2, 1), (3, 2), (4, 2)]:
        plan = FuzzPlan("sylv", n, k, trials=15, seed=6, bound=25)
        rep = fuzz_sylvester(plan)
        assert rep.failures == 0 and rep.passes == 15
    with pytest.raises(ValueError):
        fuzz_sylvester(FuzzPlan("b0", 2, 1, trials=5, seed=0, bound=5))


def test_zero_corner_kills_compound_det_below_top_k():
    # corner^p with p >= 1 forces the compound determinant to vanish
    plan = FuzzPlan("sylv", 3, 1, trials=1, seed=13, bound=30)
    a, _ = random_instance(plan, 0)
    a.entries[-1] = 0
    for k in (0, 1, 2):
        comp = compound_minors(a, k)
        assert det_bareiss(comp.matrix) == 0


def test_negative_control_detects_missing_constraints():
    plan = FuzzPlan("b0", 2, 1, trials=20, seed=11, bound=50)
    rep = negative_control(plan)
    assert rep.failures == 20
    assert rep.note is None
    assert rep.first_failure is not None
    assert rep.first_failure["divisor"] != 0
    with pytest.raises(ValueError):
        negative_control(FuzzPlan("sylv", 2, 1, trials=5, seed=0, bound=5))


def test_negative_control_vacuous_cases():
    for n, k in [(0, 0), (2, 2)]:
        plan = FuzzPlan("b0", n, k, trials=5, seed=3, bound=10)
        rep = negative_control(plan)
        assert rep.note == "vacuous"
        assert rep.failures == 0  # the single compound entry is det A * det B


def test_negative_control_escalation_paths():
    # bound 1 with one trial can come up clean; the control retries at 10x
    esc = negative_control(FuzzPlan("b0", 1, 0, trials=1, seed=1, bound=1))
    assert esc.note == "escalated"
    assert esc.failures >= 1
    assert esc.plan.bound == 10
    anom = negative_control(FuzzPlan("b0", 1, 0, trials=1, seed=0, bound=1))
    assert anom.note == "anomaly"
    assert anom.failures == 0


def _recomputed(plan, apply_constraints):
    """(passes, failures, first_failure) from full Bareiss determinants and w % d."""
    passes, first = 0, None
    for t in range(plan.trials):
        a, b = random_instance(plan, t, apply_constraints)
        w = det_bareiss(compound_minor_products(a, b, plan.k).matrix)
        d = forced_divisor(plan.theorem, a, b)
        if (w == 0) if d == 0 else (w % d == 0):
            passes += 1
        elif first is None:
            first = {"trial": t, "a": a.row_list(), "b": b.row_list(), "det_w": w, "divisor": d}
    return passes, plan.trials - passes, first


def test_verdicts_do_not_change_across_the_modular_rule():
    # compounds of 10 rows take full Bareiss, of 20 and 21 rows det W mod |d|;
    # adb0 at bound 1 has trials with divisor 0 and a control with one failure in six
    plans = [
        (FuzzPlan("b0", 5, 2, trials=6, seed=21, bound=50), 10),
        (FuzzPlan("ab0", 6, 3, trials=4, seed=22, bound=50), 20),
        (FuzzPlan("adb0", 6, 3, trials=6, seed=23, bound=1), 20),
        (FuzzPlan("b0", 7, 5, trials=3, seed=24, bound=50), 21),
    ]
    assert 10 < MOD_DET_MIN_ROWS <= 20
    for plan, rows in plans:
        a, b = random_instance(plan, 0)
        assert compound_minor_products(a, b, plan.k).matrix.rows == rows
        for run, constrained in ((fuzz_divisibility, True), (negative_control, False)):
            rep = run(plan)
            assert (rep.passes, rep.failures, rep.first_failure) == _recomputed(rep.plan, constrained)


def test_first_failure_reuses_the_verdicts_det_w(monkeypatch):
    # b0 n=3 k=2: the compound W is 3 x 3, the divisor's det A is 4 x 4
    compound_dets = []

    def counting_det_bareiss(m):
        if m.rows == 3:
            compound_dets.append(m)
        return det_bareiss(m)

    monkeypatch.setattr(oracle, "det_bareiss", counting_det_bareiss)
    rep = negative_control(FuzzPlan("b0", 3, 2, 5, 7, 100))
    assert rep.failures >= 1 and rep.plan.trials == 5  # not escalated
    assert len(compound_dets) == 5  # one per trial; the witness reuses the verdict's det W


def test_griolv_reports_a_wrong_divisor(monkeypatch):
    # a divisor three times too large fails on both tiers, and griolv names the tier
    for module in (identities, oracle):
        original = module.forced_divisor
        monkeypatch.setattr(module, "forced_divisor", lambda *args, original=original: 3 * original(*args))
    rep = check_griolv_k2(3)
    assert not rep.passed
    assert rep.witness == {"problem": "divisibility", "evidence": "symbolic"}
    rep = check_griolv_k2(4, trials=10, seed=1, bound=20)
    assert not rep.passed
    assert rep.witness == {"problem": "divisibility", "evidence": "pointwise", "trial": 1}


def test_report_json_shape():
    plan = FuzzPlan("adb0", 2, 1, trials=5, seed=8, bound=20)
    d = fuzz_divisibility(plan).to_json_dict()
    assert list(d) == [
        "theorem", "n", "k", "trials", "seed", "bound", "passes", "failures", "evidence",
    ]
    assert d["evidence"] == "pointwise"
    ctl = negative_control(FuzzPlan("b0", 2, 1, trials=5, seed=11, bound=50)).to_json_dict()
    assert "first_failure" in ctl and ctl["failures"] >= 1
