"""Identity-layer tests on small symbolic instances.

Structural facts (entry formulas, factorizations, symmetries) are asserted
directly; the power identity additionally gets a numeric spot check built
from det_bareiss so it does not lean on the polynomial engine alone.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from minordet.exactmat import MatrixExpr, brute_force_det, det_bareiss, det_laplace, submatrix
from minordet.identities import (
    CONSTRAINT_FLAGS,
    SYMBOLIC_N_LIMIT,
    GenericSpec,
    SylvesterExponents,
    build_generic,
    check_cauchy_binet,
    check_chio,
    check_griolv_k2,
    check_lemma_adb0,
    check_sylvester,
    compound_minor_products,
    compound_minors,
    quotient,
)
from minordet.oracle import FuzzPlan, random_instance
from minordet.polyring import Polynomial, exact_div


def test_generic_spec_validation():
    GenericSpec(0)
    GenericSpec(3, frozenset({"b_corner_zero"}))
    with pytest.raises(ValueError):
        GenericSpec(-1)
    with pytest.raises(ValueError):
        GenericSpec(2, frozenset({"c_corner_zero"}))
    with pytest.raises(ValueError):
        GenericSpec(2, frozenset({"a_last_row_zero", "borders_one_a"}))
    assert len(CONSTRAINT_FLAGS) == 5


def test_sylvester_exponents_known_values():
    assert SylvesterExponents.from_params(3, 2) == SylvesterExponents(1, 2)
    assert SylvesterExponents.from_params(4, 2) == SylvesterExponents(3, 3)
    assert SylvesterExponents.from_params(5, 0) == SylvesterExponents(1, 0)
    assert SylvesterExponents.from_params(5, 5) == SylvesterExponents(0, 1)
    for n in range(1, 9):
        for k in range(n + 1):
            e = SylvesterExponents.from_params(n, k)
            assert e.p + e.q == math.comb(n, k)
    with pytest.raises(ValueError):
        SylvesterExponents.from_params(0, 0)
    with pytest.raises(ValueError):
        SylvesterExponents.from_params(3, 4)


def test_build_generic_unconstrained_counts():
    a, b, u = build_generic(GenericSpec(3))
    assert a.rows == a.cols == 4 and b.rows == b.cols == 4
    assert u.nvars == 32
    assert u.names[0] == "a_1_1" and u.names[15] == "a_4_4"
    assert u.names[16] == "b_1_1" and u.names[-1] == "b_4_4"
    assert a.entry(2, 3) == Polynomial.variable(u, "a_2_3")
    assert b.entry(4, 4) == Polynomial.variable(u, "b_4_4")


def test_build_generic_constraint_patterns():
    a, b, u = build_generic(GenericSpec(1, frozenset({"b_corner_zero"})))
    assert u.nvars == 7  # 4 a-vars, 3 b-vars
    assert b.entry(2, 2) == 0
    assert b.entry(1, 1) == Polynomial.variable(u, "b_1_1")

    a, b, u = build_generic(GenericSpec(2, frozenset({"a_corner_zero", "borders_one_a"})))
    one = Polynomial.one(u)
    for j in (1, 2):
        assert a.entry(3, j) == one and a.entry(j, 3) == one
    assert a.entry(3, 3) == 0
    assert a.entry(1, 2) == Polynomial.variable(u, "a_1_2")
    assert b.entry(3, 3) == Polynomial.variable(u, "b_3_3")
    assert u.nvars == 4 + 9

    # a_last_row_zero empties the last row but leaves the corner generic
    a, _, u = build_generic(GenericSpec(2, frozenset({"a_last_row_zero"})))
    assert a.entry(3, 1) == 0 and a.entry(3, 2) == 0
    assert a.entry(3, 3) == Polynomial.variable(u, "a_3_3")


def test_compound_minors_extreme_k():
    a, _, _ = build_generic(GenericSpec(2))
    corner = a.entry(3, 3)
    c0 = compound_minors(a, 0)
    assert c0.matrix.rows == 1
    assert c0.matrix.entry(1, 1) == corner
    cn = compound_minors(a, 2)
    assert cn.matrix.rows == 1
    assert cn.matrix.entry(1, 1) == brute_force_det(a)
    with pytest.raises(ValueError):
        compound_minors(MatrixExpr(0, 0, []), 0)
    for k in (-1, 3):  # k must lie in [0, n]
        with pytest.raises(ValueError):
            compound_minors(a, k)
        with pytest.raises(ValueError):
            compound_minor_products(a, a, k)


def test_compound_family_counts_and_order():
    for n in range(7):
        a = MatrixExpr.identity(n + 1)
        for k in range(n + 1):
            c = compound_minors(a, k)
            assert c.family == tuple(combinations(range(1, n + 1), k))
            assert c.matrix.rows == len(c.family) == math.comb(n, k)
            for i, subset in enumerate(c.family):
                assert c.entry(subset, subset) == c.matrix.entry(i + 1, i + 1) == 1
    c = compound_minors(MatrixExpr.identity(4), 2)
    with pytest.raises(ValueError):
        c.entry((1, 4), (1, 2))
    with pytest.raises(ValueError):
        c.entry((1, 2), (2, 1))


def test_compound_minors_k1_formula():
    a, _, _ = build_generic(GenericSpec(2))
    c = compound_minors(a, 1)
    assert c.matrix.rows == 2
    for i in (1, 2):
        for j in (1, 2):
            want = a.entry(i, j) * a.entry(3, 3) - a.entry(i, 3) * a.entry(3, j)
            assert c.entry((i,), (j,)) == want


def test_minor_products_are_entrywise():
    a, b, _ = build_generic(GenericSpec(2))
    w = compound_minor_products(a, b, 1)
    wa = compound_minors(a, 1)
    wb = compound_minors(b, 1)
    for row in w.family:
        for col in w.family:
            assert w.entry(row, col) == wa.entry(row, col) * wb.entry(row, col)
    with pytest.raises(ValueError):
        compound_minor_products(a, MatrixExpr.identity(2), 1)


def _transpose(a):
    ent = [a.entries[r * a.cols + c] for c in range(a.cols) for r in range(a.rows)]
    return MatrixExpr(a.cols, a.rows, ent, a.universe)


def test_minor_products_transpose_symmetry():
    a, b, _ = build_generic(GenericSpec(2))
    w = compound_minor_products(a, b, 1)
    wt = compound_minor_products(_transpose(a), _transpose(b), 1)
    for row in w.family:
        for col in w.family:
            assert wt.entry(row, col) == w.entry(col, row)


def test_sylvester_small_symbolic():
    for n, k in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]:
        rep = check_sylvester(n, k)
        assert rep.passed, (n, k)
        assert rep.check == "sylvester" and rep.n == n and rep.k == k
        assert rep.witness is None
    with pytest.raises(ValueError):
        check_sylvester(0, 0)


def test_sylvester_numeric_spot_check():
    # same identity on concrete integers, via the elimination determinant
    rng = random.Random(300)
    for _ in range(20):
        n, k = 3, 2
        mat = MatrixExpr(n + 1, n + 1, [rng.randint(-9, 9) for _ in range((n + 1) ** 2)])
        comp = compound_minors(mat, k)
        e = SylvesterExponents.from_params(n, k)
        lhs = det_bareiss(comp.matrix)
        rhs = mat.entry(n + 1, n + 1) ** e.p * det_bareiss(mat) ** e.q
        assert lhs == rhs


def test_chio_small():
    for n in (1, 2, 3):
        rep = check_chio(n)
        assert rep.passed and rep.check == "chio" and rep.k == 1
    with pytest.raises(ValueError):
        check_chio(0)


def test_cauchy_binet_square_and_rectangular():
    for k in (0, 1, 2):
        rep = check_cauchy_binet((2, 2, 2), k, trials=5, seed=1, bound=9)
        assert rep.passed, k
    rep = check_cauchy_binet((3, 2, 4), 2, trials=5, seed=2, bound=9)
    assert rep.passed


def test_cauchy_binet_empty_sum_case():
    # k exceeds the inner dimension: every k-minor of the product must vanish
    rep = check_cauchy_binet((3, 1, 3), 2, trials=5, seed=3, bound=9)
    assert rep.passed
    rep = check_cauchy_binet((4, 0, 4), 1, trials=3, seed=4, bound=9)
    assert rep.passed


def test_cauchy_binet_validation():
    with pytest.raises(ValueError):
        check_cauchy_binet((3, 3, 3), 4)
    with pytest.raises(ValueError):
        check_cauchy_binet((7, 3, 3), 1)
    with pytest.raises(ValueError):
        check_cauchy_binet((3, 3, 3), 1, trials=0)


def test_griolv_entries_and_divisibility():
    rep = check_griolv_k2(2)
    assert rep.passed and rep.check == "griolv" and rep.k == 2
    rep3 = check_griolv_k2(3)
    assert rep3.passed
    # past the symbolic bound the divisibility half switches to sampling
    rep4 = check_griolv_k2(4, trials=3, seed=5, bound=20)
    assert rep4.passed
    with pytest.raises(ValueError):
        check_griolv_k2(1)


def test_quotient_b0_n1_matches_det_b():
    a, b, _ = build_generic(GenericSpec(1, frozenset({"b_corner_zero"})))
    det_w = det_laplace(compound_minor_products(a, b, 1).matrix)
    q = exact_div(det_w, det_laplace(a))
    assert q is not None
    assert q == det_laplace(b)  # det B collapses to a single monomial here
    assert len(q.terms) == 1 and q.total_degree() == 2

    rep = quotient("b0", 1, 1)
    assert rep.divisible
    assert rep.quotient_stats.monomials == 1
    assert rep.quotient_stats.degree == 2
    assert rep.detw_stats.monomials == 2


def test_quotient_degenerate_sizes():
    rep = quotient("b0", 0, 0)
    assert rep.divisible and rep.quotient_stats.monomials == 0
    assert rep.detw_stats.monomials == 0
    # both corners zero at n = 0 divides zero by zero; the quotient is zero
    rep = quotient("ab0", 0, 0)
    assert rep.divisible and rep.quotient_stats.monomials == 0


def test_quotient_force_and_validation():
    with pytest.raises(ValueError):
        quotient("x0", 1, 1)
    with pytest.raises(ValueError):
        quotient("b0", 2, 3)
    with pytest.raises(ValueError):
        quotient("b0", SYMBOLIC_N_LIMIT + 1, 0)


def test_quotient_unconstrained_count():
    rep = quotient("b0", 1, 1, unconstrained_count=True)
    # without constraints det W = det A * det B: 2 x 2 cross terms
    assert rep.unconstrained_detw_monomials == 4
    plain = quotient("b0", 1, 1)
    assert plain.unconstrained_detw_monomials is None


def test_lemma_adb0_small_sizes():
    for n in (0, 1, 2):
        for k in range(n + 1):
            rep = check_lemma_adb0(n, k)
            assert rep.passed, (n, k)
            assert rep.witness is None
    with pytest.raises(ValueError):
        check_lemma_adb0(SYMBOLIC_N_LIMIT + 1, 0)
    with pytest.raises(ValueError):
        check_lemma_adb0(2, 3)


def test_lemma_adb0_entries_divisible_by_corner():
    # with a zero last row on A, the corner divides every compound entry
    a, b, _ = build_generic(GenericSpec(2, frozenset({"a_last_row_zero", "b_corner_zero"})))
    corner = a.entry(3, 3)
    w = compound_minor_products(a, b, 1)
    for e in w.matrix.entries:
        assert exact_div(e, corner) is not None


def test_report_json_shapes():
    rep = check_sylvester(2, 1)
    d = rep.to_json_dict()
    assert list(d) == ["check", "n", "k", "pass", "elapsed_ms"]
    assert d["pass"] is True

    q = quotient("ab0", 1, 1).to_json_dict()
    assert list(q) == ["check", "n", "k", "mode", "pass", "stats", "detw_stats", "elapsed_ms"]
    assert q["check"] == "quotient" and q["mode"] == "ab0"

    qc = quotient("b0", 1, 1, unconstrained_count=True).to_json_dict()
    assert "unconstrained_detw_monomials" in qc


def _assert_minors_match_submatrices(a, b, det):
    n = a.rows - 1
    for k in range(n + 1):
        ca = compound_minors(a, k)
        cb = compound_minors(b, k)
        w = compound_minor_products(a, b, k)
        for row_set in ca.family:
            for col_set in ca.family:
                rows, cols = row_set + (n + 1,), col_set + (n + 1,)
                want_a = det(submatrix(a, rows, cols))
                want_b = det(submatrix(b, rows, cols))
                assert ca.entry(row_set, col_set) == want_a, (n, k, row_set, col_set)
                assert cb.entry(row_set, col_set) == want_b, (n, k, row_set, col_set)
                assert w.entry(row_set, col_set) == want_a * want_b, (n, k, row_set, col_set)


def test_bordered_minor_matches_direct_submatrix():
    # every entry of both builders against a determinant of the submatrix
    for theorem in ("b0", "ab0", "adb0"):
        for n in range(7):
            for bound in (50, 1):  # bound 1 makes many entries and minors zero
                a, b = random_instance(FuzzPlan(theorem, n, 0, 1, 17 + n, bound), 0)
                _assert_minors_match_submatrices(a, b, det_bareiss)
    patterns = [frozenset()] + [frozenset({flag}) for flag in sorted(CONSTRAINT_FLAGS)]
    for n in range(4):
        for constraints in patterns:
            a, b, _ = build_generic(GenericSpec(n, constraints))
            _assert_minors_match_submatrices(a, b, brute_force_det)  # at most 4 x 4
