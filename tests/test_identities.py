"""Identity-layer tests on small symbolic instances.

Structural facts (entry formulas, factorizations, symmetries) are asserted
directly; the power identity additionally gets a numeric spot check built
from det_bareiss so it does not lean on the polynomial engine alone.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations, product

import pytest

from minordet import exactmat, identities, polyring
from minordet.exactmat import MatrixExpr, brute_force_det, det_bareiss, det_laplace, matmul, submatrix
from minordet.identities import (
    CONSTRAINT_FLAGS,
    SYMBOLIC_N_LIMIT,
    THEOREM_CONSTRAINTS,
    GenericSpec,
    _derivation_failures,
    _single_generic,
    build_generic,
    check_chio,
    check_lemma_adb0,
    check_sylvester,
    compound,
    compound_minor_products,
    compound_minors,
    power_identity,
    quotient,
)
from minordet.oracle import (
    FuzzPlan,
    check_cauchy_binet,
    check_griolv_k2,
    fuzz_divisibility,
    fuzz_sylvester,
    rand_int_matrix,
    random_instance,
)
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


def test_power_identity_exponents_known_values():
    # rhs is corner^C(n-1, k) * det^C(n-1, k-1); |corner|, |det| >= 2 tell the exponents apart
    rng = random.Random(13)
    for n, k in [(3, 2), (4, 2), (5, 0), (5, 5), (1, 0), (1, 1), (2, 1)]:
        mat = MatrixExpr(n + 1, n + 1, [rng.randint(-9, 9) for _ in range((n + 1) ** 2)])
        corner, d = mat.entry(n + 1, n + 1), det_bareiss(mat)
        assert abs(corner) > 1 and abs(d) > 1, (n, k)
        lhs, rhs = power_identity(mat, k)
        assert rhs == corner ** math.comb(n - 1, k) * d ** (math.comb(n - 1, k - 1) if k else 0), (n, k)
        assert lhs == rhs, (n, k)
    refusal = "need 1 <= n and 0 <= k <= n, got n={} k={}"
    with pytest.raises(ValueError, match=refusal.format(0, 0)):
        power_identity(MatrixExpr(1, 1, [5]), 0)
    with pytest.raises(ValueError, match=refusal.format(0, 0)):
        check_sylvester(0, 0)
    with pytest.raises(ValueError, match=refusal.format(3, 4)):
        check_sylvester(3, 4)
    with pytest.raises(ValueError, match=refusal.format(0, 0)):
        fuzz_sylvester(FuzzPlan("sylv", 0, 0, 1, 0, 1))


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
            assert c.matrix == MatrixExpr.identity(len(c.family))


def test_compound_minors_k1_formula():
    # C_1 is Chio's condensation S = c A' - u v^T, which condense returns with the corner c
    a, _, _ = build_generic(GenericSpec(2))
    c = compound_minors(a, 1)
    assert c.matrix.rows == 2
    assert c.family == ((1,), (2,))
    for i in (1, 2):
        for j in (1, 2):
            want = a.entry(i, j) * a.entry(3, 3) - a.entry(i, 3) * a.entry(3, j)
            assert c.matrix.entry(i, j) == want
    assert identities.condense(a) == (c.matrix, a.entry(3, 3))


def test_minor_products_are_entrywise():
    a, b, _ = build_generic(GenericSpec(2))
    w = compound_minor_products(a, b, 1)
    wa = compound_minors(a, 1)
    wb = compound_minors(b, 1)
    assert w.family == wa.family == wb.family
    assert w.matrix.entries == [x * y for x, y in zip(wa.matrix.entries, wb.matrix.entries)]
    with pytest.raises(ValueError):
        compound_minor_products(a, MatrixExpr.identity(2), 1)


def _transpose(a):
    ent = [a.entries[r * a.cols + c] for c in range(a.cols) for r in range(a.rows)]
    return MatrixExpr(a.cols, a.rows, ent, a.universe)


def test_minor_products_transpose_symmetry():
    a, b, _ = build_generic(GenericSpec(2))
    w = compound_minor_products(a, b, 1)
    wt = compound_minor_products(_transpose(a), _transpose(b), 1)
    assert wt.matrix == _transpose(w.matrix)


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
        lhs, rhs = power_identity(mat, k)
        assert lhs == det_bareiss(compound_minors(mat, k).matrix) == rhs


def test_derived_route_agrees_with_direct_expansion():
    # the derivation starts at k = 1 (Sylvester's identity carries c^(k-1)), so k = 0 is direct only
    for n, k in [(n, k) for n in (1, 2, 3) for k in range(1, n + 1)] + [(4, 2)]:
        a, _ = _single_generic(n)
        lhs, rhs = power_identity(a, k)
        assert lhs == rhs and _derivation_failures(a, k) == [], (n, k)
    for n in (1, 2, 3):
        assert check_sylvester(n, 0).passed


def test_derived_route_names_the_failed_step(monkeypatch):
    engine = identities.bordered_minors

    def one_wrong_minor(m, k):  # in Cb_2(A) only: the padded S and Franke's matrix have corner 1
        minors = engine(m, k)
        if k == 2 and m.entries[-1] != 1:
            minors[0] += 1
        return minors

    monkeypatch.setattr(identities, "bordered_minors", one_wrong_minor)
    rep = check_sylvester(3, 2)
    assert not rep.passed and rep.witness == {"failures": ["entrywise"]} and rep.evidence is None
    monkeypatch.undo()
    monkeypatch.setattr(identities, "power_identity", lambda a, k: (det_laplace(a), det_laplace(a) + 1))
    assert check_sylvester(3, 2).witness == {"failures": ["chio"]}
    rep = check_sylvester(5, 2)  # Sylvester-Franke is cited at n = 5, not checked
    assert rep.witness == {"failures": ["chio"]} and rep.evidence == "derived"
    monkeypatch.undo()
    monkeypatch.setattr(identities, "franke_identity", lambda m, k: (det_laplace(m), det_laplace(m) + 1))
    assert check_sylvester(4, 3).witness == {"failures": ["Sylvester-Franke"]}
    assert check_sylvester(5, 3).passed


def test_derivation_exponents_cancel():
    # c^((k-1) C(n, k)) det Cb_k = c^((n-1) C(n-1, k-1)) det A^C(n-1, k-1) leaves c^C(n-1, k)
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert (n - 1) * math.comb(n - 1, k - 1) - (k - 1) * math.comb(n, k) == math.comb(n - 1, k), (n, k)


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


def test_compound_matches_brute_force_minors():
    # a padded compound that vanished everywhere would pass check_cauchy_binet, so check each minor
    rng = random.Random(8)
    for rows, cols in product(range(7), repeat=2):
        for bound in (50, 1):  # bound 1 makes many minors zero
            m = rand_int_matrix(rng, rows, cols, bound)
            for size in (max(rows, cols), max(rows, cols) + 1):
                for k in range(size + 1):
                    family = tuple(combinations(range(1, size + 1), k))
                    c = compound(m, k, size)
                    assert (c.rows, c.cols) == (len(family), len(family))
                    for (r, q), got in zip(product(family, repeat=2), c.entries):
                        inside = all(i <= rows for i in r) and all(j <= cols for j in q)
                        want = brute_force_det(submatrix(m, r, q)) if inside else 0
                        assert got == want, (rows, cols, bound, size, k, r, q)


def test_cauchy_binet_validation():
    with pytest.raises(ValueError):
        check_cauchy_binet((3, 3, 3), 4)
    with pytest.raises(ValueError):
        check_cauchy_binet((7, 3, 3), 1)
    with pytest.raises(ValueError):
        check_cauchy_binet((3, 3, 3), 1, trials=0)
    for bound in (0, -2):  # bound 0 draws only zero matrices and proves nothing
        with pytest.raises(ValueError, match="bound must be positive"):
            check_cauchy_binet((3, 3, 3), 2, bound=bound)


def test_cauchy_binet_reports_a_wrong_product(monkeypatch):
    # A·B off by one in entry (1,1); products of anything but the drawn A and B stay exact
    drawn = []

    def draw(*args):
        drawn.append(rand_int_matrix(*args))
        return drawn[-1]

    def faulty_matmul(a, b):
        out = matmul(a, b)
        if any(a is m for m in drawn) and any(b is m for m in drawn):
            out.entries[0] += 1
        return out

    monkeypatch.setattr("minordet.oracle.rand_int_matrix", draw)
    monkeypatch.setattr("minordet.oracle.matmul", faulty_matmul)
    rep = check_cauchy_binet((3, 3, 3), 2, trials=3, seed=0, bound=9)
    assert not rep.passed
    assert rep.witness == {
        "trial": 0,
        "a": [[-1, 5, 5], [-6, 1, 3], [-4, -3, -1]],
        "b": [[1, 2, -7], [-5, 0, 5], [-2, 0, -1]],
        "row_set": [1, 2],
        "col_set": [1, 2],
        "lhs": 386,
        "rhs": 398,
    }


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


def test_quotient_validation():
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


def test_lemma_adb0_reports_broken_factorizations(monkeypatch):
    # without A's zero last row neither factorization holds, while b0's divisibility still does
    monkeypatch.setitem(THEOREM_CONSTRAINTS, "adb0", frozenset({"b_corner_zero"}))
    rep = check_lemma_adb0(2, 1)
    assert not rep.passed
    assert rep.witness == {"failures": ["corner-block factorization", "minor factorization at ((1,), (1,))"]}


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
    # only a proof that cites Sylvester-Franke (at n > 4) says so
    assert check_sylvester(5, 1).evidence is None and check_sylvester(4, 2).evidence is None
    rep = check_sylvester(5, 2)
    assert list(rep.to_json_dict()) == ["check", "n", "k", "pass", "evidence", "elapsed_ms"]
    assert rep.evidence == "derived" and "derived citing the Sylvester-Franke theorem" in rep.summary()

    q = quotient("ab0", 1, 1).to_json_dict()
    assert list(q) == ["check", "n", "k", "mode", "pass", "stats", "detw_stats", "elapsed_ms"]
    assert q["check"] == "quotient" and q["mode"] == "ab0"

    qc = quotient("b0", 1, 1, unconstrained_count=True).to_json_dict()
    assert "unconstrained_detw_monomials" in qc


def _assert_minors_match_submatrices(a, b, det, ks=None):
    n = a.rows - 1
    for k in range(n + 1) if ks is None else ks:
        ca = compound_minors(a, k)
        cb = compound_minors(b, k)
        w = compound_minor_products(a, b, k)
        for i, row_set in enumerate(ca.family, 1):
            for j, col_set in enumerate(ca.family, 1):
                rows, cols = row_set + (n + 1,), col_set + (n + 1,)
                want_a = det(submatrix(a, rows, cols))
                want_b = det(submatrix(b, rows, cols))
                assert ca.matrix.entry(i, j) == want_a, (n, k, row_set, col_set)
                assert cb.matrix.entry(i, j) == want_b, (n, k, row_set, col_set)
                assert w.matrix.entry(i, j) == want_a * want_b, (n, k, row_set, col_set)


def test_bordered_minor_matches_direct_submatrix():
    # every entry of both builders against a determinant of the submatrix
    for theorem in ("b0", "ab0", "adb0"):
        for n in range(7):
            for bound in (50, 1):  # bound 1 makes many entries and minors zero
                a, b = random_instance(FuzzPlan(theorem, n, 0, 1, 17 + n, bound), 0)
                _assert_minors_match_submatrices(a, b, det_bareiss)
    # fuzzing's largest k < n steps, and the k = n = 8 steps (size 9, the largest any verb compiles)
    for theorem, (n, ks) in zip(("b0", "ab0", "adb0"), ((7, (3, 4)), (8, (3, 4)), (8, (8,)))):
        for bound in (50, 1):
            a, b = random_instance(FuzzPlan(theorem, n, 0, 1, 17 + n, bound), 0)
            _assert_minors_match_submatrices(a, b, det_bareiss, ks)
    patterns = [frozenset()] + [frozenset({flag}) for flag in sorted(CONSTRAINT_FLAGS)]
    for n in range(4):
        for constraints in patterns:
            a, b, _ = build_generic(GenericSpec(n, constraints))
            _assert_minors_match_submatrices(a, b, brute_force_det)  # at most 4 x 4


def test_k_equals_n_fuzzing_compiles_its_steps_once(monkeypatch):
    # b0 n = k = 8: three trials take the bordered minors of six 9 x 9 matrices, one compile of
    # per-level steps; det takes each 1 x 1 compound by the whole-plan size-1 function, one compile
    builds = []
    level_steps = exactmat._level_steps
    monkeypatch.setattr(exactmat, "_level_steps", lambda *args: builds.append(args[1:]) or level_steps(*args))
    minors = lru_cache(maxsize=64)(exactmat._int_minors.__wrapped__)
    monkeypatch.setattr(exactmat, "_int_minors", minors)
    rep = fuzz_divisibility(FuzzPlan("b0", 8, 8, 3, 1, 50))
    assert rep.passed and rep.passes == 3
    assert builds == [(9, 8)]
    info = minors.cache_info()
    assert (info.misses, info.hits) == (2, 7)


def test_blocked_and_flat_kernels_agree_on_a_real_compound(monkeypatch):
    # b0 n=3 k=2: det W has 31 410 terms over 31 variables and the quotient 2 070
    a, b, _ = build_generic(GenericSpec(3, frozenset({"b_corner_zero"})))
    runs = []
    for threshold in (1, 10**9):  # every product and division blocked, then none
        monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", threshold)
        det_w = det_laplace(compound_minor_products(a, b, 2).matrix)
        det_a = det_laplace(a)
        runs.append((det_w.terms, det_a.terms, exact_div(det_w, det_a).terms))
    blocked, flat = runs
    assert blocked == flat
    assert (len(flat[0]), len(flat[2])) == (31410, 2070)


def test_b0_n3_k2_quotient_keeps_det_w_in_blocks(monkeypatch):
    # at the default threshold the last Laplace level's size bound, 3 products of up to
    # 24 x 952 terms, builds det W in blocks, and nothing in quotient joins it
    a, b, _ = build_generic(GenericSpec(3, THEOREM_CONSTRAINTS["b0"]))
    assert type(det_laplace(compound_minor_products(a, b, 2).matrix)) is polyring._Blocked
    joins = []
    join = polyring._Blocked.terms

    def counting_join(self):
        joins.append(len(self))
        return join.fget(self)

    monkeypatch.setattr(polyring._Blocked, "terms", property(counting_join, join.fset))
    rep = quotient("b0", 3, 2)
    assert rep.divisible and joins == []
    assert (rep.detw_stats.monomials, rep.detw_stats.degree) == (31410, 18)
    assert (rep.quotient_stats.monomials, rep.quotient_stats.degree) == (2070, 14)
    assert rep.detw_stats.content == rep.quotient_stats.content == 1
    # the counter sees a join when there is one, and the joined det W stays in its blocks
    det_w = det_laplace(compound_minor_products(a, b, 2).matrix)
    assert len(det_w.terms) == 31410 and joins == [31410] and type(det_w) is polyring._Blocked
