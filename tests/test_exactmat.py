"""Matrix layer tests.

brute_force_det (the signed permutation sum) is the determinant oracle; the
polynomial paths are additionally cross-checked through evaluation at random
integer points, which must commute with det.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations
from math import isqrt

import pytest

from minordet import exactmat, polyring
from minordet.exactmat import (
    BRUTE_FORCE_CAP,
    MOD_DET_MIN_ROWS,
    WHOLE_PLAN_MAX_PRODUCTS,
    MatrixExpr,
    _expansion_plan,
    _int_minors,
    _level_steps,
    _whole_plan,
    _xgcd,
    bordered_minors,
    brute_force_det,
    det_bareiss,
    det_laplace,
    det_mod,
    evaluate_matrix,
    matmul,
    submatrix,
)
from minordet.polyring import Polynomial, VariableUniverse


def _rand_int_matrix(rng, n, m, bound=9):
    return MatrixExpr(n, m, [rng.randint(-bound, bound) for _ in range(n * m)])


def _transpose(a):
    ent = [a.entries[r * a.cols + c] for c in range(a.cols) for r in range(a.rows)]
    return MatrixExpr(a.cols, a.rows, ent, a.universe)


def _generic(n, letter="m"):
    names = [f"{letter}_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    u = VariableUniverse(names)
    ent = [Polynomial.variable(u, nm) for nm in names]
    return MatrixExpr(n, n, ent, u), u


def test_matrix_construction_and_entry():
    a = MatrixExpr.from_rows([[1, 2], [3, 4]])
    assert a.rows == 2 and a.cols == 2 and a.universe is None
    assert a.entry(1, 2) == 2 and a.entry(2, 1) == 3
    with pytest.raises(ValueError):
        a.entry(0, 1)
    with pytest.raises(ValueError):
        a.entry(1, 3)
    with pytest.raises(ValueError):
        MatrixExpr(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        MatrixExpr(-1, 2, [])
    with pytest.raises(ValueError):
        MatrixExpr.from_rows([[1, 2], [3]])
    z = MatrixExpr(0, 3, [])
    assert z.row_list() == []


def test_entry_kind_promotion_rules():
    # no promotion: a polynomial matrix holds polynomials only, literals 0 and 1 included
    u = VariableUniverse(["x"])
    x = Polynomial.variable(u, "x")
    a = MatrixExpr.from_rows([[x, Polynomial.one(u)], [Polynomial.zero(u), x]])
    assert a.universe is u and a.entry(1, 2) == 1
    for rows in ([[x, 1], [0, x]], [[0, x]], [[x, 2]]):
        with pytest.raises(ValueError):
            MatrixExpr.from_rows(rows)
    with pytest.raises(ValueError):
        MatrixExpr.from_rows([[1, 0]], universe=u)
    with pytest.raises(ValueError):
        MatrixExpr.from_rows([[1, "2"]])
    other = VariableUniverse(["y"])
    with pytest.raises(ValueError):
        MatrixExpr.from_rows([[x, Polynomial.variable(other, "y")]])


def test_transpose_and_submatrix():
    a = MatrixExpr.from_rows([[1, 2, 3], [4, 5, 6]])
    t = _transpose(a)
    assert t.rows == 3 and t.cols == 2
    assert t.row_list() == [[1, 4], [2, 5], [3, 6]]
    s = submatrix(a, (1, 2), (1, 3))
    assert s.row_list() == [[1, 3], [4, 6]]
    s2 = submatrix(a, (2,), range(2, 3))
    assert s2.row_list() == [[5]]
    with pytest.raises(ValueError):
        submatrix(a, (2, 1), (1,))
    with pytest.raises(ValueError):
        submatrix(a, (1,), (1, 1))
    with pytest.raises(ValueError):
        submatrix(a, (0,), (1,))
    with pytest.raises(ValueError):
        submatrix(a, (1,), (4,))
    empty = submatrix(a, (), ())
    assert empty.rows == 0 and empty.cols == 0


def test_matmul_int_against_naive():
    rng = random.Random(201)
    for _ in range(40):
        n, p, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = _rand_int_matrix(rng, n, p)
        b = _rand_int_matrix(rng, p, m)
        prod = matmul(a, b)
        assert prod.rows == n and prod.cols == m
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                want = sum(a.entry(i, t) * b.entry(t, j) for t in range(1, p + 1))
                assert prod.entry(i, j) == want
    with pytest.raises(ValueError):
        matmul(_rand_int_matrix(rng, 2, 3), _rand_int_matrix(rng, 2, 3))


def test_matmul_identity_and_kind_mixing():
    rng = random.Random(202)
    a = _rand_int_matrix(rng, 3, 3)
    assert matmul(a, MatrixExpr.identity(3)) == a
    assert matmul(MatrixExpr.identity(3), a) == a
    g, _ = _generic(2)
    with pytest.raises(ValueError):
        matmul(g, a)


def test_det_known_values():
    assert det_laplace(MatrixExpr(0, 0, [])) == 1
    assert det_bareiss(MatrixExpr(0, 0, [])) == 1
    assert brute_force_det(MatrixExpr(0, 0, [])) == 1
    assert det_laplace(MatrixExpr.from_rows([[7]])) == 7
    assert det_laplace(MatrixExpr.from_rows([[1, 2], [3, 4]])) == -2
    assert det_bareiss(MatrixExpr.from_rows([[1, 2], [3, 4]])) == -2
    vander = MatrixExpr.from_rows([[1, 1, 1], [2, 3, 5], [4, 9, 25]])
    # Vandermonde on 2, 3, 5: (3-2)(5-2)(5-3) = 6
    assert det_laplace(vander) == 6
    assert det_bareiss(vander) == 6
    assert brute_force_det(vander) == 6
    assert det_laplace(MatrixExpr.identity(5)) == 1
    with pytest.raises(ValueError):
        det_laplace(MatrixExpr(2, 3, [0] * 6))
    # det_laplace compiles the plan of an integer size once and keeps it: a second 12 x 12
    # matrix takes the same compiled function from the cache
    rng = random.Random(207)
    big, other = (_rand_int_matrix(rng, 12, 12) for _ in range(2))
    assert det_laplace(big) == det_bareiss(big)
    before = _int_minors.cache_info()
    assert det_laplace(other) == det_bareiss(other)
    after = _int_minors.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_whole_plan_and_level_steps_give_the_same_minors(monkeypatch):
    # both compiled forms of every plan up to size 8, on the same matrices; up to size 5 also
    # against the permutation sum of each bordered submatrix, which shares no code with either
    rng = random.Random(208)
    for size in range(1, 9):
        for k in range(size):
            plan = _expansion_plan(size, k)
            whole, levels = _whole_plan(plan, size, k), _level_steps(plan, size, k)
            for bound in (50, 1, 50):  # bound 1 makes many minors zero
                a = _rand_int_matrix(rng, size, size, bound)
                minors = whole(a.entries)
                assert minors == levels(a.entries)
                if size <= 5:
                    family = [s + (size,) for s in combinations(range(1, size), k)]
                    assert minors == [brute_force_det(submatrix(a, i, j)) for i in family for j in family]
    # so are the polynomial minors of a generic matrix, flat and with every product in blocks, where
    # each step releases the list of minors below that it reads last, though several suffixes read it
    for size in range(1, 6):
        g, _ = _generic(size)
        for k in range(size):
            family = [s + (size,) for s in combinations(range(1, size), k)]
            want = [brute_force_det(submatrix(g, i, j)) for i in family for j in family]
            for threshold in (polyring.BLOCK_MIN_TERMS, 1):
                monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", threshold)
                assert bordered_minors(g, k) == want
            monkeypatch.undo()


def test_whole_plan_product_bound(monkeypatch):
    # n = 5, k = 2 has 426 products: at the bound it compiles whole, one above it per level
    build = _int_minors.__wrapped__
    for bound, per_level in ((426, False), (425, True)):
        monkeypatch.setattr(exactmat, "WHOLE_PLAN_MAX_PRODUCTS", bound)
        assert isinstance(build(6, 2), partial) is per_level
    monkeypatch.undo()
    # at 512: k = n plans up to size 7 (448 products) whole, size 8 (1 024) and (7, 2) (892) not
    assert WHOLE_PLAN_MAX_PRODUCTS == 512
    for size, k, per_level in ((7, 6, False), (8, 7, True), (7, 2, True), (9, 4, True)):
        assert isinstance(build(size, k), partial) is per_level
    # det takes det_laplace exactly where its k = n plan compiles whole, and polynomials
    taken = []
    monkeypatch.setattr(exactmat, "det_laplace", lambda a: taken.append(("laplace", a.rows)))
    monkeypatch.setattr(exactmat, "det_bareiss", lambda a: taken.append(("bareiss", a.rows)))
    for size in range(10):
        exactmat.det(MatrixExpr.identity(size))
    exactmat.det(_generic(8)[0])
    assert taken == [("laplace", s) for s in range(8)] + [("bareiss", 8), ("bareiss", 9), ("laplace", 8)]
    # divides_det takes det_mod mod |d| from MOD_DET_MIN_ROWS rows when d != 0, det below it and for d = 0
    assert 10 < MOD_DET_MIN_ROWS <= 20
    taken.clear()
    monkeypatch.setattr(exactmat, "det", lambda a: taken.append(("det", a.rows)) or 0)
    monkeypatch.setattr(exactmat, "det_mod", lambda a, m: taken.append(("det_mod", a.rows, m)) or 0)
    for rows in (MOD_DET_MIN_ROWS - 1, MOD_DET_MIN_ROWS, 70):
        for d in (-6, 0, 7):
            assert exactmat.divides_det(d, MatrixExpr.identity(rows))
    below, at = MOD_DET_MIN_ROWS - 1, MOD_DET_MIN_ROWS
    assert taken == [("det", below)] * 3 + [
        ("det_mod", at, 6), ("det", at), ("det_mod", at, 7), ("det_mod", 70, 6), ("det", 70), ("det_mod", 70, 7)
    ]


def test_det_three_way_agreement_random():
    rng = random.Random(204)
    for draw in range(120):
        n = rng.randint(0, 7)
        a = _rand_int_matrix(rng, n, n, bound=1 if draw % 2 else 9)  # bound 1: many zeros
        reference = brute_force_det(a)
        assert det_laplace(a) == reference
        assert det_bareiss(a) == reference


def test_det_multiplicative_and_transpose_invariant():
    rng = random.Random(205)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = _rand_int_matrix(rng, n, n)
        b = _rand_int_matrix(rng, n, n)
        assert det_bareiss(matmul(a, b)) == det_bareiss(a) * det_bareiss(b)
        assert det_bareiss(_transpose(a)) == det_bareiss(a)


def test_det_bareiss_pivoting_paths():
    # zero leading pivot forces a row swap
    a = MatrixExpr.from_rows([[0, 1, 2], [3, 0, 1], [1, 1, 0]])
    assert det_bareiss(a) == brute_force_det(a)
    perm = MatrixExpr.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert det_bareiss(perm) == 1
    swap = MatrixExpr.from_rows([[0, 1], [1, 0]])
    assert det_bareiss(swap) == -1
    # structurally singular: no pivot available in the first column block
    sing = MatrixExpr.from_rows([[0, 5, 7], [0, 1, 2], [0, 3, 4]])
    assert det_bareiss(sing) == 0
    dup = MatrixExpr.from_rows([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
    assert det_bareiss(dup) == 0
    assert det_laplace(dup) == 0


def test_det_mod_matches_bareiss_remainder():
    rng = random.Random(208)
    for draw in range(800):
        n = rng.randint(0, 8)
        a = _rand_int_matrix(rng, n, n, bound=(1, 2, 5, 50)[draw % 4])
        det = det_bareiss(a)
        moduli = [
            1, 2, 4, 6, 12, 36,
            2 ** rng.randint(1, 40),
            6 ** rng.randint(1, 15),
            abs(det) or 1,
            rng.randint(1, 10**6),
            rng.randrange(1, 2**100),
        ]
        for m in moduli:
            assert det_mod(a, m) == det % m, (a.row_list(), m)


def test_det_mod_without_a_unit_pivot():
    # no entry of the first column is a unit mod these m, and no entry's gcd with m
    # divides both others' (4, 6 and 9 for m = 36), so the column takes 2 x 2 steps
    a = MatrixExpr.from_rows([[4, 1, 2], [6, 5, 3], [9, 7, 11]])
    for m in (12, 36, 2**10 * 3**5):
        assert det_mod(a, m) == det_bareiss(a) % m
    zero_column = MatrixExpr.from_rows([[0, 1], [0, 2]])
    assert det_mod(zero_column, 12) == 0
    # the 0 x 0 determinant is 1, which is 0 mod 1
    assert det_mod(MatrixExpr(0, 0, []), 1) == 0
    assert det_mod(MatrixExpr(0, 0, []), 5) == 1
    with pytest.raises(ValueError):
        det_mod(MatrixExpr.identity(2), 0)
    with pytest.raises(ValueError):
        det_mod(MatrixExpr(2, 3, [0] * 6), 5)
    g, _ = _generic(2)
    with pytest.raises(TypeError):
        det_mod(g, 5)


def test_det_mod_at_oracle_sizes():
    # 16 to 40 rows, where a row's packed slots carry the most; moduli shaped like
    # the oracle's d = det A * det B, 2^a 3^b, a prime and 1
    rng = random.Random(1409)
    prime = 2**61 - 1
    for n in (16, 23, 31, 40):
        a = _rand_int_matrix(rng, n, n, bound=50)
        d = abs(det_bareiss(_rand_int_matrix(rng, 8, 8, 50)) * det_bareiss(_rand_int_matrix(rng, 8, 8, 50)))
        det = det_bareiss(a)
        for m in (d or 1, 2 ** rng.randint(1, 60) * 3 ** rng.randint(1, 30), prime, 1):
            assert det_mod(a, m) == det % m, (n, m)
    # singular mod 2 and 3, each a factor of m: the first column has no unit, its
    # entries' 2- and 3-adic valuations differ, so the 2 x 2 step runs
    for n in (16, 29):
        rows = [
            [6 ** rng.randint(1, 3) * rng.randint(1, 50)] + [rng.randint(-50, 50) for _ in range(n - 1)]
            for _ in range(n)
        ]
        rows[-1] = [x + 2 * y - 3 * z for x, y, z in zip(rows[0], rows[1], rows[2])]
        a = MatrixExpr.from_rows(rows)
        det = det_bareiss(a)
        for m in (2**40 * 3**20, 6 * prime, 2**7 * 3**3 * 5):
            assert det_mod(a, m) == det % m, (n, m)
    # every entry m - 1 off a unit diagonal: each slot takes the most additions
    for n, m in ((24, 2**64 - 59), (40, 6**30), (40, 5)):
        a = MatrixExpr(n, n, [1 if r == c else m - 1 for r in range(n) for c in range(n)])
        assert det_mod(a, m) == det_bareiss(a) % m, (n, m)


def test_det_mod_reduction_at_its_edges(monkeypatch):
    # det_mod reduces a row's even and odd slots apart, so odd and even row counts;
    # the smallest moduli and moduli at the slot width's byte boundaries
    rng = random.Random(2301)
    for m in (1, 2, 3, 2**8 - 1, 2**8, 2**8 + 1, 2**32 + 1, 2**64 - 59):
        for n in (1, 2, 3, 16, 17):
            drawn = _rand_int_matrix(rng, n, n, bound=3 * m)
            # m - 1 everywhere off a unit diagonal, and the same above it with 0
            # below it: there every update adds m (m - 1) to each slot, the most
            # one update can, so the last slots reach about n m^2
            full = MatrixExpr(n, n, [1 if r == c else m - 1 for r in range(n) for c in range(n)])
            upper = MatrixExpr(n, n, [1 if r == c else (m - 1) * (c > r) for r in range(n) for c in range(n)])
            for a in (drawn, full, upper):
                assert det_mod(a, m) == det_bareiss(a) % m, (a.row_list(), m)
    # no unit in the first column and gcds 4, 6 and 9 with m: the 2 x 2 step runs,
    # at odd row counts, and reduces rows whose slots it has grown to under 2 m^2
    xgcd_calls = []
    monkeypatch.setattr(exactmat, "_xgcd", lambda a, b: xgcd_calls.append(1) or _xgcd(a, b))
    for n in (3, 17):
        for m in (36, 2**8 * 3**5, 2**64 * 3**40):
            rows = [
                [(4, 6, 9)[r % 3] * rng.choice((1, 5, 7, 11))] + [rng.randint(-m, m) for _ in range(n - 1)]
                for r in range(n)
            ]
            a = MatrixExpr.from_rows(rows)
            assert det_mod(a, m) == det_bareiss(a) % m, (n, m)
    assert len(xgcd_calls) >= 6
    # for each slot width of 1 to 8 bytes the largest m it holds, (2n + 2) m^2 < 2^(8w): the
    # max-growth matrices above, and the first of them with a column of 2s and 3s, no unit mod
    # the largest multiple of 6 below that m, so that the 2 x 2 step runs
    for w in range(1, 9):
        for n in (2, 3, 16, 17):
            m = isqrt(((1 << 8 * w) - 1) // (2 * n + 2))
            full = MatrixExpr(n, n, [1 if r == c else m - 1 for r in range(n) for c in range(n)])
            upper = MatrixExpr(n, n, [1 if r == c else (m - 1) * (c > r) for r in range(n) for c in range(n)])
            for a in (full, upper):
                assert det_mod(a, m) == det_bareiss(a) % m, (w, n, m)
            m -= m % 6
            if m:
                calls = len(xgcd_calls)
                a = MatrixExpr.from_rows([[(2, 3)[r % 2]] + row[1:] for r, row in enumerate(full.row_list())])
                assert det_mod(a, m) == det_bareiss(a) % m, (w, n, m)
                assert len(xgcd_calls) > calls


def test_det_bareiss_rejects_polynomials():
    g, _ = _generic(2)
    with pytest.raises(TypeError):
        det_bareiss(g)


def test_brute_force_cap():
    big = MatrixExpr.identity(BRUTE_FORCE_CAP + 1)
    with pytest.raises(ValueError):
        brute_force_det(big)


def test_det_poly_against_permutation_sum():
    for n in range(6):
        g, _ = _generic(n)
        assert det_laplace(g) == brute_force_det(g)


def test_det_poly_commutes_with_evaluation():
    rng = random.Random(206)
    g, u = _generic(4)
    d = det_laplace(g)
    for _ in range(20):
        pt = {name: rng.randint(-6, 6) for name in u.names}
        assert d.evaluate(pt) == det_bareiss(evaluate_matrix(g, pt))


def test_evaluate_matrix_requires_poly_kind():
    a = MatrixExpr.identity(2)
    with pytest.raises(TypeError):
        evaluate_matrix(a, {})
