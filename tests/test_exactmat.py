"""Matrix layer tests.

brute_force_det (the signed permutation sum) is the determinant oracle; the
polynomial paths are additionally cross-checked through evaluation at random
integer points, which must commute with det.
"""

from __future__ import annotations

import random

import pytest

from minordet.exactmat import (
    BRUTE_FORCE_CAP,
    LAPLACE_PLAN_CACHE_CAP,
    MatrixExpr,
    _expansion_plan,
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
    # above the cap, det_laplace builds its size * 2^(size-1) index pairs per call and caches none
    size = LAPLACE_PLAN_CACHE_CAP + 4
    big = _rand_int_matrix(random.Random(207), size, size)
    before = _expansion_plan.cache_info()
    assert det_laplace(big) == det_bareiss(big)
    assert _expansion_plan.cache_info() == before


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
