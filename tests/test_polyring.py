"""Polynomial arithmetic tests.

The independent oracles here are (a) evaluation at random integer points,
which must commute with every ring operation, and (b) an unpacked
exponent-tuple view of monomials, which must order exactly like the packed
integers.  exact_div is validated by recomposition.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
import pickle
import random
from functools import reduce

import pytest

from minordet import polyring
from minordet.polyring import (
    EXPONENT_LIMIT,
    Polynomial,
    PolyStats,
    UniverseMismatch,
    VariableUniverse,
    accumulate_product,
    exact_div,
    sums_of_products,
)

U = VariableUniverse(["x", "y", "z"])
X = Polynomial.variable(U, "x")
Y = Polynomial.variable(U, "y")
Z = Polynomial.variable(U, "z")

# Over twelve variables the first BLOCK_VARS exponents pick a term's block, so
# with BLOCK_MIN_TERMS forced to 1 every product and division is blocked.
U12 = VariableUniverse([f"v{i}" for i in range(12)])
V = [Polynomial.variable(U12, name) for name in U12.names]


def _rand_poly(rng, universe, max_terms=6, max_exp=3, coeff_bound=9):
    p = Polynomial.zero(universe)
    for _ in range(rng.randint(0, max_terms)):
        exps = {name: rng.randint(0, max_exp) for name in universe.names}
        term = Polynomial.constant(universe, rng.randint(-coeff_bound, coeff_bound))
        for name, e in exps.items():
            term = term * Polynomial.variable(universe, name) ** e
        p = p + term
    return p


def _rand_point(rng, universe):
    return {name: rng.randint(-5, 5) for name in universe.names}


def test_constants_and_variables_evaluate():
    assert Polynomial.constant(U, 7).evaluate({}) == 7
    assert Polynomial.zero(U).evaluate({}) == 0
    assert X.evaluate({"x": 11}) == 11
    p = 3 * X**2 * Y - Z + 5
    assert p.evaluate({"x": 2, "y": -1, "z": 4}) == 3 * 4 * (-1) - 4 + 5


def test_evaluate_requires_occurring_variables():
    p = X + Y
    with pytest.raises(ValueError):
        p.evaluate({"x": 1})
    # z does not occur, so it may be omitted
    assert p.evaluate({"x": 1, "y": 2}) == 3


def test_add_mul_commute_with_evaluation():
    rng = random.Random(100)
    for _ in range(300):
        f = _rand_poly(rng, U)
        g = _rand_poly(rng, U)
        pt = _rand_point(rng, U)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f - g).evaluate(pt) == f.evaluate(pt) - g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(101)
    for _ in range(100):
        f = _rand_poly(rng, U)
        g = _rand_poly(rng, U)
        h = _rand_poly(rng, U)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + Polynomial.zero(U) == f
        assert f * Polynomial.one(U) == f
        assert f - f == Polynomial.zero(U)


def test_canonical_form_has_no_zero_artifacts():
    p = 3 * X - 3 * X + 2 * Y
    assert p == 2 * Y
    assert len(p.terms) == 1
    assert (X - X).terms == {}


def test_integer_promotion_in_operators():
    assert X + 0 == X
    assert 1 * X == X
    assert 2 + X == X + 2
    assert (X + 2) - 2 == X
    assert 3 * (X * 2) == 6 * X


def test_pow_matches_repeated_multiplication():
    rng = random.Random(102)
    for _ in range(30):
        f = _rand_poly(rng, U, max_terms=3)
        prod = Polynomial.one(U)
        for e in range(8):
            assert f**e == prod
            prod = prod * f
    with pytest.raises(ValueError):
        X**-1


def test_packed_order_is_lexicographic():
    # oracle: compare unpacked exponent tuples; first variable is most significant
    rng = random.Random(103)
    for _ in range(200):
        f = _rand_poly(rng, U, max_terms=8)
        monomials = list(f.terms)
        by_int = sorted(monomials, reverse=True)
        by_tuple = sorted(monomials, key=U.unpack, reverse=True)
        assert by_int == by_tuple
    # x > y > z in the universe order
    assert max((X + Y).terms) == max(X.terms)
    assert max((Y + Z).terms) == max(Y.terms)
    assert max((X * Y).terms) < max((X**2).terms)


def test_exact_div_roundtrip_random():
    rng = random.Random(104)
    nontrivial = 0
    for _ in range(200):
        d = _rand_poly(rng, U, max_terms=4)
        q = _rand_poly(rng, U, max_terms=4)
        if not d:
            continue
        f = d * q
        got = exact_div(f, d)
        assert got is not None
        assert got == q
        assert d * got == f
        if q:
            nontrivial += 1
    assert nontrivial > 100


def test_exact_div_detects_nondivisibility():
    assert exact_div(X**2 + Y**2, X - Y) is None
    assert exact_div(X + 1, 2 * X + 2 * Y) is None
    # coefficient obstruction: 2x+2y not divisible by 3
    assert exact_div(2 * X + 2 * Y, Polynomial.constant(U, 3)) is None
    # classic exact case
    assert exact_div(X**2 - Y**2, X - Y) == X + Y
    assert exact_div(X**3 - Y**3, X - Y) == X**2 + X * Y + Y**2


def test_exact_div_edge_cases():
    zero = Polynomial.zero(U)
    assert exact_div(zero, X) == zero
    assert exact_div(X, X) == Polynomial.one(U)
    with pytest.raises(ZeroDivisionError):
        exact_div(X, zero)


def test_exact_div_random_nondivisible_never_lies():
    # perturb an exact product by one term; division must refuse or recompose
    rng = random.Random(105)
    for _ in range(100):
        d = _rand_poly(rng, U, max_terms=3)
        q = _rand_poly(rng, U, max_terms=3)
        if not d:
            continue
        f = d * q + X * Y * Z + 1
        got = exact_div(f, d)
        if got is not None:
            assert d * got == f


def test_content_examples_and_zero():
    assert (4 * X**2 + 6 * Y**2).content() == 2
    assert Polynomial.zero(U).content() == 0
    assert Polynomial.constant(U, -6).content() == 6
    assert (X + Y).content() == 1


def test_content_matches_direct_gcd_and_gauss():
    rng = random.Random(106)
    for _ in range(150):
        f = _rand_poly(rng, U)
        g = _rand_poly(rng, U)
        direct = reduce(math.gcd, (abs(c) for c in f.terms.values()), 0)
        assert f.content() == direct
        # Gauss: content is multiplicative over Z
        assert (f * g).content() == f.content() * g.content()


def _degree_by_bytes(p):
    return max((sum(m.to_bytes(p.universe.nvars, "big")) for m in p.terms), default=None)


def _content_by_reduce(p):
    return reduce(math.gcd, map(abs, p.terms.values()), 0)


def test_fast_degree_and_content_match_the_byte_sum_and_reduce_loops():
    rng = random.Random(109)
    polys = [_rand_poly(rng, U) for _ in range(150)] + [_sparse_poly(rng, 8) for _ in range(50)]
    polys += [Polynomial.zero(U), -6 * X**2 * Y + 9 * Z - 15, Polynomial.constant(U, -4)]
    # x^100 y^100 z^100 has degree 300 but its packed monomial is 45 mod 255: the OR's
    # byte sum reaches 255, so the byte-sum loop must decide, here and with lower terms
    wide = X**100 * Y**100 * Z**100
    polys += [wide, -2 * wide + 4 * X**100 * Y**100, X**100 * Y**100 + 6 * Z**100]
    assert next(iter(wide.terms)) % 255 == 45
    for p in polys:
        assert p.total_degree() == _degree_by_bytes(p)
        assert p.content() == _content_by_reduce(p)
    assert [p.total_degree() for p in polys[-3:]] == [300, 300, 200]
    assert (-6 * X**2 * Y + 9 * Z - 15).content() == 3


def test_stats_fields():
    s = (3 * X**2 * Y - Z).stats()
    assert s == PolyStats(monomials=2, degree=3, content=1)
    z = Polynomial.zero(U).stats()
    assert z.monomials == 0 and z.degree is None and z.content == 0
    assert z.to_json_dict() == {"monomials": 0, "content": 0}
    assert s.to_json_dict() == {"monomials": 2, "degree": 3, "content": 1}


def test_only_named_constructors():
    # no public path skips the checks of variable/constant
    with pytest.raises(TypeError):
        Polynomial(U, {})
    with pytest.raises(TypeError):
        Polynomial(U, {1: 1})
    with pytest.raises(TypeError):
        Polynomial()
    # copying and pickling still rebuild through the internal constructor
    p = Polynomial.variable(U, "x") + 3
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p
    assert repr(p) == "<Polynomial 2 terms>"


def test_universe_validation():
    with pytest.raises(ValueError):
        VariableUniverse(["x", "x"])
    with pytest.raises(ValueError):
        VariableUniverse(["1bad"])
    with pytest.raises(ValueError):
        U.index("nope")


def test_universe_mismatch_raises():
    other = VariableUniverse(["a", "b"])
    with pytest.raises(UniverseMismatch):
        X + Polynomial.variable(other, "a")
    with pytest.raises(UniverseMismatch):
        exact_div(X, Polynomial.variable(other, "a"))
    # equal-name universes are interchangeable
    twin = VariableUniverse(["x", "y", "z"])
    assert X + Polynomial.variable(twin, "x") == 2 * X


def test_exponent_overflow_guard():
    big = X ** EXPONENT_LIMIT
    with pytest.raises(OverflowError):
        big * X
    # the edge: exponent 127 fits, 128 does not
    assert (X**64 * X**63).stats().degree == EXPONENT_LIMIT
    with pytest.raises(OverflowError):
        X**64 * X**64
    # exponents add per variable: x^120 y^110 fits, while y^30 * y^100 does not
    assert ((X**100 * Y**10) * (X**20 * Y**100)).stats().degree == 230
    with pytest.raises(OverflowError):
        (X**100 + Y**30) * (X**20 + Y**100)
    # an overflowing product leaves the accumulator as it was
    acc = dict((3 * Y).terms)
    before = dict(acc)
    with pytest.raises(OverflowError):
        accumulate_product(acc, X**64, Polynomial.one(U) + X**64)
    assert acc == before


def test_equality_against_integers():
    assert Polynomial.constant(U, 5) == 5
    assert Polynomial.zero(U) == 0
    assert X != 0
    assert X - X == 0


def _sparse_poly(rng, max_terms, max_exp=2, coeff_bound=5):
    """A random polynomial over U12 whose terms spread over several blocks."""
    p = Polynomial.zero(U12)
    for _ in range(rng.randint(1, max_terms)):
        term = Polynomial.constant(U12, rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c]))
        for v in rng.sample(V, rng.randint(0, 4)):
            term = term * v ** rng.randint(1, max_exp)
        p = p + term
    return p


def _flat_product_terms(pairs):
    acc: dict[int, int] = {}
    for p, q, negate in pairs:
        accumulate_product(acc, p, q, negate)
    return {m: c for m, c in acc.items() if c}


@pytest.fixture
def blocked(monkeypatch):
    """Random multi-block polynomials, built flat, then blocking forced on."""
    rng = random.Random(107)
    polys = [_sparse_poly(rng, 8) for _ in range(60)]
    monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", 1)
    return rng, polys


def test_blocked_products_match_the_flat_loop(blocked):
    rng, polys = blocked
    multi_block = 0
    for _ in range(150):
        f, g, h = rng.sample(polys, 3)
        assert (f * g).terms == _flat_product_terms([(f, g, False)])
        # a sum of products with a negated one, and one whose cross terms cancel
        pairs = [(f, g, False), (h, f, True), (f + g, f - g, False)]
        ps, qs = [p for p, _, _ in pairs], [q for _, q, _ in pairs]
        got = sums_of_products(U12, ps, qs, [((0, 0, False), (1, 1, True), (2, 2, False))])
        assert got[0].terms == _flat_product_terms(pairs)
        pt = {name: rng.randint(-3, 3) for name in U12.names}
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert got[0].evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) - h.evaluate(pt) * f.evaluate(pt) + (
            (f + g).evaluate(pt) * (f - g).evaluate(pt)
        )
        multi_block += len({m >> 8 * (U12.nvars - polyring.BLOCK_VARS) for m in (f * g).terms}) > 1
    assert multi_block > 100


def test_blocked_exact_div_roundtrips_and_never_lies(blocked):
    rng, polys = blocked
    divided = refused = 0
    for _ in range(300):
        d, q = rng.sample(polys, 2)
        f = d * q
        assert exact_div(f, d) == q
        # one perturbing term in a random block, sometimes times d, so that some still divide
        g = f + (d if rng.random() < 0.3 else 1) * _sparse_poly(rng, 1)
        got = exact_div(g, d)
        if got is None:
            refused += 1
        else:
            assert d * got == g
            divided += 1
    assert refused > 150 and divided > 50


def test_blocked_exact_div_refusals(blocked):
    v0, v1, v5, v6 = V[0], V[1], V[5], V[6]
    d = 2 * v0 + v5  # two blocks: key (1, 0, 0, 0) and key 0
    # coefficient obstruction: 3 v0 v6 over the lead 2 v0
    assert exact_div(3 * v0 * v6 + v5 * v6, d) is None
    assert exact_div(4 * v0 * v6 + 2 * v5 * v6, d) == 2 * v6
    # a term left over in a lower block that the divisor's lead cannot reach
    assert exact_div(d * v6 + v1, d) is None
    # (v0 + v5) * v6 puts v5 v6 into block 0, which the dividend v0 v6 does not have
    assert exact_div(v0 * v6, v0 + v5) is None
    assert exact_div(v0 * v6 + v5 * v6, v0 + v5) == v6


def test_blocked_exponent_overflow_still_raises(blocked):
    v0, v5, v6 = V[0], V[5], V[6]
    assert ((v0**63 + v5) * (v0**64 + v6)).stats().degree == EXPONENT_LIMIT
    with pytest.raises(OverflowError):
        (v0**64 + v5) * (v0**64 + v6)
    with pytest.raises(OverflowError):
        sums_of_products(U12, [v5, v0**64 + v6], [v6, v0**64], [((0, 0, False), (1, 1, True))])


def test_exact_div_overflowing_block_product_means_not_divisible(blocked, monkeypatch):
    # deg q + deg d <= EXPONENT_LIMIT in every variable for an exact quotient, so a
    # quotient block whose product with a lower divisor block overflows refuses
    v0, v6 = V[0], V[6]
    d = v0 + v6**100  # lead block v0, lower block v6^100
    assert exact_div(v0 * v6**100, d) is None
    assert exact_div(d * v6**27, d) == v6**27  # v6^127 still fits
    monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", 10**9)  # the flat loop agrees
    assert exact_div(v0 * v6**100, d) is None
    assert exact_div(d * v6**27, d) == v6**27


def test_blocked_exact_div_by_a_single_block_divisor(blocked):
    # every term of d shares the first BLOCK_VARS exponents, so d has no lower block
    rng, polys = blocked
    v0, v1 = V[0], V[1]
    d = v0 * v1 * (V[5] - 2 * V[6] ** 2 + 3)
    assert len({m >> 8 * (U12.nvars - polyring.BLOCK_VARS) for m in d.terms}) == 1
    for q in polys[:20]:
        f = d * q
        assert exact_div(f, d) == q
        assert exact_div(f + V[7], d) is None


def _monomial(universe, exps):
    term = Polynomial.one(universe)
    for name, e in zip(universe.names, exps):
        term = term * Polynomial.variable(universe, name) ** e
    return term


# The b0 universe at n = 4: the 25 entries of A, then those of B but its zero corner.
B0_SIZE = 5
B0 = VariableUniverse(
    [f"a_{i}_{j}" for i in range(1, B0_SIZE + 1) for j in range(1, B0_SIZE + 1)]
    + [f"b_{i}_{j}" for i in range(1, B0_SIZE + 1) for j in range(1, B0_SIZE + 1) if i < B0_SIZE or j < B0_SIZE]
)


def _generic_det_a():
    """det A of the generic 5 x 5 by the Leibniz formula."""
    det = Polynomial.zero(B0)
    for perm in itertools.permutations(range(1, B0_SIZE + 1)):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        term = Polynomial.constant(B0, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm, 1):
            term = term * Polynomial.variable(B0, f"a_{i}_{j}")
        det = det + term
    return det


def test_exact_div_by_generic_det_a_in_blocks():
    d = _generic_det_a()
    shift = 8 * (B0.nvars - polyring.BLOCK_VARS)
    d_blocks = sorted({m >> shift for m in d.terms}, reverse=True)
    assert len(d.terms) == 120 and len(d_blocks) == 5
    assert sum(m >> shift == d_blocks[0] for m in d.terms) == 24  # the a_1_1 terms
    rng = random.Random(108)
    a_vars = [Polynomial.variable(B0, name) for name in B0.names[: B0_SIZE * B0_SIZE]]
    q = Polynomial.zero(B0)
    while len(q.terms) < 300:
        term = Polynomial.constant(B0, rng.choice([c for c in range(-9, 10) if c]))
        for v in rng.sample(a_vars, rng.randint(1, 4)):
            term = term * v ** rng.randint(1, 2)
        q = q + term
    f = d * q
    assert len(f.terms) >= polyring.BLOCK_MIN_TERMS  # the blocked path, at its own threshold
    assert exact_div(f, d) == q
    # one extra term of f's own monomials: in a lower block whose key does not borrow
    # from d's lead key, and in one whose key does (no a_1_1), is refused
    lead_key = d_blocks[0]
    guard = B0._guard_mask >> shift
    f_keys = sorted({m >> shift for m in f.terms}, reverse=True)
    lower = next(k for k in f_keys[1:] if not (k - lead_key) & guard and k >= lead_key)
    borrowing = next(k for k in f_keys if k < lead_key or (k - lead_key) & guard)
    for key in (lower, borrowing):
        m = next(m for m in f.terms if m >> shift == key)
        assert exact_div(f + _monomial(B0, B0.unpack(m)), d) is None
        assert exact_div(f - 3 * _monomial(B0, B0.unpack(m)), d) is None


def _in_blocks(p):
    """p as a blocked product (p times 1), built through sums_of_products."""
    return sums_of_products(p.universe, [p], [Polynomial.one(p.universe)], [((0, 0, False),)])[0]


def test_one_term_products_match_the_flat_loop(blocked):
    # one __mul__: a monomial times a flat operand in one pass, every other product,
    # an int or a blocked operand among them, through sums_of_products
    rng, polys = blocked
    big = reduce(lambda x, y: x + y, polys)
    assert len({m >> 8 * (U12.nvars - polyring.BLOCK_VARS) for m in big.terms}) > 1
    blocked_big = _in_blocks(big)
    blocks = list(polyring._TERMS.__get__(blocked_big))
    for one in (-3 * V[0] * V[7] ** 2, Polynomial.constant(U12, 5), V[11] ** 63, 3, 0, polys[0] - polys[1]):
        want = _flat_product_terms([(Polynomial.constant(U12, one) if isinstance(one, int) else one, big, False)])
        products = [one * big, big * one, one * blocked_big, blocked_big * one]
        assert [p.terms for p in products] == [want] * 4
        assert [type(p) for p in products[2:]] == [polyring._Blocked] * 2
    assert type(blocked_big) is polyring._Blocked and polyring._TERMS.__get__(blocked_big) == blocks
    # a monomial times a flat operand of BLOCK_MIN_TERMS terms or more stays flat, even here
    p = reduce(lambda x, y: x + y, (V[0] ** (i // 8 + 1) * V[1] ** (i % 8 + 1) for i in range(64)))
    q = reduce(lambda x, y: x + y, (V[6] ** (i // 8 + 1) * V[7] ** (i % 8 + 1) for i in range(64)))
    wide = Polynomial._from_clean(U12, _flat_product_terms([(p, q, False)]))
    assert len(wide.terms) == 4096
    mono = -3 * V[2] * V[9] ** 2
    for got in (mono * wide, wide * mono):
        assert type(got) is Polynomial and got.terms == _flat_product_terms([(mono, wide, False)])
    for high in (V[0] ** 64 + V[5], _in_blocks(V[0] ** 64 + V[5])):
        with pytest.raises(OverflowError):
            V[0] ** 64 * high
        with pytest.raises(OverflowError):
            high * V[0] ** 64


def test_blocked_product_keeps_its_blocks_when_terms_is_read(blocked, monkeypatch):
    rng, polys = blocked
    several = [p for p in polys if len(p.terms) > 1]  # a one-term factor takes the one-pass product
    pairs = [rng.sample(several, 2) for _ in range(40)]
    products = [f * g for f, g in pairs]
    zero = sums_of_products(U12, [V[0]], [V[5]], [((0, 0, False), (0, 0, True))])[0]  # v0 v5 - v0 v5
    assert all(type(p) is polyring._Blocked for p in products + [zero])
    assert all(products) and not zero
    assert all(type(p) is polyring._Blocked for p in products + [zero])  # bool did not join
    assert exact_div(zero, V[1]) == 0 and type(zero) is polyring._Blocked
    assert zero.terms == {}
    monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", 10**9)
    joins = []
    join = polyring._Blocked.terms
    monkeypatch.setattr(polyring._Blocked, "terms", property(lambda p: joins.append(p) or join.fget(p), join.fset))
    for p, (f, g) in zip(products, pairs):
        blocks = list(polyring._TERMS.__get__(p))
        first = p.terms
        assert first == p.terms == (f * g).terms == _flat_product_terms([(f, g, False)])
        assert first is not p.terms  # a new map on each read
        assert type(p) is polyring._Blocked and polyring._TERMS.__get__(p) == blocks
        joins.clear()
        assert exact_div(p, g) == f and joins == []  # it still takes the blocks
    # a product of blocked operands takes their blocks as they are
    f, g, h = (several[0] + several[1]) * several[2], several[3] * several[4], several[5]
    monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", 1)
    bf, bg = (several[0] + several[1]) * several[2], several[3] * several[4]
    got = sums_of_products(U12, [bf, h], [bg, bf], [((0, 0, False), (1, 1, True))])[0]
    assert type(bf) is type(bg) is type(got) is polyring._Blocked
    assert got.terms == _flat_product_terms([(f, g, False), (h, f, True)])


def test_exact_div_by_a_blocked_divisor_matches_the_flat_path(blocked, monkeypatch):
    # a blocked divisor puts the division in blocks, even under a small flat dividend
    rng, polys = blocked
    several = [p for p in polys if len(p.terms) > 1]
    cases = []
    for _ in range(20):
        p, q, r = rng.sample(several, 3)
        d, f = p * q, p * q * r
        assert type(d) is type(f) is polyring._Blocked
        cases.append((d, f, r))
    monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", 10**9)

    def flat(x):
        return Polynomial._from_clean(U12, x.terms)

    for d, f, r in cases:
        flat_d, flat_f = flat(d), flat(f)
        assert exact_div(flat_d, d) == 1 and exact_div(flat_f, d) == r and exact_div(f, d) == r
        for dividend in (flat_d, flat_f, flat_f + V[0], f, f * V[5]):
            got, want = exact_div(dividend, d), exact_div(flat(dividend), flat_d)
            assert (got is None) == (want is None) and (got is None or got.terms == want.terms)
        assert exact_div(flat_f + V[0], d) is None
        assert type(d) is polyring._Blocked


def test_unjoined_blocked_product_pickles_copies_and_queries(blocked):
    rng, polys = blocked
    f, g = polys[0] + polys[1], polys[2] - polys[3]
    flat = Polynomial._from_clean(U12, _flat_product_terms([(f, g, False)]))
    assert len({m >> 8 * (U12.nvars - polyring.BLOCK_VARS) for m in flat.terms}) > 1
    pt = {name: rng.randint(-3, 3) for name in U12.names}
    for use, want in (
        (lambda p: pickle.loads(pickle.dumps(p)), flat),
        (copy.deepcopy, flat),
        (copy.copy, flat),
        (Polynomial.stats, flat.stats()),
        (lambda p: p.evaluate(pt), flat.evaluate(pt)),
        (lambda p: p == flat, True),
    ):
        p = f * g
        assert type(p) is polyring._Blocked
        assert use(p) == want
        assert p.terms == flat.terms


def test_exact_div_takes_a_blocked_dividend_without_joining_it(blocked):
    rng, polys = blocked
    several = [p for p in polys if len(p.terms) > 1]
    for _ in range(20):
        d, q = rng.sample(several, 2)
        f = d * q
        assert type(f) is polyring._Blocked
        assert exact_div(f, d) == q
        assert exact_div(f, d) == q  # the remainder was a copy of f's blocks
        assert type(f) is polyring._Blocked  # neither split nor joined
        assert f.terms == _flat_product_terms([(d, q, False)])


def test_exact_div_side_heap_holds_keys_the_subtraction_adds(monkeypatch):
    # dividing x^2 - y^2 by x + y subtracts x (x + y), which adds x y, a key x^2 - y^2
    # lacks: the sorted walk reaches it only through the side heap
    pushed = []
    monkeypatch.setattr(polyring, "heappush", lambda heap, key: (pushed.append(-key), heapq.heappush(heap, key)))
    f = X**2 - Y**2
    assert (X * Y).terms.keys() - f.terms.keys()
    assert exact_div(f, X + Y) == X - Y
    assert pushed == [next(iter((X * Y).terms))]
    # 2 x^2 over 2 x + y: subtracting x (2 x + y) adds -x y, whose coefficient 2 does not divide
    pushed.clear()
    assert exact_div(2 * X**2, 2 * X + Y) is None
    assert pushed == [next(iter((X * Y).terms))]
    assert exact_div(X**2 + X * Z, X + Y) is None  # refused at y^2, a key the walk added
    assert exact_div(X**3 - Y**3, X - Y) == X**2 + X * Y + Y**2


def test_blocked_exact_div_walks_past_zeros_a_lower_block_product_left(blocked, monkeypatch):
    v0, v5, v6, v7 = V[0], V[5], V[6], V[7]
    d = v0 * v6 + v0 * v7 + v5  # lead block v0 (v6 + v7), lower block v5
    # q's v0 v6 v7, times v5, cancels f's v0 v5 v6 v7 to a zero in the v0 block, before
    # that block is sorted; subtracting v5 v6 times v0 v7 there brings it back as -1,
    # from which the walk takes q's -v5 v7
    q = v0 * v6 * v7 + v5 * v6 - v5 * v7
    f = d * q
    assert (v0 * v5 * v6 * v7).terms.keys() <= f.terms.keys()
    for threshold in (1, 10**9):  # blocked, then the flat loop
        monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", threshold)
        assert exact_div(f, d) == q
        assert exact_div(f + v0 * v5 * v7, d) is None
        assert exact_div(f - v5**2, d) is None
    # zeros left in a block that nothing brings back are never walked
    monkeypatch.setattr(polyring, "BLOCK_MIN_TERMS", 1)
    q = v0 + v6
    assert exact_div(d * q, d) == q


def test_blocked_product_stays_blocked_under_monomials_comparison_and_stats(blocked):
    rng, polys = blocked
    f, g = polys[0] + polys[1], polys[2] - polys[3]
    flat = Polynomial._from_clean(U12, _flat_product_terms([(f, g, False)]))
    keys = {m >> 8 * (U12.nvars - polyring.BLOCK_VARS) for m in flat.terms}
    assert len(keys) > 1
    p, twin = f * g, f * g
    # one block changed: a term of p's own doubled, so the block keys stay the same
    m, c = next(iter(flat.terms.items()))
    term = Polynomial._from_clean(U12, {m: c})
    changed = sums_of_products(U12, [f, term], [g, Polynomial.one(U12)], [((0, 0, False), (1, 1, False))])[0]
    zero = sums_of_products(U12, [f], [g], [((0, 0, False), (0, 0, True))])[0]
    blocked = [p, twin, changed, zero]
    assert all(type(x) is polyring._Blocked for x in blocked)
    assert {k for k, _ in polyring._TERMS.__get__(changed)} == keys
    mono = -3 * V[2] * V[9] ** 2
    for one in (mono, Polynomial.constant(U12, 7), 7, -1):
        for got in (p * one, one * p):
            assert type(got) is polyring._Blocked
            assert got == flat * one and flat * one == got
    assert type(p * 0) is polyring._Blocked and p * 0 == 0 and not p * 0
    assert p == twin and twin == p and p == flat and flat == p
    assert p != changed and changed != p and flat != changed and changed != flat
    assert p != flat + V[0] and flat + V[0] != p
    assert p != 0 and zero == 0 and zero == Polynomial.zero(U12) and p != Polynomial.constant(U12, c)
    assert p != _in_blocks(g) and p != Polynomial.variable(VariableUniverse(["x"]), "x")
    assert bool(p) and not zero
    assert p.stats() == flat.stats() and zero.stats() == Polynomial.zero(U12).stats()
    assert (p.total_degree(), p.content()) == (_degree_by_bytes(flat), _content_by_reduce(flat))
    mixed = _in_blocks(6 * V[0] * V[9] - 4 * V[1])  # two blocks, of content 6 and 4
    assert len(polyring._TERMS.__get__(mixed)) == 2 and mixed.content() == 2
    assert len(p) == len(flat.terms) and repr(p) == repr(flat)
    assert all(type(x) is polyring._Blocked for x in blocked)  # none of the above joined
    assert changed.terms == {**flat.terms, m: 2 * c}


def test_blocking_follows_the_product_size_bound():
    # at the real threshold: max |p| * max |q| against BLOCK_MIN_TERMS, however many
    # products each sum adds
    assert polyring.BLOCK_MIN_TERMS == 4096
    p = reduce(lambda x, y: x + y, (V[i % 4] ** (i // 4 + 1) * V[4 + i % 8] for i in range(64)))
    q = reduce(lambda x, y: x + y, (V[8 + i % 4] ** (i // 4 + 1) for i in range(32)))
    assert (len(p.terms), len(q.terms)) == (64, 32)
    ps, qs = [p, p + V[11]], [q, q - 2]
    one, two = [((0, 0, False),), ((1, 1, True),)], [((0, 0, False), (1, 1, True))]
    flat = sums_of_products(U12, ps, qs, one) + sums_of_products(U12, ps, qs, two)  # 65 * 33 < 4 096
    assert [type(x) for x in flat] == [Polynomial] * 3
    assert flat[2].terms == _flat_product_terms([(p, q, False), (p + V[11], q - 2, True)])
    summed = sums_of_products(U12, ps, [p, p - 2], two)[0]  # 65 * 65 >= 4 096
    assert type(summed) is polyring._Blocked
    assert summed.terms == _flat_product_terms([(p, p, False), (p + V[11], p - 2, True)])
    assert type(p * q) is Polynomial and type(p * p) is polyring._Blocked  # 64 * 32 and 64 * 64
    assert (p * p).terms == _flat_product_terms([(p, p, False)])


def test_sums_of_products_releases_each_q_after_its_last_product():
    # in blocks, qs[j] is set to None after the last triple that reads it: p, which both sums
    # read, survives the first, and the sums are those of the flat loop
    p = reduce(lambda x, y: x + y, (V[i % 4] ** (i // 4 + 1) * V[4 + i % 8] for i in range(64)))
    ps, qs = [p, p + V[11]], [p, p - 2]
    got = sums_of_products(U12, ps, qs, [((0, 0, False), (1, 1, True)), ((1, 0, False),)])  # 65 * 65 >= 4 096
    assert [type(x) for x in got] == [polyring._Blocked] * 2
    assert [x.terms for x in got] == [
        _flat_product_terms([(p, p, False), (p + V[11], p - 2, True)]),
        _flat_product_terms([(p + V[11], p, False)]),
    ]
    assert qs == [None, None] and ps[0] is p
