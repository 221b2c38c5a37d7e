"""The symbolic tier against an oracle that shares no arithmetic with minordet.

Here a polynomial is a dict from exponent tuples to nonzero ints, and every
determinant is a sum over permutations.  minordet's polynomials are read only
as plain data: each packed monomial is decoded with `int.to_bytes`, one byte
per variable, once its universe is shown to list this file's variables in
this file's order.  The hypotheses are restated too: b0 zeroes B's corner and
forces det A, ab0 zeroes both corners and forces det A * det B.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import pytest

from minordet.identities import (
    THEOREM_CONSTRAINTS,
    GenericSpec,
    _single_generic,
    build_generic,
    franke_identity,
    power_identity,
    symbolic_quotient,
)

ZERO_CORNERS = {"b0": "b", "ab0": "ab"}


def _add(p, q):
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def _mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def _pow(p, e, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(e):
        out = _mul(out, p)
    return out


def _det(rows, nvars):
    total = {}
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = {(0,) * nvars: -1 if inversions % 2 else 1}
        for i, j in enumerate(perm):
            term = _mul(term, rows[i][j])
        total = _add(total, term)
    return total


def _generic(n, letters, zero_corners=""):
    """Variable names x_i_j (1-based, row-major, letter by letter) and one matrix per letter."""
    size = n + 1
    names = [
        f"{x}_{i}_{j}"
        for x in letters
        for i in range(1, size + 1)
        for j in range(1, size + 1)
        if not (x in zero_corners and i == j == size)
    ]

    def entry(name):
        if name not in names:
            return {}
        return {tuple(int(v == name) for v in names): 1}

    mats = [[[entry(f"{x}_{i}_{j}") for j in range(1, size + 1)] for i in range(1, size + 1)] for x in letters]
    return names, mats


def _bordered_minors(m, k, nvars):
    """The compound: entry (I, J) is det of rows I and columns J, each with the last one added."""
    last = len(m) - 1
    family = list(combinations(range(last), k))
    return [
        [_det([[m[r][c] for c in cols + (last,)] for r in rows + (last,)], nvars) for cols in family]
        for rows in family
    ]


def _decode(poly, names):
    assert poly.universe.names == tuple(names)
    return {tuple(mono.to_bytes(len(names), "big")): c for mono, c in poly.terms.items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_identity(n):
    names, (a,) = _generic(n, "a")
    nvars = len(names)
    minordet_a, _ = _single_generic(n)
    for k in range(n + 1):
        lhs = _det(_bordered_minors(a, k, nvars), nvars)
        p, q = comb(n - 1, k), comb(n - 1, k - 1) if k else 0
        rhs = _mul(_pow(a[n][n], p, nvars), _pow(_det(a, nvars), q, nvars))
        assert lhs == rhs, k
        got_lhs, got_rhs = power_identity(minordet_a, k)
        assert _decode(got_lhs, names) == lhs and _decode(got_rhs, names) == rhs, k


@pytest.mark.parametrize("size", [3, 4])
def test_sylvester_franke(size):
    # det C_k(M) = det(M)^C(size-1, k-1) on a generic size x size M, the theorem the derived route cites above 4
    names, (m,) = _generic(size - 1, "a")
    nvars = len(names)
    minordet_m, _ = _single_generic(size - 1)
    for k in range(size + 1):
        family = list(combinations(range(size), k))
        compound = [[_det([[m[r][c] for c in cols] for r in rows], nvars) for cols in family] for rows in family]
        lhs = _det(compound, nvars)
        rhs = _pow(_det(m, nvars), comb(size - 1, k - 1) if k else 0, nvars)
        assert lhs == rhs, k
        got_lhs, got_rhs = franke_identity(minordet_m, k)
        assert _decode(got_lhs, names) == lhs and _decode(got_rhs, names) == rhs, k


@pytest.mark.parametrize("theorem", ["b0", "ab0"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_forced_divisor_times_quotient_is_det_w(theorem, n):
    names, (a, b) = _generic(n, "ab", ZERO_CORNERS[theorem])
    nvars = len(names)
    divisor = _det(a, nvars)
    if theorem == "ab0":
        divisor = _mul(divisor, _det(b, nvars))
    ma, mb, _ = build_generic(GenericSpec(n, THEOREM_CONSTRAINTS[theorem]))
    for k in range(n + 1):
        minors_a, minors_b = _bordered_minors(a, k, nvars), _bordered_minors(b, k, nvars)
        w = [[_mul(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(minors_a, minors_b)]
        _, _, quotient = symbolic_quotient(theorem, ma, mb, k)
        assert quotient is not None, k
        assert _mul(divisor, _decode(quotient, names)) == _det(w, nvars), k
