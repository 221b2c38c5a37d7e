"""A fixed piece of pure-Python work that gauges how fast the machine runs now.

The benchmark's host shares its cores with other tenants, whose load slows
every CPU-bound loop for stretches of seconds to minutes: one pass over a
fixed case list took from 1.5 s to 2.8 s within two minutes.  The fastest
of several calls removes short bursts but not a stretch that lasts a whole
run.  So the benchmark runs this reference work between its cases, in
amounts fixed per case, and reports times at the reference speed:

    scaled time = measured time * UNIT_S / (measured time of one unit)

One unit does the kinds of work minordet does: a fraction-free Bareiss
determinant of a fixed integer matrix, and a product of two polynomials
kept as dicts from packed integer monomials to coefficients.  It calls
nothing in minordet, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import time

# About one unit on an idle 2-vCPU Xeon VM under CPython 3.11; a scaled time is in
# seconds at that speed.  Any fixed value would do: it only sets the scale.
UNIT_S = 0.0002

_rng = random.Random(20190131)
_MATRIX = [[_rng.randint(-50, 50) for _ in range(10)] for _ in range(10)]
_P = {_rng.getrandbits(48) & 0x0F0F0F0F0F0F: _rng.randint(-9, 9) for _ in range(24)}
_Q = {_rng.getrandbits(48) & 0x0F0F0F0F0F0F: _rng.randint(-9, 9) for _ in range(24)}


def _bareiss(rows: list[list[int]]) -> int:
    m = [row[:] for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for j in range(n - 1):
        if m[j][j] == 0:
            for i in range(j + 1, n):
                if m[i][j]:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return 0
        pivot, row_j = m[j][j], m[j]
        for i in range(j + 1, n):
            row_i = m[i]
            lead = row_i[j]
            for k in range(j + 1, n):
                row_i[k] = (row_i[k] * pivot - lead * row_j[k]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _product(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    acc: dict[int, int] = {}
    get = acc.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


DET = _bareiss(_MATRIX)
PRODUCT_TERMS = len(_product(_P, _Q))


def run_units(count: int) -> float:
    """Run `count` units; return the seconds they took."""
    t0 = time.perf_counter()
    for _ in range(count):
        if _bareiss(_MATRIX) != DET or len(_product(_P, _Q)) != PRODUCT_TERMS:
            raise AssertionError("reference work gave a different answer")
    return time.perf_counter() - t0


def units_for(seconds: float, share: float) -> int:
    """Units that take about `share` of `seconds` at the reference speed, at least one."""
    return max(1, round(share * seconds / UNIT_S))
