"""The shipped simplex kernel against the Fraction reference kernel.

Both walk the identical Bland pivot sequence in exact arithmetic, so
outcomes have to match bit for bit on every input, not just in value.
The shipped kernel takes integer rows over per-row denominators and an
integer objective; the reference takes the same problem in Fractions.
"""

import random
from fractions import Fraction as F
from math import lcm

from oracles import fraction_simplex_solve

from credalkit._backend import simplex_solve


def random_canonical_problem(rng):
    m = rng.randint(1, 5)
    n = rng.randint(1, 6)
    a = [
        [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(m)
    ]
    b = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)]
    c = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    return m, n, a, b, c


def integer_rows(a, b):
    """Each row [a_i | b_i] as integers over its least common denominator."""
    rows, dens = [], []
    for ai, bi in zip(a, b):
        values = [*ai, bi]
        den = lcm(*[v.denominator for v in values])
        rows.append([v.numerator * (den // v.denominator) for v in values])
        dens.append(den)
    return rows, dens


def integer_objective(c):
    den = lcm(*[v.denominator for v in c])
    return [v.numerator * (den // v.denominator) for v in c]


def integer_solve(m, n, a, b, c):
    rows, dens = integer_rows(a, b)
    return simplex_solve(m, n, rows, dens, integer_objective(c))


def test_kernel_matches_reference_bit_for_bit():
    rng = random.Random(123)
    statuses = set()
    for _ in range(300):
        m, n, a, b, c = random_canonical_problem(rng)
        ref = fraction_simplex_solve(m, n, [list(r) for r in a], list(b), list(c))
        got = integer_solve(m, n, a, b, c)
        assert got[0] == ref[0]
        for ours, theirs in zip(got[1:], ref[1:]):
            if theirs is None:
                assert ours is None
            else:
                assert all(type(v) is F for v in ours)
                assert list(ours) == list(theirs)
        statuses.add(ref[0])
    assert {"optimal", "infeasible", "unbounded"} <= statuses


def test_scaled_rows_and_objective_agree():
    # a row's integers over a non-least denominator, and a positive
    # multiple of the objective, describe the same problem
    rng = random.Random(77)
    for _ in range(100):
        m, n, a, b, c = random_canonical_problem(rng)
        rows, dens = integer_rows(a, b)
        cost = integer_objective(c)
        k = rng.randint(2, 6)
        scaled = simplex_solve(
            m, n, [[k * v for v in row] for row in rows], [k * d for d in dens],
            [k * v for v in cost],
        )
        assert scaled == simplex_solve(m, n, rows, dens, cost)


def test_infeasible_dual_contract():
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        m, n, a, b, c = random_canonical_problem(rng)
        status, _, y = integer_solve(m, n, a, b, c)
        if status != "infeasible":
            continue
        checked += 1
        for j in range(n):
            assert sum(y[i] * a[i][j] for i in range(m)) <= 0
        assert sum(y[i] * b[i] for i in range(m)) > 0
    assert checked > 10


def test_kernel_solves_degenerate_rows():
    # duplicated constraints force a redundant artificial pivot-out
    rows = [[1, 1, 1], [1, 1, 1], [2, 2, 2]]
    status, x, _ = simplex_solve(3, 2, rows, [1, 1, 1], [-1, 0])
    assert status == "optimal"
    assert x == [F(1), F(0)]
