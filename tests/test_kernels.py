"""The shipped simplex kernel against the Fraction reference kernel.

Both start from the same basis (unit columns basic, artificials on the
other rows) and walk the identical Bland pivot sequence in exact
arithmetic, so outcomes have to match bit for bit on every input, not
just in value. The shipped kernel takes integer rows over per-row
denominators and an integer objective; the reference takes the same
problem in Fractions.
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


def random_slack_problem(rng):
    """Rows with unit columns (slacks) at random positions, some rows
    repeated as scaled copies or sums of earlier rows, some of those with
    a different rhs, and sometimes two unit columns in one row."""
    m0 = rng.randint(1, 4)
    n0 = rng.randint(1, 5)
    a = [
        [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n0)]
        for _ in range(m0)
    ]
    b = [F(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(m0)]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(len(a)), rng.randrange(len(a))
        k = F(rng.randint(1, 3), rng.randint(1, 2))
        h = rng.choice((0, 1))
        a.append([k * u + h * v for u, v in zip(a[i], a[j])])
        b.append(k * b[i] + h * b[j] + (rng.randint(1, 2) if rng.random() < 0.3 else 0))
    m = len(a)
    for i in range(m):
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            pos = rng.randint(0, len(a[0]))
            entry = F(rng.randint(1, 3), rng.randint(1, 2))
            for r, row in enumerate(a):
                row.insert(pos, entry if r == i else F(0))
    n = len(a[0])
    c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    return m, n, a, b, c


def unit_columns(a):
    """Rows holding a column positive there and zero in every other row."""
    rows = set()
    for col in zip(*a):
        hits = [i for i, v in enumerate(col) if v]
        if len(hits) == 1 and col[hits[0]] > 0:
            rows.add(hits[0])
    return rows


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


GENERATORS = (random_canonical_problem, random_slack_problem)


def test_kernel_matches_reference_bit_for_bit():
    for generate in GENERATORS:
        rng = random.Random(123)
        statuses = set()
        started = 0
        for _ in range(300):
            m, n, a, b, c = generate(rng)
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
            started += bool(unit_columns(a))
        assert {"optimal", "infeasible", "unbounded"} <= statuses
    # the slack generator's problems nearly all start some rows from a
    # unit column
    assert started > 250


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
    for generate in GENERATORS:
        rng = random.Random(5)
        checked = 0
        on_started_rows = 0
        for _ in range(300):
            m, n, a, b, c = generate(rng)
            status, _, y = integer_solve(m, n, a, b, c)
            if status != "infeasible":
                continue
            checked += 1
            assert len(y) == m and all(type(v) is F for v in y)
            for j in range(n):
                assert sum(y[i] * a[i][j] for i in range(m)) <= 0
            assert sum(y[i] * b[i] for i in range(m)) > 0
            on_started_rows += any(y[i] for i in unit_columns(a))
        assert checked > 10
    # witnesses whose support includes rows started from a unit column
    assert on_started_rows > 10


def test_slack_start_skips_phase_one():
    # every row has a unit column, so the start is feasible and phase 1
    # makes no pivot: x1 (the lower of x1, x3) starts basic in row 0 and
    # x2 in row 1
    rows = [[1, 1, 0, 2, 2], [1, 0, 2, 0, 3]]
    status, x, _ = simplex_solve(2, 4, rows, [1, 1], [-1, 0, 0, 0])
    assert status == "optimal"
    assert x == [F(2), F(0), F(1, 2), F(0)]
    a = [[F(v) for v in r[:4]] for r in rows]
    ref = fraction_simplex_solve(2, 4, a, [F(2), F(3)], [F(-1), F(0), F(0), F(0)])
    assert ref == (status, x, None)


def test_witness_on_slack_started_row():
    # x0 + s = 1 (s starts basic) and x0 = 2: y = (-1, 1) proves it
    rows = [[1, 1, 1], [1, 0, 2]]
    status, _, y = simplex_solve(2, 2, rows, [1, 1], [0, 0])
    assert status == "infeasible"
    assert y == [F(-1), F(1)]


def test_kernel_solves_degenerate_rows():
    # duplicated constraints force a redundant artificial pivot-out
    rows = [[1, 1, 1], [1, 1, 1], [2, 2, 2]]
    status, x, _ = simplex_solve(3, 2, rows, [1, 1, 1], [-1, 0])
    assert status == "optimal"
    assert x == [F(1), F(0)]
