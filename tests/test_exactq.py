import random
import sys
from collections import namedtuple
from fractions import Fraction as F
from math import gcd

import pytest

from credalkit.exactq import (
    EQ,
    GE,
    LE,
    DimensionError,
    IntLp,
    RationalParseError,
    _check_infeasible,
    _integer_row,
    combination,
    dot,
    echelon,
    format_rational,
    lp_solve,
    parse_rational,
    qvec,
    solve_rows,
)
from oracles import (
    apply,
    brute_force_max,
    combination_reference,
    echelon_combinations_reference,
    fraction_simplex_solve,
    matrix_rank,
    rational_lp,
    solve_linear_system,
)

from credalkit import _backend


class TestRationalGrammar:
    def test_plain_forms(self):
        assert parse_rational("2") == 2
        assert parse_rational("-3/7") == F(-3, 7)
        assert parse_rational("+1/12") == F(1, 12)
        assert parse_rational(" 5/10 ") == F(1, 2)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "1e3", "3/-7", "", "a", "1/ 2",
                                     "1/00", "-5/000", "1_000", "--1", "1/2/3"])
    def test_rejects(self, bad):
        with pytest.raises(RationalParseError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", [
        "0", "-0", "+0", "7", "+7", "-7", "-0/5", "007/014", "+12/18", "-12/18",
        "0003", "1/1", "  3/4", "3/4\n", "\t-4/6 ", "\u00a05/10\u2003",
        "\u0663/\u0664", "-\uff11\uff12/\uff14", "123456789012345678901234567890/9",
    ])
    def test_matches_fraction_on_the_grammar(self, text):
        """Built from the match's own integers, the value is Fraction(text):
        signs, leading zeros, surrounding whitespace and non-ASCII digits."""
        value = parse_rational(text)
        assert type(value) is F
        assert (value.numerator, value.denominator) == (F(text).numerator,
                                                         F(text).denominator)

    def test_zero_denominator_named(self):
        for text in ("1/0", "1/00", "-3/0000"):
            with pytest.raises(RationalParseError, match="zero denominator"):
                parse_rational(text)

    def test_digit_limit(self):
        """A numerator or denominator past int's string limit is a parse
        error, not a bare ValueError; one at the limit is read."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no integer-string limit")
        assert parse_rational("1" * limit) == int("1" * limit)
        for text in ("1" * (limit + 1), "1/" + "3" * (limit + 1),
                     "-" + "2" * (limit + 1) + "/3"):
            with pytest.raises(RationalParseError, match=f"{limit} digits"):
                parse_rational(text)

    def test_round_trip_canonical(self):
        # Fractions and ints, the two kinds of value the writers pass
        rng = random.Random(0)
        for k in range(300):
            q = rng.randint(-50, 50)
            if k % 3:
                q = F(q, rng.randint(1, 50))
            text = format_rational(q)
            assert text == str(F(q))
            back = parse_rational(text)
            assert back == q
            assert back.denominator > 0
            from math import gcd

            assert gcd(abs(back.numerator), back.denominator) == 1


class TestQvec:
    def test_fractions_kept_as_they_are(self):
        values = [F(1, 3), F(-2, 5), F(0)]
        out = qvec(values)
        assert all(a is b for a, b in zip(out, values))

    def test_other_values_coerced(self):
        class Sub(F):
            pass

        out = qvec([2, "3/4", Sub(1, 2), True])
        assert out == (2, F(3, 4), F(1, 2), 1)
        assert all(type(v) is F for v in out)


def integer_rows(a, b):
    """The system A x = b as integer rows [a | b]."""
    return [_integer_row(qvec([*row, rhs]))[0] for row, rhs in zip(a, b)]


def fraction_x0(x0):
    """The solution (nums, den) of `solve_rows` as Fractions."""
    nums, den = x0
    return tuple(F(v, den) for v in nums)


class TestLinearSystems:
    def test_identity(self):
        x0, nullspace, pivots = solve_rows(
            integer_rows([[1, 0], [0, 1]], [F(1, 2), F(1, 2)]), 2
        )
        assert x0 == ((1, 1), 2)
        assert nullspace == () and pivots == [0, 1]

    def test_inconsistent_parallel_rows(self):
        assert solve_rows(integer_rows([[1, 1], [2, 2]], [1, 3]), 2) is None
        assert echelon([[1, 1], [2, 2]])[0] == [0]

    def test_random_invertible_residual(self):
        rng = random.Random(42)
        for _ in range(10):
            while True:
                a = [
                    [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
                    for _ in range(5)
                ]
                if matrix_rank(a) == 5:
                    break
            b = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
            x0, nullspace, _ = solve_rows(integer_rows(a, b), 5)
            assert nullspace == ()
            assert list(apply(a, fraction_x0(x0))) == list(qvec(b))

    def test_underdetermined_nullspace(self):
        a = [[1, 1, 0], [0, 0, 1]]
        x0, nullspace, pivots = solve_rows(integer_rows(a, [1, 2]), 3)
        assert pivots == [0, 2]
        assert nullspace == ((-1, 1, 0),)
        for vec in nullspace:
            assert all(v == 0 for v in apply(a, vec))
        # full solution set reproduces the rhs
        assert list(apply(a, fraction_x0(x0))) == [F(1), F(2)]

    def test_no_rows(self):
        x0, nullspace, pivots = solve_rows([], 2)
        assert x0 == ((0, 0), 1) and pivots == []
        assert nullspace == ((1, 0), (0, 1))

    def test_matches_fraction_reference(self):
        # random rational systems, some with no rows, with duplicate,
        # scaled, summed and zero rows, a third of the copies with a
        # changed rhs: the same solution, nullspace and rank as Fraction
        # Gauss-Jordan. The solution is in lowest terms, and each
        # nullspace vector is primitive, positive at its free column and
        # the Fraction vector times that entry.
        rng = random.Random(6)
        seen = set()
        for _ in range(2000):
            n = rng.randint(1, 5)
            a, b = [], []
            for _ in range(rng.randint(0, 6)):
                kind = rng.choice(("fresh", "fresh", "duplicate", "scaled", "sum", "zero"))
                if kind == "fresh" or not a:
                    row = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    rhs = F(rng.randint(-3, 3), rng.randint(1, 3))
                elif kind == "zero":
                    row, rhs = [F(0)] * n, F(rng.choice((0, 0, 1)))
                else:
                    i, j = rng.randrange(len(a)), rng.randrange(len(a))
                    k = F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
                    if kind == "duplicate":
                        row, rhs = a[i], b[i]
                    elif kind == "scaled":
                        row, rhs = [k * v for v in a[i]], k * b[i]
                    else:
                        row = [u + k * v for u, v in zip(a[i], a[j])]
                        rhs = b[i] + k * b[j]
                    if rng.random() < 0.3:
                        rhs += 1
                a.append(row)
                b.append(rhs)
            status, rank, solution, nullspace = solve_linear_system(
                a or [[F(0)] * n], b or [F(0)]
            )
            got = solve_rows(integer_rows(a, b), n)
            assert len(echelon(integer_rows(a, [0] * len(a)))[0]) == rank
            if status == "inconsistent":
                assert got is None
                seen.add(status)
                continue
            (nums, den), null, pivots = got
            assert fraction_x0((nums, den)) == solution
            assert den > 0 and gcd(den, *nums) == 1
            assert len(pivots) == rank and len(null) == len(nullspace)
            free = [j for j in range(n) if j not in pivots]
            for z, vec, j in zip(null, nullspace, free):
                assert all(type(v) is int for v in z)
                assert gcd(*z) == 1 and z[j] > 0
                assert z == tuple(z[j] * v for v in vec)
            seen.add(status)
            seen.add("no rows" if not a else "rows")
        assert seen == {"unique", "underdetermined", "inconsistent", "no rows", "rows"}


RationalLp = namedtuple("RationalLp", "direction objective rows nonneg")


def problem_of(direction, objective, rows, nonneg=None):
    """A rational LP kept as data, for the tests that read it back;
    `rational_lp(*problem)` solves it."""
    if nonneg is None:
        nonneg = [True] * len(objective)
    return RationalLp(direction, qvec(objective), rows, nonneg)


class TestLpSolve:
    def test_simplex_vertex(self):
        out = rational_lp("max", [1, 0], [([1, 1], "=", 1)])
        assert out.status == "optimal"
        assert out.value == 1
        assert out.solution == (F(1), F(0))

    def test_bound_contradiction_certificate(self):
        out = rational_lp(
            "min", [0], [([1], "<=", 0), ([1], ">=", 1)], nonneg=[False]
        )
        assert out.status == "infeasible"
        assert out.certificate == (F(1), F(1))

    def test_value_against_vertex_oracle(self):
        # max p00+p11 over the probability simplex with p00+p01 = 1/3
        dim = 4
        ineqs = [(tuple(-F(i == j) for i in range(dim)), F(0)) for j in range(dim)]
        eqs = [((F(1),) * dim, F(1)), ((F(1), F(1), F(0), F(0)), F(1, 3))]
        objective = (F(1), F(0), F(0), F(1))
        expected = brute_force_max(objective, dim, ineqs, eqs)
        assert expected == 1  # frozen from the oracle

        rows = [(c, "<=", b) for c, b in ineqs] + [(c, "=", b) for c, b in eqs]
        out = rational_lp("max", objective, rows, nonneg=[False] * dim)
        assert out.status == "optimal"
        assert out.value == expected

    def test_unbounded_flagged(self):
        out = rational_lp("max", [1], [([1], ">=", 0)])
        assert out.status == "unbounded"

    def test_deterministic_bit_for_bit(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 4)
            rows = []
            for _ in range(rng.randint(1, 5)):
                coeffs = [F(rng.randint(-4, 4)) for _ in range(n)]
                sense = rng.choice(["<=", "=", ">="])
                rows.append((coeffs, sense, F(rng.randint(-3, 3))))
            problem = problem_of(
                "min", [F(rng.randint(-3, 3)) for _ in range(n)], rows
            )
            assert rational_lp(*problem) == rational_lp(*problem)

    def test_random_outcomes_self_verify(self):
        # rational_lp checks every optimum and certificate; this
        # exercises a spread of shapes to make those checks bite
        rng = random.Random(17)
        statuses = set()
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
                sense = rng.choice(["<=", "=", ">="])
                rows.append((coeffs, sense, F(rng.randint(-2, 4))))
            nonneg = [rng.random() < 0.7 for _ in range(n)]
            out = rational_lp(
                rng.choice(["min", "max"]),
                [F(rng.randint(-3, 3)) for _ in range(n)],
                rows,
                nonneg,
            )
            statuses.add(out.status)
        assert {"optimal", "infeasible", "unbounded"} <= statuses

    def test_farkas_combination_is_exact(self):
        out = rational_lp(
            "min",
            [0, 0],
            [
                ([1, 1], "<=", 1),
                ([1, 0], ">=", 2),
            ],
        )
        assert out.status == "infeasible"
        cert = out.certificate
        # <=-normalized combination: row2 enters negated
        combined = [
            cert[0] * 1 + cert[1] * (-1),
            cert[0] * 1 + cert[1] * 0,
        ]
        combined_rhs = cert[0] * 1 + cert[1] * (-2)
        assert all(c >= 0 for c in combined)
        assert combined_rhs == -1

    def test_dot_dimension_guard(self):
        with pytest.raises(DimensionError):
            dot((F(1),), (F(1), F(2)))

    def test_rational_rows_reverify_in_fractions(self):
        # rows with mixed denominators and rhs of both signs; each answer
        # is re-checked here in Fraction arithmetic, apart from
        # rational_lp's own integer checks
        rng = random.Random(29)
        statuses = set()
        for _ in range(80):
            n = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]
                sense = rng.choice(["<=", "=", ">="])
                rows.append((coeffs, sense, F(rng.randint(-4, 4), rng.randint(1, 6))))
            nonneg = [rng.random() < 0.6 for _ in range(n)]
            problem = problem_of(
                rng.choice(["min", "max"]),
                [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)],
                rows,
                nonneg,
            )
            out = rational_lp(*problem)
            statuses.add(out.status)
            assert_verifies(problem, out)
        assert {"optimal", "infeasible", "unbounded"} <= statuses


def assert_verifies(problem, out):
    """Re-check an optimal point or a Farkas certificate in Fractions."""
    n = len(problem.objective)
    if out.status == "optimal":
        x = out.solution
        assert all(v >= 0 for v, flag in zip(x, problem.nonneg) if flag)
        for coeffs, sense, rhs in problem.rows:
            lhs = dot(coeffs, x)
            assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[sense]
        assert out.value == dot(problem.objective, x)
    elif out.status == "infeasible":
        assert len(out.certificate) == len(problem.rows)
        combined = [F(0)] * n
        combined_rhs = F(0)
        for (coeffs, sense, rhs), cm in zip(problem.rows, out.certificate):
            flip = -1 if sense == ">=" else 1
            assert sense == "=" or cm >= 0
            combined = [s + cm * flip * v for s, v in zip(combined, coeffs)]
            combined_rhs += cm * flip * rhs
        for v, flag in zip(combined, problem.nonneg):
            assert v >= 0 if flag else v == 0
        assert combined_rhs == -1


def reference_lp(problem):
    """Status and optimal value from the Fraction reference kernel on the
    problem's equality form with every row: free variables split, one
    slack per inequality row, rows with a negative rhs negated."""
    a, b = [], []
    n_slack = sum(1 for _c, sense, _r in problem.rows if sense != "=")
    slack = 0
    for coeffs, sense, rhs in problem.rows:
        row = []
        for v, flag in zip(coeffs, problem.nonneg):
            row += [v] if flag else [v, -v]
        tail = [F(0)] * n_slack
        if sense != "=":
            tail[slack] = F(1) if sense == "<=" else F(-1)
            slack += 1
        row += tail
        flip = -1 if rhs < 0 else 1
        a.append([flip * v for v in row])
        b.append(flip * rhs)
    sign = 1 if problem.direction == "min" else -1
    c = []
    for v, flag in zip(problem.objective, problem.nonneg):
        c += [sign * v] if flag else [sign * v, -sign * v]
    c += [F(0)] * n_slack
    status, x, _ = fraction_simplex_solve(len(a), len(c), a, b, c)
    value = sign * dot(c, x) if status == "optimal" else None
    return status, value


def dropped_rows(problem):
    """Equality rows in the span of the equality rows before them,
    coefficients and rhs together."""
    earlier, dropped = [], []
    for i, (coeffs, sense, rhs) in enumerate(problem.rows):
        if sense != "=":
            continue
        stacked = earlier + [[*coeffs, rhs]]
        if matrix_rank(stacked) < len(stacked):
            dropped.append(i)
        else:
            earlier = stacked
    return dropped


def random_dependent_lp(rng):
    """A random LP whose equality rows include exact duplicates, scaled
    copies and sums of other rows, a third of them with a changed rhs,
    mixed with inequality rows in random order."""
    n = rng.randint(2, 4)
    eqs = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        eqs.append((coeffs, F(rng.randint(-3, 3), rng.randint(1, 3))))
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("duplicate", "scaled", "sum"))
        (c1, r1), (c2, r2) = rng.choice(eqs), rng.choice(eqs)
        if kind == "duplicate":
            coeffs, rhs = list(c1), r1
        elif kind == "scaled":
            k = F(rng.choice((-3, -2, -1, 2, 3)), rng.randint(1, 3))
            coeffs, rhs = [k * v for v in c1], k * r1
        else:
            coeffs, rhs = [u + v for u, v in zip(c1, c2)], r1 + r2
        if rng.random() < 0.3:
            rhs += F(rng.choice((-1, 1)), rng.randint(1, 3))
        eqs.append((coeffs, rhs))
    rows = [(coeffs, "=", rhs) for coeffs, rhs in eqs]
    for _ in range(rng.randint(0, 3)):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        rows.append((coeffs, rng.choice(["<=", ">="]), F(rng.randint(-3, 3))))
    rng.shuffle(rows)
    return problem_of(
        rng.choice(["min", "max"]),
        [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)],
        rows,
        [rng.random() < 0.6 for _ in range(n)],
    )


def dependent_rows(rng, width):
    """1 to 9 integer rows of the width, each drawn at random or as a
    combination of two earlier rows."""
    rows = []
    for _ in range(rng.randint(1, 9)):
        if rows and rng.random() < 0.5:
            u, v = rng.choice(rows), rng.choice(rows)
            k, h = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([k * x + h * y for x, y in zip(u, v)])
        else:
            rows.append([rng.randint(-4, 4) for _ in range(width)])
    return rows


class TestIndependentRows:
    def test_matches_rank_oracle(self):
        # rows drawn at random or as combinations of earlier rows; a row
        # is kept iff it raises the rank of the rows kept before it
        rng = random.Random(8)
        for _ in range(200):
            rows = dependent_rows(rng, rng.randint(1, 6))
            expected = []
            for i, row in enumerate(rows):
                kept = [rows[j] for j in expected] + [row]
                if any(row) and matrix_rank(kept) == len(kept):
                    expected.append(i)
            assert echelon(rows)[0] == expected

    def test_combinations_rebuild_the_reduced_rows(self):
        # the reference `combination` is checked against: each kept row
        # is the combination of the input rows it names, which is zero
        # off the chosen rows; the chosen rows and reduced rows are those
        # of `echelon`
        rng = random.Random(9)
        for _ in range(200):
            width = rng.randint(1, 6)
            rows = dependent_rows(rng, width)
            chosen, kept = echelon(rows)
            chosen_c, kept_c = echelon_combinations_reference(rows)
            assert chosen_c == chosen
            # each row is a positive multiple of the plain call's
            assert [(col, [v // gcd(*row) for v in row]) for col, row, _ in kept_c] == [
                (col, list(red)) for col, red in kept
            ]
            for col, row, comb in kept_c:
                assert row[col] > 0
                assert all(type(c) is int for c in (*row, *comb))
                assert all(c == 0 for i, c in enumerate(comb) if i not in chosen)
                rebuilt = [sum(c * r[j] for c, r in zip(comb, rows)) for j in range(width)]
                assert rebuilt == list(row)


class TestCombination:
    """`combination` writes a target in the rows' span as integer
    weights over one denominator: one `echelon` and one square solve,
    the weights of the two-elimination reference exactly."""

    def check(self, rows, target):
        nums, den = combination(rows, target)
        chosen = echelon(rows)[0]
        assert den > 0 and all(type(v) is int for v in (*nums, den))
        assert all(v == 0 for i, v in enumerate(nums) if i not in chosen)
        width = len(target)
        assert [sum(v * r[j] for v, r in zip(nums, rows)) for j in range(width)] == [
            den * t for t in target
        ]
        assert [F(v, den) for v in nums] == combination_reference(rows, target)
        return nums, den

    def test_matches_reference_on_dependent_rows(self):
        rng = random.Random(10)
        dependent = 0
        for _ in range(300):
            width = rng.randint(1, 6)
            rows = dependent_rows(rng, width)
            weights = [rng.randint(-3, 3) for _ in rows]
            target = [sum(w * r[j] for w, r in zip(weights, rows)) for j in range(width)]
            self.check(rows, target)
            dependent += len(echelon(rows)[0]) < len(rows)
        assert dependent > 50

    def test_no_rows(self):
        assert combination([], [0, 0]) == ([], 1)

    def test_inconsistent_rows_certificate(self):
        # rows [e | f] whose equalities e.x = f have no solution: the
        # weights of [0 ... 0 | -1] are the old certificate, the combination
        # behind the echelon row with its pivot in the rhs column over minus
        # that pivot
        rng = random.Random(11)
        inconsistent = 0
        for _ in range(300):
            d = rng.randint(1, 5)
            rows = [[*e, rng.randint(-3, 3)] for e in dependent_rows(rng, d)]
            if solve_rows(rows, d) is not None:
                continue
            nums, den = self.check(rows, [0] * d + [-1])
            _, row, comb = next(k for k in echelon_combinations_reference(rows)[1]
                                if k[0] == d)
            assert [F(v, den) for v in nums] == [F(-c, row[d]) for c in comb]
            inconsistent += 1
        assert inconsistent > 50


class TestEqualityPresolve:
    """Dependent equality rows never reach the kernel; the answer is the
    one of the unfiltered problem and is checked against every row."""

    def test_dependent_rows_match_reference(self, monkeypatch):
        rng = random.Random(41)
        seen = []
        solve = _backend.simplex_solve

        def recording(m, *args):
            seen.append(m)
            return solve(m, *args)

        monkeypatch.setattr(_backend, "simplex_solve", recording)
        statuses = set()
        with_dropped = inconsistent = 0
        for _ in range(150):
            problem = random_dependent_lp(rng)
            dropped = dropped_rows(problem)
            out = rational_lp(*problem)
            assert seen.pop() == len(problem.rows) - len(dropped)
            status, value = reference_lp(problem)
            assert out.status == status
            assert out.value == value
            assert_verifies(problem, out)
            if out.status == "infeasible":
                assert all(out.certificate[i] == 0 for i in dropped)
                eqs = [(c, s, r) for c, s, r in problem.rows if s == "="]
                n = len(problem.objective)
                alone = rational_lp("min", problem.objective, eqs, [False] * n)
                inconsistent += alone.status == "infeasible"
            statuses.add(out.status)
            with_dropped += bool(dropped)
        assert {"optimal", "infeasible", "unbounded"} <= statuses
        assert with_dropped > 100 and inconsistent > 20

    def test_inconsistent_copy_is_kept(self):
        # the scaled copy with a changed rhs proves infeasibility; the
        # exact duplicate is dropped and gets multiplier 0
        out = rational_lp(
            "min",
            [0, 0],
            [([1, 1], "=", 1), ([1, 1], "=", 1), ([2, 2], "=", 3)],
            [False, False],
        )
        assert out.status == "infeasible"
        assert out.certificate[1] == 0
        assert out.certificate == (F(2), F(0), F(-1))

    def test_zero_row(self):
        # 0 = 0 is dropped; 0 = 1 is kept and is the whole certificate
        rows = [([0], "=", 0), ([1], "<=", 2), ([0], "=", 1)]
        assert rational_lp("max", [1], rows).certificate == (F(0), F(0), F(-1))
        assert rational_lp("max", [1], rows[:2]).value == 2


def fake_kernel(monkeypatch, answer):
    """Make every kernel call return `answer`, whatever it is asked."""
    monkeypatch.setattr(_backend, "simplex_solve", lambda *args: answer)


class TestCertificateChecks:
    """`lp_solve` refuses a kernel point or witness that does not fit the
    columns or rows the kernel was given, and `_check_infeasible`, which
    each caller runs on a certificate, refuses a wrong Farkas combination.
    The tests' `rational_lp`, which the references here rely on, refuses
    a point that violates a row.

    An `IntLp` row is ([a | b], sense, den). The kernel sees one column
    per sign-constrained variable, two per free one (positive, then
    negative) and then one slack per inequality row; a Farkas `y` has one
    entry per row the kernel is given: every inequality row and each
    equality row independent of the equality rows before it.
    """

    @pytest.mark.parametrize(
        "row, x",
        [
            (([1, 1], "<=", 1), [F(1), F(1, 2), F(0)]),
            (([1, 1], ">=", 1), [F(1, 3), F(1, 3), F(0)]),
            (([1, 1], "=", 1), [F(1, 2), F(0)]),
        ],
        ids=["le", "ge", "eq"],
    )
    def test_violated_row(self, monkeypatch, row, x):
        fake_kernel(monkeypatch, ("optimal", x, None))
        with pytest.raises(RuntimeError, match="violates a constraint"):
            rational_lp("max", [1, 0], [([1, 0], "<=", 5), row])

    def test_negative_sign_constrained_variable(self, monkeypatch):
        # x0 = -1, x1 = 1 meets x0 + x1 = 0 but breaks x0 >= 0
        fake_kernel(monkeypatch, ("optimal", [F(-1), F(1)], None))
        with pytest.raises(RuntimeError, match="sign-constrained"):
            lp_solve(IntLp("min", (0, 0), (([1, 1, 0], EQ, 1),), (True, True)))

    def test_free_variable_may_be_negative(self, monkeypatch):
        # the same point is optimal when x0 is free (columns x0+, x0-, x1,
        # then the slack of x1 <= 1)
        fake_kernel(monkeypatch, ("optimal", [F(0), F(1), F(1), F(0)], None))
        rows = (([1, 1, 0], EQ, 1), ([0, 1, 1], LE, 1))
        out = lp_solve(IntLp("min", (1, 0), rows, (False, True)))
        assert out.solution == (F(-1), F(1))

    def test_negative_inequality_multiplier(self):
        # x0 <= 2 with multiplier -1/2 and x0 = 1 with 0
        rows = [([1, 2], LE, 1), ([1, 1], EQ, 1)]
        with pytest.raises(RuntimeError, match="negative multiplier"):
            _check_infeasible(rows, (True,), (F(-1, 2), F(0)))

    def test_combined_row_negative_on_nonneg_variable(self):
        # x0 >= 1 is feasible; y = 1 gives the combined row -x0 <= -1
        with pytest.raises(RuntimeError, match="negative on a nonneg"):
            _check_infeasible([([1, 1], GE, 1)], (True,), (F(1),))

    def test_combined_row_nonzero_on_free_variable(self):
        with pytest.raises(RuntimeError, match="nonzero on a free"):
            _check_infeasible([([1, 1], GE, 1)], (False,), (F(1),))

    @pytest.mark.parametrize("y", [F(0), F(-1)])
    def test_combined_rhs_not_violated(self, monkeypatch, y):
        # x0 <= 1 with multiplier -y: the combined rhs is -y >= 0, which
        # the normalization to rhs -1 refuses
        fake_kernel(monkeypatch, ("infeasible", None, [y]))
        with pytest.raises(RuntimeError, match="infeasibility witness"):
            lp_solve(IntLp("min", (0,), (([1, 1], LE, 1),), (True,)))

    # x0 = 1, 2 x0 = 2 (dropped), x0 = 3: the kernel sees rows 0 and 2
    MISALIGNED = (([1, 1], EQ, 1), ([2, 2], EQ, 1), ([1, 3], EQ, 1))

    @pytest.mark.parametrize(
        "y, message",
        [
            # valid on all three rows, but the kernel was given two
            ([F(-1), F(0), F(1)], "wrong length"),
            # valid on rows 0 and 2 in the other order
            ([F(1), F(-1)], "infeasibility witness"),
        ],
        ids=["unfiltered", "swapped"],
    )
    def test_witness_misaligned_with_kept_rows(self, monkeypatch, y, message):
        fake_kernel(monkeypatch, ("infeasible", None, y))
        with pytest.raises(RuntimeError, match=message):
            lp_solve(IntLp("min", (0,), self.MISALIGNED, (True,)))

    def test_witness_on_kept_rows_accepted(self, monkeypatch):
        fake_kernel(monkeypatch, ("infeasible", None, [F(-1), F(1)]))
        out = lp_solve(IntLp("min", (0,), self.MISALIGNED, (True,)))
        assert out.certificate == (F(1, 2), F(0), F(-1, 2))
        _check_infeasible(self.MISALIGNED, (True,), out.certificate)

    def test_valid_certificate_accepted(self, monkeypatch):
        # -x0 >= 1 with x0 >= 0 is infeasible, and y = 1 proves it
        fake_kernel(monkeypatch, ("infeasible", None, [F(1)]))
        rows = (([-1, 1], GE, 1),)
        out = lp_solve(IntLp("min", (0,), rows, (True,)))
        assert out.status == "infeasible"
        assert out.certificate == (F(1),)
        _check_infeasible(rows, (True,), out.certificate)
