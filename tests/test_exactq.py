import random
from fractions import Fraction as F

import pytest

from credalkit.exactq import (
    DimensionError,
    QMatrix,
    RationalParseError,
    dot,
    format_rational,
    lp_problem,
    lp_solve,
    matrix_rank,
    parse_rational,
    qvec,
    solve_linear_system,
)
from oracles import brute_force_max


class TestRationalGrammar:
    def test_plain_forms(self):
        assert parse_rational("2") == 2
        assert parse_rational("-3/7") == F(-3, 7)
        assert parse_rational("+1/12") == F(1, 12)
        assert parse_rational(" 5/10 ") == F(1, 2)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "1e3", "3/-7", "", "a", "1/ 2"])
    def test_rejects(self, bad):
        with pytest.raises(RationalParseError):
            parse_rational(bad)

    def test_round_trip_canonical(self):
        rng = random.Random(0)
        for _ in range(200):
            q = F(rng.randint(-50, 50), rng.randint(1, 50))
            text = format_rational(q)
            back = parse_rational(text)
            assert back == q
            assert back.denominator > 0
            from math import gcd

            assert gcd(abs(back.numerator), back.denominator) == 1


class TestLinearSystems:
    def test_identity(self):
        res = solve_linear_system(QMatrix([[1, 0], [0, 1]]), [F(1, 2), F(1, 2)])
        assert res.status == "unique"
        assert res.solution == (F(1, 2), F(1, 2))

    def test_inconsistent_parallel_rows(self):
        res = solve_linear_system(QMatrix([[1, 1], [2, 2]]), [1, 3])
        assert res.status == "inconsistent"
        assert res.rank == 1

    def test_random_invertible_residual(self):
        rng = random.Random(42)
        for _ in range(10):
            while True:
                a = QMatrix(
                    [
                        [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
                        for _ in range(5)
                    ]
                )
                if matrix_rank(a) == 5:
                    break
            b = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
            res = solve_linear_system(a, b)
            assert res.status == "unique"
            assert list(a.apply(res.solution)) == list(qvec(b))

    def test_underdetermined_nullspace(self):
        a = QMatrix([[1, 1, 0], [0, 0, 1]])
        res = solve_linear_system(a, [1, 2])
        assert res.status == "underdetermined"
        assert res.rank == 2
        for vec in res.nullspace:
            assert all(v == 0 for v in a.apply(vec))
        # full solution set reproduces the rhs
        x = res.solution
        assert list(a.apply(x)) == [F(1), F(2)]


class TestMatrix:
    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            QMatrix([[1, 2], [3]])
        with pytest.raises(DimensionError):
            QMatrix([[1, 2]]).apply([1, 2, 3])


class TestLpSolve:
    def test_simplex_vertex(self):
        out = lp_solve(lp_problem("max", [1, 0], [([1, 1], "=", 1)]))
        assert out.status == "optimal"
        assert out.value == 1
        assert out.solution == (F(1), F(0))

    def test_bound_contradiction_certificate(self):
        out = lp_solve(
            lp_problem(
                "min", [0], [([1], "<=", 0), ([1], ">=", 1)], nonneg=[False]
            )
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
        out = lp_solve(lp_problem("max", objective, rows, nonneg=[False] * dim))
        assert out.status == "optimal"
        assert out.value == expected

    def test_unbounded_flagged(self):
        out = lp_solve(lp_problem("max", [1], [([1], ">=", 0)]))
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
            problem = lp_problem(
                "min", [F(rng.randint(-3, 3)) for _ in range(n)], rows
            )
            assert lp_solve(problem) == lp_solve(problem)

    def test_random_outcomes_self_verify(self):
        # lp_solve re-checks optima and certificates internally; this
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
            problem = lp_problem(
                rng.choice(["min", "max"]),
                [F(rng.randint(-3, 3)) for _ in range(n)],
                rows,
                nonneg,
            )
            statuses.add(lp_solve(problem).status)
        assert {"optimal", "infeasible", "unbounded"} <= statuses

    def test_farkas_combination_is_exact(self):
        out = lp_solve(
            lp_problem(
                "min",
                [0, 0],
                [
                    ([1, 1], "<=", 1),
                    ([1, 0], ">=", 2),
                ],
            )
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

    def test_malformed_dimensions(self):
        with pytest.raises(DimensionError):
            lp_problem("min", [1, 2], [([1], "<=", 0)])
        with pytest.raises(DimensionError):
            lp_problem("min", [1], [([1], "<<", 0)])

    def test_dot_dimension_guard(self):
        with pytest.raises(DimensionError):
            dot((F(1),), (F(1), F(2)))
