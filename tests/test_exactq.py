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
    parse_rational,
    qvec,
    solve_linear_system,
)
from oracles import apply, brute_force_max, matrix_rank

from credalkit import _backend


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
            assert list(apply(a, res.solution)) == list(qvec(b))

    def test_underdetermined_nullspace(self):
        a = QMatrix([[1, 1, 0], [0, 0, 1]])
        res = solve_linear_system(a, [1, 2])
        assert res.status == "underdetermined"
        assert res.rank == 2
        for vec in res.nullspace:
            assert all(v == 0 for v in apply(a, vec))
        # full solution set reproduces the rhs
        x = res.solution
        assert list(apply(a, x)) == [F(1), F(2)]


class TestMatrix:
    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            QMatrix([[1, 2], [3]])


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

    def test_rational_rows_reverify_in_fractions(self):
        # rows with mixed denominators and rhs of both signs; each answer
        # is re-checked here in Fraction arithmetic, apart from lp_solve's
        # own integer checks
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
            problem = lp_problem(
                rng.choice(["min", "max"]),
                [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)],
                rows,
                nonneg,
            )
            out = lp_solve(problem)
            statuses.add(out.status)
            if out.status == "optimal":
                x = out.solution
                assert all(v >= 0 for v, flag in zip(x, nonneg) if flag)
                for coeffs, sense, rhs in problem.rows:
                    lhs = dot(coeffs, x)
                    assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[sense]
                assert out.value == dot(problem.objective, x)
            elif out.status == "infeasible":
                combined = [F(0)] * n
                combined_rhs = F(0)
                for (coeffs, sense, rhs), cm in zip(problem.rows, out.certificate):
                    flip = -1 if sense == ">=" else 1
                    assert sense == "=" or cm >= 0
                    combined = [s + cm * flip * v for s, v in zip(combined, coeffs)]
                    combined_rhs += cm * flip * rhs
                for v, flag in zip(combined, nonneg):
                    assert v >= 0 if flag else v == 0
                assert combined_rhs == -1
        assert {"optimal", "infeasible", "unbounded"} <= statuses


def fake_kernel(monkeypatch, answer):
    """Make every kernel call return `answer`, whatever it is asked."""
    monkeypatch.setattr(_backend, "simplex_solve", lambda *args: answer)


class TestCertificateChecks:
    """lp_solve rejects a kernel answer that is wrong in one way.

    The kernel sees one column per sign-constrained variable, two per
    free one (positive, then negative) and then one slack per inequality
    row; a Farkas `y` has one entry per row.
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
            lp_solve(lp_problem("max", [1, 0], [([1, 0], "<=", 5), row]))

    def test_negative_sign_constrained_variable(self, monkeypatch):
        # x0 = -1, x1 = 1 meets x0 + x1 = 0 but breaks x0 >= 0
        fake_kernel(monkeypatch, ("optimal", [F(-1), F(1)], None))
        with pytest.raises(RuntimeError, match="sign-constrained"):
            lp_solve(lp_problem("min", [0, 0], [([1, 1], "=", 0)]))

    def test_free_variable_may_be_negative(self, monkeypatch):
        # the same point is optimal when x0 is free (columns x0+, x0-, x1,
        # then the slack of x1 <= 1)
        fake_kernel(monkeypatch, ("optimal", [F(0), F(1), F(1), F(0)], None))
        out = lp_solve(
            lp_problem(
                "min", [1, 0], [([1, 1], "=", 0), ([0, 1], "<=", 1)], [False, True]
            )
        )
        assert out.solution == (F(-1), F(1))
        assert out.value == -1

    def test_negative_inequality_multiplier(self, monkeypatch):
        fake_kernel(monkeypatch, ("infeasible", None, [F(1), F(0)]))
        with pytest.raises(RuntimeError, match="negative multiplier"):
            lp_solve(lp_problem("min", [0], [([1], "<=", 2), ([1], "=", 1)]))

    def test_combined_row_negative_on_nonneg_variable(self, monkeypatch):
        # x0 >= 1 is feasible; y = 1 gives the combined row -x0 <= -1
        fake_kernel(monkeypatch, ("infeasible", None, [F(1)]))
        with pytest.raises(RuntimeError, match="negative on a nonneg"):
            lp_solve(lp_problem("min", [0], [([1], ">=", 1)]))

    def test_combined_row_nonzero_on_free_variable(self, monkeypatch):
        fake_kernel(monkeypatch, ("infeasible", None, [F(1)]))
        with pytest.raises(RuntimeError, match="nonzero on a free"):
            lp_solve(lp_problem("min", [0], [([1], ">=", 1)], [False]))

    @pytest.mark.parametrize("y", [F(0), F(-1)])
    def test_combined_rhs_not_violated(self, monkeypatch, y):
        # x0 <= 1 with multiplier -y: the combined rhs is -y >= 0, which
        # the normalization to rhs -1 refuses
        fake_kernel(monkeypatch, ("infeasible", None, [y]))
        with pytest.raises(RuntimeError, match="infeasibility witness"):
            lp_solve(lp_problem("min", [0], [([1], "<=", 1)]))

    def test_valid_certificate_accepted(self, monkeypatch):
        # -x0 >= 1 with x0 >= 0 is infeasible, and y = 1 proves it
        fake_kernel(monkeypatch, ("infeasible", None, [F(1)]))
        out = lp_solve(lp_problem("min", [0], [([-1], ">=", 1)]))
        assert out.status == "infeasible"
        assert out.certificate == (F(1),)
