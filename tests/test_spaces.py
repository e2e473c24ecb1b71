import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from credalkit.exactq import DimensionError
from credalkit.spaces import (
    alignment_permutation,
    all_canonical_tuples,
    canonical_tuple,
    make_space,
    marginal_matrix,
    permutation_matrix,
    permute_tuple,
    point_mass,
    product_index,
    pull,
    push,
    pushforward_matrix,
    restriction_matrix,
    tuple_covers,
    uniform_measure,
    validate_index_tuple,
    validate_measure,
)
from oracles import (
    apply,
    dense_marginal,
    dense_permutation,
    dense_pull,
    dense_pushforward,
    dense_restriction,
    index_to_outcomes,
)

AB = make_space(("a", "b"), ("0", "1"))
ABC = make_space(("a", "b", "c"), ("0", "1"))


class TestIndexing:
    def test_row_major_binary(self):
        assert product_index(AB, ("0", "0")) == 0
        assert product_index(AB, ("1", "0")) == 2

    def test_ternary_formula(self):
        sp = make_space(("t",), ("a", "b", "c"))
        assert product_index(sp, ("c", "a", "b")) == 2 * 9 + 0 * 3 + 1

    def test_inverse(self):
        for idx in range(8):
            outs = index_to_outcomes(ABC, idx, 3)
            assert product_index(ABC, outs) == idx

    def test_unknown_label(self):
        with pytest.raises(DimensionError):
            product_index(AB, ("0", "x"))


class TestSpaceValidation:
    def test_tuple_distinctness(self):
        with pytest.raises(DimensionError):
            validate_index_tuple(AB, ("a", "a"))
        with pytest.raises(DimensionError):
            validate_index_tuple(AB, ())

    def test_space_invariants(self):
        with pytest.raises(DimensionError):
            make_space(("a",), ("0",))  # one outcome
        with pytest.raises(DimensionError):
            make_space((), ("0", "1"))
        with pytest.raises(DimensionError):
            make_space(("a", "a"), ("0", "1"))

    def test_canonical_order(self):
        assert canonical_tuple(ABC, {"c", "a"}) == ("a", "c")
        assert list(all_canonical_tuples(AB)) == [("a",), ("b",), ("a", "b")]
        assert tuple_covers(("a", "c"), ("c",))
        assert not tuple_covers(("a",), ("b",))


def compose(outer, inner):
    """Index map of `outer` after `inner`."""
    return tuple(outer[x] for x in inner)


def identity(n):
    return tuple(range(n))


class TestMatrices:
    """The coordinate maps, which are index maps: entry w is the target
    cell of source cell w."""

    def test_pushforward_single_coordinate(self):
        assert pushforward_matrix(AB, ("b",)) == (0, 1, 0, 1)
        assert pushforward_matrix(AB, ("a",)) == (0, 0, 1, 1)

    def test_full_tuple_is_identity(self):
        assert pushforward_matrix(AB, ("a", "b")) == identity(4)
        assert pushforward_matrix(ABC, ("a", "b", "c")) == identity(8)

    def test_uniform_maps_to_uniform(self):
        for alpha in [("a",), ("c", "a"), ("b", "c", "a")]:
            m = pushforward_matrix(ABC, alpha)
            out = push(m, uniform_measure(8), 2 ** len(alpha))
            assert out == uniform_measure(2 ** len(alpha))

    def test_permutation_identity_and_swap(self):
        assert permutation_matrix(AB, 2, (0, 1)) == identity(4)
        swap = permutation_matrix(AB, 2, (1, 0))
        moved = push(swap, point_mass(4, product_index(AB, ("0", "1"))), 4)
        assert moved == point_mass(4, product_index(AB, ("1", "0")))

    def test_permutation_composition_brute_force(self):
        # map(pi o rho) = map(pi) after map(rho) over all of S3
        for pi in permutations(range(3)):
            for rho in permutations(range(3)):
                composed = tuple(rho[pi[j]] for j in range(3))
                lhs = permutation_matrix(ABC, 3, composed)
                rhs = compose(
                    permutation_matrix(ABC, 3, pi), permutation_matrix(ABC, 3, rho)
                )
                assert lhs == rhs

    def test_permutation_inverse(self):
        for pi in permutations(range(3)):
            inv = tuple(pi.index(j) for j in range(3))
            both = compose(permutation_matrix(ABC, 3, pi), permutation_matrix(ABC, 3, inv))
            assert both == identity(8)

    def test_marginal_examples(self):
        assert marginal_matrix(AB, 2, 2) == identity(4)
        assert marginal_matrix(AB, 2, 1) == (0, 0, 1, 1)

    def test_marginal_chain(self):
        lhs = marginal_matrix(ABC, 3, 1)
        rhs = compose(marginal_matrix(ABC, 2, 1), marginal_matrix(ABC, 3, 2))
        assert lhs == rhs

    def test_column_stochastic_zero_one(self):
        # one target cell per source cell, and every target cell is hit:
        # the maps are onto, so pulled-back rows keep their distinct values
        maps = [
            (pushforward_matrix(ABC, ("b", "a")), 8, 4),
            (permutation_matrix(ABC, 3, (2, 0, 1)), 8, 8),
            (marginal_matrix(ABC, 3, 2), 8, 4),
            (restriction_matrix(ABC, ("c", "a", "b"), ("b",)), 8, 2),
        ]
        for m, n_source, n_target in maps:
            assert len(m) == n_source
            assert set(m) == set(range(n_target))

    def test_compatibility_identity(self):
        # restriction == marginalize-after-shuffle == direct pushforward
        for alpha in permutations(("a", "b", "c")):
            for beta in [("a",), ("c",), ("b", "a"), ("c", "b")]:
                pi = alignment_permutation(alpha, beta)
                assert permute_tuple(alpha, pi)[: len(beta)] == beta
                shuffle = permutation_matrix(ABC, 3, pi)
                margin = marginal_matrix(ABC, 3, len(beta))
                restriction = restriction_matrix(ABC, alpha, beta)
                assert restriction == compose(margin, shuffle)
                lhs = compose(restriction, pushforward_matrix(ABC, alpha))
                assert lhs == pushforward_matrix(ABC, beta)


def ordered_tuples(space):
    for tup in all_canonical_tuples(space):
        yield from permutations(tup)


def random_vector(rng, n):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))


class TestIndexMapParity:
    """push and pull against the dense 0/1 matrices of tests/oracles.py."""

    SPACES = [
        make_space(labels, outcomes)
        for labels in [("a",), ("a", "b"), ("a", "b", "c")]
        for outcomes in [("0", "1"), ("x", "y", "z")]
    ]

    @staticmethod
    def check(rng, idx, dense):
        assert len(idx) == len(dense[0])
        for _ in range(3):
            vec = random_vector(rng, len(dense[0]))
            assert push(idx, vec, len(dense)) == apply(dense, vec)
            row = random_vector(rng, len(dense))
            assert pull(idx, row) == dense_pull(dense, row)

    def test_pushforward_maps(self):
        rng = random.Random(3)
        for space in self.SPACES:
            for alpha in ordered_tuples(space):
                self.check(
                    rng, pushforward_matrix(space, alpha), dense_pushforward(space, alpha)
                )

    def test_restriction_maps(self):
        rng = random.Random(4)
        for space in self.SPACES:
            for alpha in ordered_tuples(space):
                for beta in ordered_tuples(space):
                    if tuple_covers(alpha, beta):
                        self.check(
                            rng,
                            restriction_matrix(space, alpha, beta),
                            dense_restriction(space, alpha, beta),
                        )

    def test_permutation_and_marginal_maps(self):
        rng = random.Random(5)
        for space in self.SPACES:
            n = space.n_indices
            for perm in permutations(range(n)):
                self.check(
                    rng, permutation_matrix(space, n, perm), dense_permutation(space, n, perm)
                )
            for keep in range(1, n + 1):
                self.check(
                    rng, marginal_matrix(space, n, keep), dense_marginal(space, n, keep)
                )

    def test_push_length_guard(self):
        with pytest.raises(DimensionError):
            push(pushforward_matrix(AB, ("a",)), uniform_measure(2), 2)


class TestMeasures:
    def test_validate(self):
        validate_measure([F(1, 2), F(1, 2)])
        with pytest.raises(DimensionError):
            validate_measure([F(1, 2), F(1, 3)])
        with pytest.raises(DimensionError):
            validate_measure([F(3, 2), F(-1, 2)])
        with pytest.raises(DimensionError):
            validate_measure([F(1)], dim=2)

    def test_validate_decides_exactly(self):
        """The sign and the sum are decided on numerators over one
        common denominator: an entry or a sum off by 1/10^30 is refused,
        and the entries come back as the same Fractions."""
        tiny = F(1, 10**30)
        with pytest.raises(DimensionError, match="sum"):
            validate_measure([F(1, 3), F(2, 3) + tiny])
        with pytest.raises(DimensionError, match="sum"):
            validate_measure([F(1, 7), F(6, 7) - tiny, F(0)])
        with pytest.raises(DimensionError, match="negative"):
            validate_measure([-tiny, F(1) + tiny])
        with pytest.raises(DimensionError, match="sum"):
            validate_measure([])
        vec = [F(1, 10**30), F(1, 3), F(2, 3) - F(1, 10**30)]
        assert all(a is b for a, b in zip(validate_measure(vec, dim=3), vec))
        assert validate_measure([0, "1/2", F(1, 2)]) == (0, F(1, 2), F(1, 2))

    def test_point_mass(self):
        assert point_mass(3, 1) == (0, 1, 0)
        with pytest.raises(DimensionError):
            point_mass(3, 3)
