import random
from fractions import Fraction as F

import pytest

import credalkit.credal as credal
import credalkit.polytope as pt
from credalkit.credal import (
    SUPPLIED,
    CredalCollection,
    FiniteSeparation,
    check_marginal_consistency,
    check_permutation_consistency,
    closedness_witness,
    credal_set_from_hrep,
    credal_set_from_members,
    credal_set_from_vertices,
    extend_measure,
    lower_expectation,
    upper_expectation,
    verify_finite_separation,
    verify_witness_certificate,
)
from credalkit.exactq import EQ, DimensionError, dot
from credalkit.modelio import parse_model
from credalkit.spaces import (
    make_space,
    point_mass,
    product_index,
    restriction_matrix,
    uniform_measure,
)
from gen import (
    clash_instance,
    collection_to_model,
    generated_instance,
    members_instance,
    random_simplex_point,
    supplied_variants,
)
from oracles import (
    apply,
    dense_pushforward,
    dense_restriction,
    marginal_consistency_reference,
    rational_lp,
)

AB = make_space(("a", "b"), ("0", "1"))


def full_simplex_set(space, tup):
    return credal_set_from_hrep(space, tup)


class TestConstruction:
    def test_vertices_must_be_measures(self):
        with pytest.raises(DimensionError):
            credal_set_from_vertices(AB, ("a",), [(F(1, 2), F(1, 3))])

    def test_vertices_give_the_points_from_points_gives(self):
        """Sorted, deduplicated and validated once: the body holds the
        points `Polytope.from_points` gives on the same vertices."""
        rng = random.Random(5)
        for _ in range(40):
            pts = [random_simplex_point(rng, 4) for _ in range(rng.randint(1, 6))]
            pts += rng.sample(pts, rng.randint(0, len(pts)))  # duplicates
            rng.shuffle(pts)
            cset = credal_set_from_vertices(AB, ("a", "b"), pts)
            assert cset.body.points == pt.Polytope.from_points(pts, dim=4).points
            assert cset.body.dim == 4
            assert cset.body.points == tuple(sorted(set(pts)))

    def test_empty_vertex_list_rejected(self):
        with pytest.raises(DimensionError, match="nonempty"):
            credal_set_from_vertices(AB, ("a",), [])

    def test_empty_hrep_rejected(self):
        with pytest.raises(DimensionError):
            credal_set_from_hrep(
                AB, ("a",), ineqs=[((1, 0), F(-1))]  # x0 <= -1, impossible
            )

    def test_synthesized_requires_canonical(self):
        cset = credal_set_from_members(AB, ("b", "a"), [uniform_measure(4)])
        with pytest.raises(DimensionError):
            CredalCollection(AB, {("b", "a"): cset})

    def test_derived_permuted_variant(self):
        d01 = point_mass(4, product_index(AB, ("0", "1")))
        coll = CredalCollection(
            AB,
            {("a", "b"): credal_set_from_members(AB, ("a", "b"), [d01])},
        )
        derived = coll.credal_set(("b", "a"))
        assert derived.members() == (
            point_mass(4, product_index(AB, ("1", "0"))),
        )


class TestPermutationCheck:
    def test_synthesized_passes_by_construction(self):
        coll = CredalCollection(
            AB, {("a", "b"): full_simplex_set(AB, ("a", "b"))}
        )
        report = check_permutation_consistency(coll)
        assert report.passed

    def test_point_mass_mismatch_fails_with_witness(self):
        d01 = point_mass(4, product_index(AB, ("0", "1")))
        coll = CredalCollection(
            AB,
            {
                ("a", "b"): credal_set_from_members(AB, ("a", "b"), [d01]),
                ("b", "a"): credal_set_from_members(AB, ("b", "a"), [d01]),
            },
            policy="supplied",
        )
        report = check_permutation_consistency(coll)
        assert not report.passed
        failures = report.failures()
        assert failures
        for rec in failures:
            assert rec.witness is not None
            assert rec.certificate is not None

    def test_symmetric_set_passes(self):
        coll = CredalCollection(
            AB,
            {
                ("a", "b"): full_simplex_set(AB, ("a", "b")),
                ("b", "a"): full_simplex_set(AB, ("b", "a")),
            },
            policy="supplied",
        )
        assert check_permutation_consistency(coll).passed

    def test_unchecked_pair_notice(self):
        coll = CredalCollection(
            AB,
            {("a", "b"): full_simplex_set(AB, ("a", "b"))},
            policy="supplied",
        )
        report = check_permutation_consistency(coll)
        assert report.passed  # notices are not failures
        assert any(r.status == "unchecked" for r in report.records)


class TestMarginalCheck:
    def test_full_simplices_pass(self):
        coll = CredalCollection(
            AB,
            {
                ("a",): full_simplex_set(AB, ("a",)),
                ("b",): full_simplex_set(AB, ("b",)),
                ("a", "b"): full_simplex_set(AB, ("a", "b")),
            },
        )
        assert check_marginal_consistency(coll).passed

    def test_point_mass_conflict(self):
        coll = CredalCollection(
            AB,
            {
                ("a",): credal_set_from_members(AB, ("a",), [point_mass(2, 0)]),
                ("a", "b"): credal_set_from_members(
                    AB, ("a", "b"), [point_mass(4, 3)]
                ),
            },
        )
        report = check_marginal_consistency(coll)
        assert not report.passed
        rec = next(
            r
            for r in report.failures()
            if r.direction == "restriction within supplied set"
        )
        # the restriction of delta_(1,1) is delta_1, not delta_0
        assert rec.witness == point_mass(2, 1)
        assert verify_witness_certificate(
            rec.certificate, coll.sets[("a",)]
        )

    def test_matching_marginal_segments_pass(self):
        # V_(a) = V_(b) = {q d0 + (1-q) d1 : q in [1/4, 3/4]} and
        # V_(a,b) = all joints with both marginals in that segment
        seg_rows = [((-1, 0), F(-1, 4)), ((1, 0), F(3, 4))]
        joint_rows = [
            ((-1, -1, 0, 0), F(-1, 4)),
            ((1, 1, 0, 0), F(3, 4)),
            ((-1, 0, -1, 0), F(-1, 4)),
            ((1, 0, 1, 0), F(3, 4)),
        ]
        coll = CredalCollection(
            AB,
            {
                ("a",): credal_set_from_hrep(AB, ("a",), ineqs=seg_rows),
                ("b",): credal_set_from_hrep(AB, ("b",), ineqs=seg_rows),
                ("a", "b"): credal_set_from_hrep(AB, ("a", "b"), ineqs=joint_rows),
            },
        )
        assert check_marginal_consistency(coll).passed

    def test_pushforward_family_passes_both(self):
        rng = random.Random(100)
        for _ in range(3):
            _, coll, _ = generated_instance(rng, 3)
            assert check_permutation_consistency(coll).passed
            assert check_marginal_consistency(coll).passed

    def test_finite_mode_agrees_with_set_comparison(self):
        rng = random.Random(101)
        space = AB
        mu1 = random_simplex_point(rng, 4)
        mu2 = random_simplex_point(rng, 4)
        sets = {}
        for alpha in [("a",), ("b",), ("a", "b")]:
            m = dense_pushforward(space, alpha)
            sets[alpha] = credal_set_from_members(
                space, alpha, [apply(m, mu1), apply(m, mu2)]
            )
        coll = CredalCollection(space, sets)
        report = check_marginal_consistency(coll)
        # oracle: direct set comparison
        for alpha, beta in [
            (("a", "b"), ("a",)),
            (("a", "b"), ("b",)),
        ]:
            m = dense_restriction(space, alpha, beta)
            image = {apply(m, v) for v in sets[alpha].members()}
            expected = image == set(sets[beta].members())
            records = [
                r
                for r in report.records
                if r.alpha == alpha and r.beta == beta
            ]
            assert all(r.status == "pass" for r in records) == expected


def validate(coll):
    return check_permutation_consistency(coll), check_marginal_consistency(coll)


def comparison_set(coll, rec):
    """The set a failing marginal record's certificate separates its
    witness from: V_beta, or the restriction of V_alpha onto beta."""
    if rec.direction == "restriction within supplied set":
        return coll.sets[rec.beta]
    idx = restriction_matrix(coll.space, rec.alpha, rec.beta)
    return credal._pushforward_set(coll.sets[rec.alpha], idx, rec.beta)


class TestValidateBySubstitution:
    """Validate decides each inclusion between sets given by vertices by
    substituting points into integer rows, and a failing record's
    certificate is read off a violated row, so it runs no LP."""

    def test_consistent_family_runs_no_lp(self, monkeypatch):
        """Sets read from a model by their vertices, with the 2-tuples'
        permuted variants supplied too, validate with no LP."""
        rng = random.Random(402)
        for _ in range(3):
            space, coll, _ = generated_instance(rng, 3)
            sets = dict(parse_model(collection_to_model(coll))[1].sets)
            for alpha in [t for t in coll.sets if len(t) == 2]:
                swapped = alpha[::-1]
                image = coll.credal_set(swapped).body.points
                sets[swapped] = credal_set_from_vertices(space, swapped, image)
            supplied = CredalCollection(space, sets, policy=SUPPLIED)
            with monkeypatch.context() as m:
                for module in (pt, credal):
                    m.setattr(module, "lp_solve", None)  # any LP would fail
                reports = validate(supplied)
            assert all(report.passed for report in reports)
            assert any(r.beta == swapped and r.status == "pass"
                       for r in reports[0].records)

    def test_clash_certificates_need_no_lp(self, monkeypatch):
        """An inconsistent family validates with no LP, and every failing
        record's certificate re-verifies."""
        for seed in (5, 61, 62):
            _, coll = clash_instance(random.Random(seed), 3)
            with monkeypatch.context() as m:
                for module in (pt, credal):
                    m.setattr(module, "lp_solve", None)  # any LP would fail
                reports = validate(coll)
            failures = [r for report in reports for r in report.failures()]
            assert failures
            for rec in failures:
                assert verify_witness_certificate(
                    rec.certificate, comparison_set(coll, rec)
                )


def replaced(coll, alpha, cset):
    """coll with the set of alpha replaced by cset (None: left out)."""
    sets = dict(coll.sets)
    if cset is None:
        del sets[alpha]
    else:
        sets[alpha] = cset
    return CredalCollection(coll.space, sets, policy=coll.policy)


def direct_pairs(monkeypatch):
    """Record (alpha, beta, directions) of each pair the marginal check
    decides directly."""
    calls = []
    real = credal._marginal_pair

    def spy(coll, alpha, beta, directions):
        calls.append((alpha, beta, tuple(directions)))
        return real(coll, alpha, beta, directions)

    monkeypatch.setattr(credal, "_marginal_pair", spy)
    return calls


class TestMarginalComposition:
    """The marginal check decides the pairs that drop one coordinate and
    reads the longer ones off compositions of restrictions; its records
    are those of deciding every pair directly, witnesses and
    certificates included."""

    def assert_parity(self, coll):
        report = check_marginal_consistency(coll)
        assert report.records == marginal_consistency_reference(coll).records
        return report

    def test_consistent_families(self):
        rng = random.Random(701)
        for n in (3, 3, 4, 4):
            _, coll, _ = generated_instance(rng, n)
            assert self.assert_parity(coll).passed

    def test_clash_families(self):
        for seed, n in ((5, 3), (61, 3), (62, 4), (3, 4)):
            _, coll = clash_instance(random.Random(seed), n)
            assert self.assert_parity(coll).failures()

    def test_finite_and_mixed_collections(self):
        rng = random.Random(702)
        failing = 0
        for n, hulls in ((3, ()), (4, ()), (3, (("a",),)),
                         (4, (("a", "b"), ("c",), ("a", "b", "c", "d")))):
            space, coll = members_instance(rng, n, hulls)
            assert self.assert_parity(coll).passed == (not hulls)
            # one member more in a finite 2-tuple set
            alpha = next(t for t in coll.sets if len(t) == 2 and t not in hulls)
            extra = random_simplex_point(rng, 4)
            grown = credal_set_from_members(
                space, alpha, (*coll.sets[alpha].members(), extra))
            failing += len(self.assert_parity(replaced(coll, alpha, grown)).failures())
        assert failing

    def test_supplied_permuted_tuples(self):
        rng = random.Random(703)
        for n in (3, 4):
            _, coll, _ = generated_instance(rng, n)
            assert self.assert_parity(supplied_variants(coll)).passed
        _, coll = clash_instance(random.Random(5), 3)
        assert self.assert_parity(supplied_variants(coll)).failures()
        _, coll = members_instance(rng, 3, (("b", "c"),))
        assert self.assert_parity(supplied_variants(coll)).failures()

    def test_intermediate_tuples_not_supplied(self, monkeypatch):
        """With no 2-tuple over a supplied, (a, b, c) onto (a,) has no
        tuple between them and is decided directly."""
        rng = random.Random(704)
        for make in (lambda: generated_instance(rng, 3)[1],
                     lambda: clash_instance(random.Random(5), 3)[1],
                     lambda: members_instance(rng, 3)[1]):
            coll = make()
            for alpha in (("a", "b"), ("a", "c")):
                coll = replaced(coll, alpha, None)
            calls = direct_pairs(monkeypatch)
            self.assert_parity(coll)
            assert (("a", "b", "c"), ("a",), ("restriction within supplied set",
                                               "supplied set within restriction")) in calls

    def test_failing_step_decides_the_pair_directly(self, monkeypatch):
        """V_(a) a point outside a's marginal range: (a, b, c) onto (a, b)
        passes both directions but (a, b) onto (a,) fails both, so
        (a, b, c) onto (a,) is decided directly, and its failing records
        carry certificates that re-verify."""
        _, coll = clash_instance(random.Random(5), 3)
        calls = direct_pairs(monkeypatch)
        report = self.assert_parity(coll)
        status = {(r.alpha, r.beta, r.direction): r.status for r in report.records}
        full, mid, one = ("a", "b", "c"), ("a", "b"), ("a",)
        for direction in ("restriction within supplied set",
                          "supplied set within restriction"):
            assert status[full, mid, direction] == "pass"
            assert status[mid, one, direction] == "fail"
        assert (full, one, ("restriction within supplied set",
                            "supplied set within restriction")) in calls
        failed = [r for r in report.failures() if (r.alpha, r.beta) == (full, one)]
        assert len(failed) == 2
        for rec in failed:
            assert rec.witness is not None
            assert verify_witness_certificate(rec.certificate, comparison_set(coll, rec))

    def test_one_direction_composes(self, monkeypatch):
        """V_(a) a point inside a's marginal range: "supplied set within
        restriction" composes for (a, b, c) onto (a,), and only
        "restriction within supplied set" is decided directly, failing
        with a certificate that re-verifies."""
        rng = random.Random(705)
        while True:
            space, coll, _ = generated_instance(rng, 3)
            ends = sorted(p[0] for p in coll.sets[("a",)].body.points)
            if ends[0] < ends[-1]:
                break
        q = (ends[0] + ends[-1]) / 2
        coll = replaced(coll, ("a",), credal_set_from_vertices(space, ("a",), [(q, 1 - q)]))
        calls = direct_pairs(monkeypatch)
        report = self.assert_parity(coll)
        full, one = ("a", "b", "c"), ("a",)
        assert [c for c in calls if c[:2] == (full, one)] == [
            (full, one, ("restriction within supplied set",))]
        [rec] = [r for r in report.failures() if (r.alpha, r.beta) == (full, one)]
        assert rec.direction == "restriction within supplied set"
        assert verify_witness_certificate(rec.certificate, comparison_set(coll, rec))

    @pytest.mark.parametrize("n, direct", [(3, 9), (4, 28)])
    def test_direct_pairs_drop_one_coordinate(self, monkeypatch, n, direct):
        """On a consistent family with every tuple supplied, only the
        pairs that drop one coordinate are decided directly."""
        _, coll, _ = generated_instance(random.Random(706), n)
        calls = direct_pairs(monkeypatch)
        assert check_marginal_consistency(coll).passed
        assert len(calls) == direct
        assert all(len(alpha) - len(beta) == 1 for alpha, beta, _ in calls)


class TestExpectations:
    def test_indicator_over_full_simplex(self):
        cset = full_simplex_set(AB, ("a",))
        f = (1, 0)
        assert lower_expectation(cset, f) == 0
        assert upper_expectation(cset, f) == 1

    def test_constant_functional(self):
        cset = full_simplex_set(AB, ("a",))
        f = (F(3, 7), F(3, 7))
        assert lower_expectation(cset, f) == F(3, 7)
        assert upper_expectation(cset, f) == F(3, 7)

    def test_segment_bounds_lp_vs_endpoints(self):
        cset = credal_set_from_hrep(
            AB, ("a",), ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))]
        )
        f = (1, 0)
        assert lower_expectation(cset, f) == F(1, 3)
        assert upper_expectation(cset, f) == F(2, 3)
        # endpoints oracle
        endpoints = [(F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))]
        assert min(dot(f, e) for e in endpoints) == F(1, 3)
        assert max(dot(f, e) for e in endpoints) == F(2, 3)

    def test_lp_equals_vertex_enumeration_random(self):
        rng = random.Random(200)
        for _ in range(25):
            dim = rng.choice([2, 4])
            pts = [random_simplex_point(rng, dim) for _ in range(rng.randint(1, 5))]
            tup = ("a",) if dim == 2 else ("a", "b")
            cset = credal_set_from_vertices(AB, tup, pts)
            f = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
            assert lower_expectation(cset, f) == min(dot(f, v) for v in pts)
            assert upper_expectation(cset, f) == max(dot(f, v) for v in pts)

    def test_generators_match_hull_weight_lp_with_no_lp(self, monkeypatch):
        """A generator-form body's bound is its best generator: the value
        of the LP over hull weights, found with no LP."""
        rng = random.Random(201)
        for _ in range(25):
            dim = rng.choice([2, 4])
            pts = [random_simplex_point(rng, dim) for _ in range(rng.randint(1, 5))]
            cset = credal_set_from_vertices(AB, ("a",) if dim == 2 else ("a", "b"), pts)
            f = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
            gens = cset.body.points
            bounds = []
            for g in (f, tuple(-v for v in f)):
                outcome = rational_lp(
                    "max", [dot(g, v) for v in gens], [([F(1)] * len(gens), EQ, F(1))],
                )
                bounds.append(outcome.value)
            with monkeypatch.context() as m:
                for module in (pt, credal):
                    m.setattr(module, "lp_solve", None)  # any LP would fail
                assert upper_expectation(cset, f) == bounds[0]
                assert lower_expectation(cset, f) == -bounds[1]

    def test_body_with_both_forms_reads_its_generators(self, monkeypatch):
        """Once an H-rep body has its vertices, its bounds are read off
        them with no LP, and equal the LP's."""
        cset = credal_set_from_hrep(
            AB, ("a", "b"), ineqs=[((-1, -1, 0, 0), F(-1, 3)), ((0, 1, 0, 1), F(3, 4))]
        )
        f = (F(2), F(-1, 3), F(0), F(5, 2))
        expected = (lower_expectation(cset, f), upper_expectation(cset, f))
        cset.body.xs  # noqa: B018 (the double description adds the generators)
        with monkeypatch.context() as m:
            for module in (pt, credal):
                m.setattr(module, "lp_solve", None)  # any LP would fail
            assert (lower_expectation(cset, f), upper_expectation(cset, f)) == expected

    def test_finite_mode_enumeration(self):
        cset = credal_set_from_members(
            AB, ("a",), [(F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))]
        )
        assert lower_expectation(cset, (1, 0)) == F(1, 3)
        assert upper_expectation(cset, (1, 0)) == F(1, 2)


class TestExtendMeasure:
    def test_uniform_split(self):
        assert extend_measure(3, [(0, 1), (2,)], [F(1, 2), F(1, 2)]) == (
            F(1, 4),
            F(1, 4),
            F(1, 2),
        )

    def test_singleton_partition_is_identity(self):
        masses = [F(1, 6), F(1, 3), F(1, 2)]
        assert extend_measure(3, [(0,), (1,), (2,)], masses) == tuple(masses)

    def test_reaggregation_oracle_random(self):
        rng = random.Random(300)
        for _ in range(20):
            size = 8
            indices = list(range(size))
            rng.shuffle(indices)
            atoms = []
            while indices:
                k = rng.randint(1, min(3, len(indices)))
                atoms.append(tuple(indices[:k]))
                indices = indices[k:]
            masses = random_simplex_point(rng, len(atoms))
            out = extend_measure(size, atoms, masses)
            assert sum(out) == 1 and all(v >= 0 for v in out)
            for atom, mass in zip(atoms, masses):
                assert sum(out[i] for i in atom) == mass

    def test_bad_partitions(self):
        with pytest.raises(DimensionError):
            extend_measure(3, [(0, 1), (1, 2)], [F(1, 2), F(1, 2)])
        with pytest.raises(DimensionError):
            extend_measure(3, [(0, 1)], [F(1)])
        with pytest.raises(DimensionError):
            extend_measure(3, [(0, 1), (2,)], [F(1, 3), F(1, 3)])

    @pytest.mark.parametrize("point", [1.5, True, 1.0, "1"], ids=repr)
    def test_non_integer_atom_point(self, point):
        # 1.5 and True used to be read as int(1.5) = 1 and int(True) = 1
        with pytest.raises(DimensionError, match="not an integer"):
            extend_measure(2, [[0], [point]], ["1/2", "1/2"])


class TestClosednessWitness:
    def test_polytope_mode_delegates_to_separation(self):
        cset = credal_set_from_hrep(
            AB, ("a",), ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))]
        )
        cert = closedness_witness(cset, (F(5, 6), F(1, 6)))
        assert pt.verify_separation(cert, cset.body)

    def test_finite_mode_outside_hull(self):
        cset = credal_set_from_members(AB, ("a",), [(F(1, 2), F(1, 2))])
        cert = closedness_witness(cset, (F(1), F(0)))
        assert isinstance(cert, pt.SeparationCertificate)
        assert verify_witness_certificate(cert, cset)

    def test_finite_mode_interior_point_gets_family(self):
        cset = credal_set_from_members(
            AB, ("a",), [point_mass(2, 0), point_mass(2, 1)]
        )
        cert = closedness_witness(cset, uniform_measure(2))
        assert isinstance(cert, FiniteSeparation)
        assert verify_finite_separation(cert)
        assert cert.gap == F(1, 2)

    def test_member_point_rejected(self):
        cset = credal_set_from_members(AB, ("a",), [uniform_measure(2)])
        with pytest.raises(pt.NotSeparableError):
            closedness_witness(cset, uniform_measure(2))
