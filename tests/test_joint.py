import random
import re
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from operator import mul

import pytest

import credalkit.exactq as eq
import credalkit.polytope as pt
import credalkit.spaces as sp
from credalkit import _backend
from credalkit.credal import (
    POLYTOPE,
    SUPPLIED,
    ConsistencyReport,
    CredalCollection,
    _body_subset,
    check_marginal_consistency,
    check_permutation_consistency,
    credal_set_from_hrep,
    credal_set_from_members,
    credal_set_from_vertices,
)
from credalkit.exactq import EQ, LE, DimensionError, _integer_row, dot
import credalkit.joint as jt
from credalkit.joint import (
    SIMPLEX_ORIGIN,
    EmptyJointError,
    _assemble,
    _diagnose,
    ModeError,
    ResourceCapError,
    build_joint,
    preimage_set,
    property_suite,
    pushforward_joint,
    representative_tuples,
    verify_representation,
)
from credalkit.spaces import (
    all_canonical_tuples,
    make_space,
    point_mass,
    pull,
    pushforward_matrix,
    restriction_matrix,
    tuple_covers,
    uniform_measure,
)
from gen import (
    clash_instance,
    enlarged_full_tuple,
    generated_instance,
    pushforward_collection,
    random_simplex_point,
    supplied_variants,
)
from oracles import (
    apply,
    context_decide_reference,
    context_maximize_reference,
    covering_q,
    deletion_filter_reference,
    dense_pushforward,
    drop_relation_reference,
    equality_relations_reference,
    equals,
    feasible_point_reference,
    fraction_feasible,
    fraction_points,
    matrix_rank,
    property_suite_reference,
    redundant_rows_reference,
    representation_reference,
)

AB = make_space(("a", "b"), ("0", "1"))
ABC = make_space(("a", "b", "c"), ("0", "1"))


def full_collection(space):
    return CredalCollection(
        space,
        {t: credal_set_from_hrep(space, t) for t in all_canonical_tuples(space)},
    )


def singleton_collection(space):
    """All sets pin the uniform law: the classical product construction."""
    sets = {}
    for t in all_canonical_tuples(space):
        dim = space.n_outcomes ** len(t)
        sets[t] = credal_set_from_vertices(space, t, [uniform_measure(dim)])
    return CredalCollection(space, sets)


def inconsistent_collection(space=AB):
    return CredalCollection(
        space,
        {
            ("a",): credal_set_from_vertices(space, ("a",), [point_mass(2, 0)]),
            ("b",): credal_set_from_hrep(space, ("b",)),
            ("a", "b"): credal_set_from_vertices(
                space, ("a", "b"), [point_mass(4, 3)]
            ),
        },
    )


def forced_failure_collection(joint_points=(uniform_measure(4),)):
    """Marginals prescribed as the full simplex, the joint set pinned to
    the hull of laws with uniform marginals (by default uniform alone):
    the pushforward cannot reach the extreme points."""
    return CredalCollection(
        AB,
        {
            ("a",): credal_set_from_hrep(AB, ("a",)),
            ("b",): credal_set_from_hrep(AB, ("b",)),
            ("a", "b"): credal_set_from_vertices(AB, ("a", "b"), joint_points),
        },
    )


class TestPreimage:
    def test_full_simplex_gives_ambient(self):
        coll = full_collection(AB)
        pre = preimage_set(coll, ("a",))
        assert equals(pre, pt.Polytope.simplex(4))

    def test_full_tuple_singleton(self):
        coll = singleton_collection(AB)
        pre = preimage_set(coll, ("a", "b"))
        assert pt.dd_convert(pre).points == (uniform_measure(4),)

    def test_marginal_segment_rows_by_hand(self):
        seg = credal_set_from_hrep(
            AB, ("a",), ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))]
        )
        coll = CredalCollection(
            AB,
            {
                ("a",): seg,
                ("b",): credal_set_from_hrep(AB, ("b",)),
                ("a", "b"): credal_set_from_hrep(AB, ("a", "b")),
            },
        )
        pre = preimage_set(coll, ("a",))
        # hand expansion: 1/3 <= p00+p01 <= 2/3 inside the path simplex
        expected = pt.Polytope.from_hrep(
            4,
            ineqs=list(pt.Polytope.simplex(4).hrep.ineqs)
            + [((-1, -1, 0, 0), F(-1, 3)), ((1, 1, 0, 0), F(2, 3))],
            eqs=pt.Polytope.simplex(4).hrep.eqs,
        )
        assert equals(pre, expected)

    def test_finite_mode_rejected(self):
        coll = CredalCollection(
            AB,
            {("a",): credal_set_from_members(AB, ("a",), [uniform_measure(2)])},
        )
        with pytest.raises(ModeError):
            preimage_set(coll, ("a",))


class TestBuildJoint:
    def test_full_simplices_give_path_simplex(self):
        joint = build_joint(full_collection(ABC))
        assert not joint.is_empty()
        assert equals(joint.body, pt.Polytope.simplex(8))

    def test_singletons_degenerate_to_product(self):
        joint = build_joint(singleton_collection(ABC))
        pts = pt.dd_convert(joint.body).points
        assert pts == (uniform_measure(8),)

    def test_inconsistent_family_is_empty_with_provenance(self):
        joint = build_joint(inconsistent_collection())
        assert joint.is_empty()
        diag = joint.diagnosis
        assert diag is not None
        assert set(diag.offending_tuples) == {("a",), ("a", "b")}
        # the Farkas combination is exactly verifiable on the core rows
        combined_rhs = 0
        dim = 4
        combined = [0] * dim
        for (coeffs, sense, rhs, _), mult in zip(diag.rows, diag.multipliers):
            flip = -1 if sense == ">=" else 1
            for j in range(dim):
                combined[j] += mult * flip * coeffs[j]
            combined_rhs += mult * flip * rhs
        assert all(c >= 0 for c in combined)
        assert combined_rhs < 0

    def test_coverage_enforced(self):
        coll = CredalCollection(
            AB, {("a",): credal_set_from_hrep(AB, ("a",))}
        )
        with pytest.raises(DimensionError):
            build_joint(coll)

    def test_mixed_modes_rejected(self):
        coll = CredalCollection(
            AB,
            {
                ("a",): credal_set_from_members(AB, ("a",), [uniform_measure(2)]),
                ("b",): credal_set_from_hrep(AB, ("b",)),
                ("a", "b"): credal_set_from_hrep(AB, ("a", "b")),
            },
        )
        with pytest.raises(ModeError):
            build_joint(coll)

    def test_monotone_under_extra_constraints(self):
        rng = random.Random(400)
        _, coll, _ = generated_instance(rng, 2)
        joint = build_joint(coll)
        # shrink one set: joint can only shrink
        tightened = dict(coll.sets)
        alpha = ("a",)
        body = pt.dd_convert(tightened[alpha].body)
        extra = pt.Polytope.from_hrep(
            2,
            ineqs=list(body.hrep.ineqs) + [((1, 0), F(1, 2))],
            eqs=body.hrep.eqs,
        )
        if extra.is_empty():
            pytest.skip("tightening emptied the set for this seed")
        from credalkit.credal import POLYTOPE, CredalSet

        tightened[alpha] = CredalSet(coll.space, alpha, POLYTOPE, extra)
        joint2 = build_joint(CredalCollection(coll.space, tightened))
        if not joint2.is_empty():
            holds, _ = pt.is_subset(joint2.body, joint.body)
            assert holds


class TestFiniteCells:
    def build_two_member(self, seed=7):
        rng = random.Random(seed)
        while True:
            mu1 = random_simplex_point(rng, 4)
            mu2 = random_simplex_point(rng, 4)
            sets = {}
            distinct = True
            for alpha in [("a",), ("b",), ("a", "b")]:
                m = dense_pushforward(AB, alpha)
                members = [apply(m, mu1), apply(m, mu2)]
                if members[0] == members[1]:
                    distinct = False
                sets[alpha] = credal_set_from_members(AB, alpha, members)
            if distinct:
                return CredalCollection(AB, sets), (mu1, mu2)

    def test_cells_match_exhaustive_selection(self):
        coll, (mu1, mu2) = self.build_two_member()
        joint = build_joint(coll)
        assert joint.mode == "finite"
        assert {c.point for c in joint.cells} == {mu1, mu2}
        # oracle: enumerate selections and keep the consistent ones
        from itertools import product

        reps = representative_tuples(coll)
        mats = {t: dense_pushforward(AB, t) for t in reps}
        survivors = set()
        for choice in product(*(coll.sets[t].members() for t in reps)):
            sel = dict(zip(reps, choice))
            full = sel[("a", "b")]
            if all(apply(mats[t], full) == v for t, v in sel.items()):
                survivors.add(full)
        assert {c.point for c in joint.cells} == survivors

    def test_pushforwards_reproduce_members(self):
        coll, _ = self.build_two_member()
        joint = build_joint(coll)
        for alpha in [("a",), ("b",), ("a", "b"), ("b", "a")]:
            image = pushforward_joint(joint, alpha)
            m = dense_pushforward(AB, alpha)
            expected = sorted({apply(m, c.point) for c in joint.cells})
            assert list(image.members()) == expected

    def test_cap_enforced(self):
        coll, _ = self.build_two_member()
        message = r"^selection enumeration needs \d+ cells, over the cap of 7$"
        with pytest.raises(ResourceCapError, match=message):
            build_joint(coll, cell_cap=7)
        assert ResourceCapError is pt.ResourceCapError

    def test_empty_finite_joint_diagnosed(self):
        coll = CredalCollection(
            AB,
            {
                ("a",): credal_set_from_members(AB, ("a",), [point_mass(2, 0)]),
                ("b",): credal_set_from_members(AB, ("b",), [point_mass(2, 1)]),
                ("a", "b"): credal_set_from_members(
                    AB, ("a", "b"), [point_mass(4, 3)]
                ),
            },
        )
        joint = build_joint(coll)
        assert joint.is_empty()
        assert joint.diagnosis
        named = {
            t
            for d in joint.diagnosis
            for t in d.diagnosis.offending_tuples
        }
        assert ("a",) in named
        with pytest.raises(EmptyJointError):
            pushforward_joint(joint, ("a",))


def random_infeasible_system(rng, dim, inconsistent_copy):
    """An empty system in deletion-filter form: the path simplex rows,
    equality rows through two different points of the simplex, a few
    inequality rows (some redundant on the simplex), and equality rows
    that depend on the others: a duplicate, a scaled copy and a sum, and
    with `inconsistent_copy` a copy with another rhs. Every row is put in
    canonical integer form, as the build's rows are; credal-origin rows
    come in random order."""
    origins = [("a",), ("b",), ("a", "b")]
    simplex = pt.Polytope.simplex(dim).hrep
    while True:
        x = random_simplex_point(rng, dim)
        y = random_simplex_point(rng, dim)
        eqs = []
        for point in (x, y, x, y)[: rng.randint(2, 4)]:
            e = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            eqs.append((e, dot(e, point)))
        ineqs = []
        for _ in range(rng.randint(1, 4)):
            a = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            ineqs.append((a, dot(a, x) + F(rng.randint(0, 2), 2)))
        a = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        ineqs.append((a, max(a) + 1))  # holds on the whole simplex
        rows = [(c, LE, b) for c, b in list(simplex.ineqs) + ineqs]
        rows += [(c, EQ, b) for c, b in list(simplex.eqs) + eqs]
        if not fraction_feasible(dim, rows):
            break
    (e1, f1), (e2, f2) = rng.sample(eqs, 2)
    k = rng.choice([F(2), F(-3), F(1, 2), F(-5, 3)])
    eqs.append((e1, f1))
    eqs.append((tuple(k * c for c in e2), k * f2))
    eqs.append((tuple(u + v for u, v in zip(e1, e2)), f1 + f2))
    if inconsistent_copy:
        e, f = rng.choice(eqs)
        eqs.append((e, f + 1))
    ineqs = [row for row in (pt._canon_ineq(*r) for r in ineqs) if row is not None]
    eqs = [row for row in (pt._canon_eq(*r) for r in eqs) if row is not None]
    ineq_rows = [(row, rng.choice(origins)) for row in ineqs]
    eq_rows = [(row, rng.choice(origins)) for row in eqs]
    rng.shuffle(ineq_rows)
    rng.shuffle(eq_rows)
    return (
        [(row, SIMPLEX_ORIGIN) for row in simplex.ineqs] + ineq_rows,
        [(row, SIMPLEX_ORIGIN) for row in simplex.eqs] + eq_rows,
    )


def counted_diagnose(monkeypatch, dim, ineqs, eqs, certificate):
    """_diagnose's result, the LPs it ran (the filter's, in polytope, and
    the last one, in joint) and its rule 2 substitutions: its integer
    certificate checks but the seed's and the last LP's."""
    counts = {"lps": 0, "substitutions": 0}
    check = jt._check_infeasible

    def counting(solve):
        def counting_solve(problem):
            counts["lps"] += 1
            return solve(problem)
        return counting_solve

    def counting_check(*args):
        counts["substitutions"] += 1
        return check(*args)

    with monkeypatch.context() as m:
        for module in (jt, pt):
            m.setattr(module, "lp_solve", counting(module.lp_solve))
        m.setattr(jt, "_check_infeasible", counting_check)
        diag = _diagnose(dim, ineqs, eqs, certificate)
    counts["substitutions"] -= 2
    return diag, counts


def seed_certificate(dim, ineqs, eqs):
    """The certificate `_feasible_point` proves the whole system empty
    with, as the build passes it to `_diagnose`."""
    context, certificate = pt._feasible_point(jt._system_polytope(dim, ineqs, eqs).hrep)
    assert context is None
    return certificate


def reference_seed_certificate(dim, ineqs, eqs):
    """The certificate of the reference feasibility LP over all rows."""
    status, _, certificate = feasible_point_reference(
        jt._system_polytope(dim, ineqs, eqs)
    )
    assert status == "infeasible"
    return certificate


def assert_matches_reference(monkeypatch, dim, ineqs, eqs):
    """`_diagnose` returns the reference's rows, multipliers and tuples
    seeded with either certificate (`_feasible_point`'s, as the build
    seeds it, or the reference LP's), each time with fewer LPs; returns
    the rule 2 substitutions and the diagnosis of the run seeded as the
    build seeds it."""
    rows, multipliers, offending, ref_lps = deletion_filter_reference(dim, ineqs, eqs)
    runs = []
    for seed in (seed_certificate, reference_seed_certificate):
        diag, counts = counted_diagnose(
            monkeypatch, dim, ineqs, eqs, seed(dim, ineqs, eqs)
        )
        assert (diag.rows, diag.multipliers, diag.offending_tuples) == (
            rows, multipliers, offending
        )
        assert counts["lps"] < ref_lps
        runs.append((counts["substitutions"], diag))
    return runs[0]


def dead_finite_collection(seed, members):
    """A finite-mode collection on ABC with random members, `members[alpha]`
    of them for alpha (default 1); its selections are all dead."""
    rng = random.Random(seed)
    sets = {}
    for alpha in all_canonical_tuples(ABC):
        dim = 2 ** len(alpha)
        points = {random_simplex_point(rng, dim)
                  for _ in range(members.get(alpha, 1))}
        sets[alpha] = credal_set_from_members(ABC, alpha, sorted(points))
    return CredalCollection(ABC, sets)


def row_set(ineqs, eqs):
    return {(a, LE, b) for (a, b), _ in ineqs} | {(e, EQ, f) for (e, f), _ in eqs}


def recorded_systems(monkeypatch, dim, coll):
    """`build_joint(coll)`, the system of each LP it ran over the path
    space (the LP's rows plus a unit row -x_j <= 0 for each bounded x_j),
    and the system of each `_feasible_point` call, with the column counts
    of the LPs that call ran."""
    systems = []
    decided = []
    current = [None]  # the LP column counts of the running call

    def recording(solve):
        def recording_solve(problem):
            if current[0] is not None:
                current[0].append(len(problem.objective))
            if len(problem.objective) == dim:
                system = {(tuple(nums[:-1]), sense, F(nums[-1], den))
                          for nums, sense, den in problem.rows}
                for j, bounded in enumerate(problem.nonneg):
                    if bounded:
                        unit = tuple(F(-1) if k == j else F(0) for k in range(dim))
                        system.add((unit, LE, F(0)))
                systems.append(system)
            return solve(problem)
        return recording_solve

    real = pt._feasible_point

    def recording_feasible(h, candidate=None):
        rows = {(a, LE, b) for a, b in h.ineqs} | {(e, EQ, f) for e, f in h.eqs}
        decided.append((rows, []))
        current[0] = decided[-1][1]
        try:
            return real(h, candidate)
        finally:
            current[0] = None

    with monkeypatch.context() as m:
        for module in (jt, pt):
            m.setattr(module, "lp_solve", recording(module.lp_solve))
        m.setattr(pt, "_feasible_point", recording_feasible)
        joint = build_joint(coll)
    return joint, systems, decided


def hull_events(monkeypatch):
    """Counts of the filter's rule-3 steps by the state of its hull:
    "no lp", decided while the active equality rows are inconsistent;
    "restored", a step whose dropped row of B gives the hull its origin
    and whose subsystem is infeasible, so the drop restores consistency;
    "kept", the same with a feasible subsystem; "rule 1", a row of B
    dropped at weight 0 that gives the hull its origin."""
    events = {"no lp": 0, "restored": 0, "kept": 0, "rule 1": 0}
    anchored = []  # hulls whose origin their last row's drop gave
    widened, decide = jt._FilterHull.widened, jt._FilterHull.decide

    def widening(hull, j, holding):
        out = widened(hull, j, holding)
        if hull.origin is None and out.origin is not None:
            anchored.append(out)
        return out

    def deciding(hull, ineq_keep, eq_keep):
        context, certificate = decide(hull, ineq_keep, eq_keep)
        if hull.origin is None:
            events["no lp"] += 1
        elif any(h is hull for h in anchored):
            events["kept" if certificate is None else "restored"] += 1
            anchored.remove(hull)
        return context, certificate

    monkeypatch.setattr(jt._FilterHull, "widened", widening)
    monkeypatch.setattr(jt._FilterHull, "decide", deciding)

    def finish():
        # a hull anchored by a row's drop and never decided: rule 1
        events["rule 1"] += len(anchored)
        anchored.clear()
        return events

    return finish


def assert_minimal_core(dim, diag):
    """The core is empty, and leaving out any credal-origin row of it
    leaves a nonempty system, by the Fraction simplex."""
    core = [(coeffs, sense, rhs) for coeffs, sense, rhs, _ in diag.rows]
    assert not fraction_feasible(dim, core)
    for k, row in enumerate(diag.rows):
        if row[3] != SIMPLEX_ORIGIN:
            assert fraction_feasible(dim, core[:k] + core[k + 1:])


class TestDiagnose:
    """The certificate-guided deletion filter against the one-LP-per-row
    reference: the same core rows in order, the same multipliers and
    tuples, and fewer LPs."""

    def test_random_systems_match_reference(self, monkeypatch):
        rng = random.Random(808)
        substitutions = 0
        for case in range(24):
            dim = rng.randint(3, 5)
            ineqs, eqs = random_infeasible_system(rng, dim, case % 3 == 0)
            # three equality rows depend on the others, and each is
            # dropped with no LP
            found, diag = assert_matches_reference(monkeypatch, dim, ineqs, eqs)
            assert_minimal_core(dim, diag)
            substitutions += found
        assert substitutions

    def test_inconsistent_equality_rows_match_reference(self, monkeypatch):
        """Empty systems whose full equality rows are inconsistent, as
        random systems with a copy of an equality row at another rhs and
        as finite-mode dead selections: the reference's rows, multipliers
        and tuples from either seed. Until a dropped row of B gives the
        hull an origin, every rule-3 step is decided with no LP; rule-3
        drops that restore consistency, and steps that keep such a row,
        both occur."""
        finish = hull_events(monkeypatch)
        rng = random.Random(909)
        inconsistent = 0
        for _ in range(16):
            dim = rng.randint(3, 5)
            ineqs, eqs = random_infeasible_system(rng, dim, True)
            inconsistent += pt.LpContext.eliminated(
                jt._system_polytope(dim, ineqs, eqs).hrep) is None
            _, diag = assert_matches_reference(monkeypatch, dim, ineqs, eqs)
            assert_minimal_core(dim, diag)
        assert inconsistent == 16
        coll = dead_finite_collection(6, {("a",): 2, ("b",): 2, ("a", "b"): 2})
        joint = build_joint(coll)
        reps = representative_tuples(coll)
        for d in joint.diagnosis:
            ineqs, eqs = _assemble(coll, reps, selections=dict(d.selection))
            body = jt._system_polytope(8, ineqs, eqs)
            assert pt.LpContext.eliminated(body.hrep) is None
            _, diag = assert_matches_reference(monkeypatch, 8, ineqs, eqs)
            assert (d.diagnosis.rows, d.diagnosis.multipliers,
                    d.diagnosis.offending_tuples) == (
                diag.rows, diag.multipliers, diag.offending_tuples
            )
        events = finish()
        assert events["no lp"] and events["restored"] and events["kept"], events

    def test_eliminations_do_not_grow_with_the_steps(self, monkeypatch):
        """One `_diagnose` runs the same three eliminations whether rule 3
        decides one row or many: the equality rows' own, the square solve
        of their right inverse, and the last LP's. A step eliminates
        nothing; it runs at most one LP."""
        runs = {}
        rng = random.Random(4242)
        for _ in range(40):
            dim = rng.randint(3, 5)
            ineqs, eqs = random_infeasible_system(rng, dim, False)
            certificate = seed_certificate(dim, ineqs, eqs)
            counts = {"elim": 0, "steps": 0}

            def counting(key, fn):
                def wrapped(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapped

            real = eq.echelon
            with monkeypatch.context() as m:
                for module in (eq, pt, jt):
                    m.setattr(module, "echelon", counting("elim", real), raising=False)
                m.setattr(pt, "lp_solve", counting("steps", pt.lp_solve))
                _diagnose(dim, ineqs, eqs, certificate)
            runs.setdefault(counts["steps"], set()).add(counts["elim"])
        assert min(runs) <= 1 and max(runs) >= 4, runs
        assert runs[min(runs)] == runs[max(runs)] == {3}, runs

    def test_build_diagnosis_matches_reference(self, monkeypatch):
        rng = random.Random(61)
        for _ in range(2):
            space, coll = clash_instance(rng, 3)
            reps = representative_tuples(coll)
            ineqs, eqs = _assemble(coll, reps)
            joint = build_joint(coll)
            assert joint.is_empty()
            _, diag = assert_matches_reference(
                monkeypatch, space.path_count, ineqs, eqs
            )
            assert (diag.rows, diag.multipliers, diag.offending_tuples) == (
                joint.diagnosis.rows,
                joint.diagnosis.multipliers,
                joint.diagnosis.offending_tuples,
            )
            assert (space.indices[0],) in diag.offending_tuples
            assert_minimal_core(space.path_count, diag)

    def test_build_decides_emptiness_once_in_hull_coordinates(self, monkeypatch):
        """`_feasible_point` proves the whole system empty once, and the
        diagnosis starts from its certificate; no LP over all rows runs
        in the path space's columns, and every LP deciding a system's
        emptiness runs over fewer columns."""
        space, coll = clash_instance(random.Random(61), 3)
        dim = space.path_count
        everything = row_set(*_assemble(coll, representative_tuples(coll)))
        joint, systems, decided = recorded_systems(monkeypatch, dim, coll)
        assert joint.is_empty() and joint.diagnosis is not None
        assert [rows for rows, _ in decided].count(everything) == 1
        assert everything not in systems
        assert all(c < dim for _, cols in decided for c in cols)

    def test_finite_selection_decides_emptiness_once_in_hull_coordinates(
        self, monkeypatch
    ):
        """Each selection's system is decided once, with no LP: the full
        tuple's member pins one point."""
        coll = dead_finite_collection(3, {("a",): 2, ("b",): 2, ("a", "b"): 2})
        joint, systems, decided = recorded_systems(monkeypatch, 8, coll)
        assert joint.is_empty() and len(joint.diagnosis) == 8
        reps = representative_tuples(coll)
        for d in joint.diagnosis:
            rows = row_set(*_assemble(coll, reps, selections=dict(d.selection)))
            assert [r for r, _ in decided].count(rows) == 1
            assert rows not in systems
        assert all(not cols for _, cols in decided)

    def test_consistent_build_runs_no_feasibility_lp(self, monkeypatch):
        """On a consistent collection every row of P holds at each vertex
        of pre(V_T), so P is pre(V_T): its emptiness is not decided, no
        LP context is built, and the joint set carries those vertices."""
        coll = generated_instance(random.Random(811), 3)[1]
        joint, systems, decided = recorded_systems(monkeypatch, 8, coll)
        assert not joint.is_empty()
        assert decided == [] and systems == []
        assert joint.body._context is None
        pulled, den = jt._pulled_vertices(coll, representative_tuples(coll)[-1])
        assert (joint.body._xs, joint.body._den) == (tuple(sorted(pulled)), den)

    def test_finite_diagnoses_the_first_dead_selections(self):
        coll = dead_finite_collection(6, {("a",): 5, ("b",): 5, ("c",): 5})
        joint = build_joint(coll)
        assert joint.is_empty()
        reps = representative_tuples(coll)
        selections = list(product(*(coll.sets[t].members() for t in reps)))
        assert len(selections) > 20
        assert [d.selection for d in joint.diagnosis] == [
            tuple(zip(reps, choice)) for choice in selections[:20]
        ]

    def test_row_combining_a_kept_row_drops_with_no_lp(self, monkeypatch):
        """x0 + x2 = 0 is the simplex row minus the later row x1 = 1; the
        simplex row stays, and so does 2 x0 = 1 before it, decided by an
        LP. The relation basis still holds both when the combined row's
        turn comes, so rule 2 drops it, with no LP, and the core and its
        multipliers are the reference's."""
        simplex = pt.Polytope.simplex(3).hrep
        kept, combined, later = ((2, 0, 0), 1), ((1, 0, 1), 0), ((0, 1, 0), 1)
        ineqs = [(row, SIMPLEX_ORIGIN) for row in simplex.ineqs]
        eqs = [(row, SIMPLEX_ORIGIN) for row in simplex.eqs]
        eqs += [(kept, ("a",)), (combined, ("b",)), (later, ("c",))]
        decided = []
        real = pt.LpContext.decide

        def recording(ctx):
            decided.append(ctx.eqs)
            return real(ctx)

        monkeypatch.setattr(pt.LpContext, "decide", recording)
        found, diag = assert_matches_reference(monkeypatch, 3, ineqs, eqs)
        assert found == 1
        assert [row for row, _, _, _ in diag.rows[3:]] == [(1, 1, 1), kept[0], later[0]]
        assert (*simplex.eqs, kept, later) not in decided  # combined's own LP
        assert (*simplex.eqs, combined, later) in decided  # kept's LP

    def test_feasible_system_raises(self):
        """No certificate proves a feasible system empty, so the integer
        check of the one passed raises."""
        simplex = pt.Polytope.simplex(3).hrep
        ineqs = [(row, SIMPLEX_ORIGIN) for row in simplex.ineqs]
        eqs = [(row, SIMPLEX_ORIGIN) for row in simplex.eqs]
        eqs.append((pt._canon_eq((F(1), F(0), F(0)), F(1, 2)), ("a",)))
        # 2 (-x0 <= 0) + (2 x0 = 1) reads 0 <= 1: the combined row is 0,
        # but its rhs is not negative
        certificate = (F(2), F(0), F(0), F(0), F(1))
        with pytest.raises(RuntimeError, match="combined rhs not violated"):
            _diagnose(3, ineqs, eqs, certificate)

    def test_wrong_last_witness_raises(self, monkeypatch):
        """The last LP's certificate is checked on the core rows. The core
        is every row: 2 x0 = 1 and x0 = 1 each need the other. A kernel
        witness on x0 = 1 alone passes the normalization to rhs -1, but
        its combined row -x0 is not 0, and the check refuses it."""
        simplex = pt.Polytope.simplex(3).hrep
        ineqs = [(row, SIMPLEX_ORIGIN) for row in simplex.ineqs]
        eqs = [(row, SIMPLEX_ORIGIN) for row in simplex.eqs]
        eqs += [(((2, 0, 0), 1), ("a",)), (((1, 0, 0), 1), ("b",))]
        certificate = seed_certificate(3, ineqs, eqs)
        assert len(_diagnose(3, ineqs, eqs, certificate).rows) == 6
        real = jt.lp_solve

        def last_lp(problem):
            with monkeypatch.context() as m:
                m.setattr(_backend, "simplex_solve",
                          lambda rows, *args: ("infeasible", None, [F(0)] * (rows - 1) + [F(1)]))
                return real(problem)

        monkeypatch.setattr(jt, "lp_solve", last_lp)
        with pytest.raises(RuntimeError, match="nonzero on a free variable"):
            _diagnose(3, ineqs, eqs, certificate)

    def test_tampered_seed_raises(self):
        rng = random.Random(17)
        ineqs, eqs = random_infeasible_system(rng, 4, False)
        good = seed_certificate(4, ineqs, eqs)
        _diagnose(4, ineqs, eqs, good)
        support = [i for i, y in enumerate(good) if y]
        bumped = list(good)
        bumped[support[-1]] += 1
        negated = list(good)
        negated[support[0]] = -negated[support[0]]
        for tampered in (bumped, negated, [F(0)] * len(good), good[:-1]):
            with pytest.raises(RuntimeError):
                _diagnose(4, ineqs, eqs, tuple(tampered))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_finite_selections_match_reference(self, monkeypatch, seed):
        coll = dead_finite_collection(
            seed, {("a",): 2, ("b",): 2, ("c",): 1, ("a", "b"): 2}
        )
        joint = build_joint(coll)
        assert joint.is_empty()
        assert len(joint.diagnosis) == 8  # every selection is dead
        reps = representative_tuples(coll)
        for d in joint.diagnosis:
            ineqs, eqs = _assemble(coll, reps, selections=dict(d.selection))
            _, diag = assert_matches_reference(monkeypatch, 8, ineqs, eqs)
            assert (d.diagnosis.rows, d.diagnosis.multipliers,
                    d.diagnosis.offending_tuples) == (
                diag.rows, diag.multipliers, diag.offending_tuples
            )


def random_relation_system(rng, dim):
    """Equality rows ((e, f), origin) in canonical integer form: random
    rows, and rows that depend on them (scaled copies and combinations,
    some with another rhs), in random order, SIMPLEX_ORIGIN rows among
    the credal-origin ones."""
    origins = [("a",), ("b",), ("a", "b"), SIMPLEX_ORIGIN]
    rows = [[rng.randint(-3, 3) for _ in range(dim + 1)]
            for _ in range(rng.randint(1, dim + 1))]
    for _ in range(rng.randint(1, 5)):
        u, v = rng.choice(rows), rng.choice(rows)
        k, h = rng.choice([1, 2, -3]), rng.choice([0, 1, -2])
        row = [k * a + h * b for a, b in zip(u, v)]
        if rng.random() < 0.25:
            row[-1] += 1
        rows.append(row)
    rng.shuffle(rows)
    eqs = []
    for row in rows:
        canon = pt._canon_eq(tuple(F(v) for v in row[:-1]), F(row[-1]))
        if canon is not None:
            eqs.append((canon, rng.choice(origins)))
    return eqs


def filter_hull(dim, eqs):
    """`joint._FilterHull` over the equality rows ((e, f), origin), taken
    in the reverse of the deletion filter's visit order, as `_diagnose`
    builds it."""
    visit = [j for j, (_, origin) in enumerate(eqs) if origin != SIMPLEX_ORIGIN]
    visit += [j for j, (_, origin) in enumerate(eqs) if origin == SIMPLEX_ORIGIN]
    return jt._FilterHull(dim, [], [row for row, _ in eqs], visit[::-1])


class TestRelationLookup:
    """`_FilterHull.expansion` against the in-place restriction of one
    relation basis at every row the filter visits: at each step a
    relation is found iff the reference finds one, and it is an integer
    relation of the rows that is nonzero at the row and 0 at every row
    visited before it. The rows with none are B, and `inverse` is a
    right inverse of their full rows."""

    def test_lookup_matches_in_place_restriction(self):
        rng = random.Random(2323)
        found = missed = 0
        for _ in range(150):
            dim = rng.randint(1, 5)
            eqs = random_relation_system(rng, dim)
            hull = filter_hull(dim, eqs)
            full = [[*e, f] for (e, f), _ in eqs]
            assert len(hull.inverse) == matrix_rank(full)
            for b in hull.inverse:
                assert [sum(map(mul, full[b], c)) for c in hull.inverse.values()] == [
                    hull.den * (i == b) for i in hull.inverse
                ]
            null = equality_relations_reference([row for row, _ in eqs], dim)
            visited = []
            for j, (_, origin) in enumerate(eqs):
                if origin == SIMPLEX_ORIGIN:
                    continue
                expected = drop_relation_reference(null, j)
                assert (j in hull.inverse) == (expected is None)
                if j in hull.inverse:
                    missed += 1
                else:
                    found += 1
                    weights, den = hull.expansion(j)
                    assert all(weights.values())
                    z = [-weights.get(k, 0) for k in range(len(eqs))]
                    z[j] += den
                    assert all(type(v) is int for v in z)
                    assert [sum(zk * row[t] for zk, row in zip(z, full))
                            for t in range(dim + 1)] == [0] * (dim + 1)
                    assert z[j] != 0
                    assert all(z[k] == 0 for k in visited)
                visited.append(j)
        assert found and missed

    def test_no_equality_rows(self):
        hull = filter_hull(3, [])
        assert hull.inverse == {} and hull.origin[:2] == ([0, 0, 0], 1)
        assert sorted(hull.basis) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_library_rows_are_ints():
    """The built joint set and a diagnosis's core rows hold int rows with
    int rhs."""
    def assert_int_rows(rows):
        for a, b in rows:
            assert type(a) is tuple and all(type(v) is int for v in (*a, b))

    coll = generated_instance(random.Random(811), 3)[1]
    joint = build_joint(coll)
    assert_int_rows((*joint.body.hrep.ineqs, *joint.body.hrep.eqs))
    empty = build_joint(clash_instance(random.Random(61), 3)[1])
    assert empty.is_empty()
    assert_int_rows([(coeffs, rhs) for coeffs, _, rhs, _ in empty.diagnosis.rows])


def redundancy_case(coll):
    """The build's system for coll, as a nonempty polytope with its LP
    context, and the vertices of pre(V_T) for the full tuple T, as
    (xs, den)."""
    reps = representative_tuples(coll)
    body = jt._system_polytope(coll.space.path_count, *_assemble(coll, reps))
    assert not body.is_empty()
    return body, jt._pulled_vertices(coll, reps[-1])


def assert_build_keeps_reference_rows(monkeypatch, coll):
    """build_joint runs no LP, keeps the rows of the reference filter on
    the build's system, and carries the vertices of that system's set."""
    body, _ = redundancy_case(coll)
    h = body.hrep
    keep = redundant_rows_reference(body.dim, h.ineqs, h.eqs)
    with monkeypatch.context() as m:
        for module in (pt, jt):
            m.setattr(module, "lp_solve", no_lp)
        joint = build_joint(coll)
    assert joint.body.hrep.ineqs == tuple(h.ineqs[i] for i in keep)
    carried = fraction_points(joint.body._xs, joint.body._den)
    assert carried == fraction_points(*pt._points_from_hrep(joint.body.hrep))
    return body, keep


def path_law_collection(space, points):
    return pushforward_collection(space, pt.Polytope.from_points(points))


class TestBuildRedundancy:
    """The build reads the kept rows off P's vertices with no LP: on a
    consistent collection P = pre(V_T), whose vertices the build already
    has, and otherwise they come from a double description of P's rows.
    Either way it keeps the rows of the reference filter."""

    @pytest.mark.parametrize("n, seed", [(2, 0), (2, 3), (3, 0), (3, 4)])
    def test_consistent_collections(self, monkeypatch, n, seed):
        _, coll, _ = generated_instance(random.Random(900 + 10 * n + seed), n)
        assert_build_keeps_reference_rows(monkeypatch, coll)

    def test_consistent_collection_t4(self, monkeypatch):
        # a triangle of path laws: the reference filter takes about a
        # minute on a generated |T| = 4 family
        rng = random.Random(943)
        space = make_space(tuple("abcd"), ("0", "1"))
        points = [random_simplex_point(rng, 16) for _ in range(3)]
        assert_build_keeps_reference_rows(monkeypatch, path_law_collection(space, points))

    def test_simplex_row_ties_with_a_tuple_row(self, monkeypatch):
        # a simplex row -x_j <= 0 and a later tuple's row cut the same
        # facet through the equality rows: the later one is kept
        _, coll, _ = generated_instance(random.Random(939), 3)
        reps = representative_tuples(coll)
        origins = [origin for _, origin in _assemble(coll, reps)[0]]
        body, keep = assert_build_keeps_reference_rows(monkeypatch, coll)
        vertices = fraction_points(*jt._pulled_vertices(coll, reps[-1]))
        tight = [
            frozenset(k for k, x in enumerate(vertices) if dot(a, x) == b)
            for a, b in body.hrep.ineqs
        ]
        ties = [
            (i, j) for i in range(len(tight)) for j in keep
            if i < j and tight[i] == tight[j]
            and origins[i] == SIMPLEX_ORIGIN != origins[j]
        ]
        assert ties and not any(i in keep for i, _ in ties)

    @pytest.mark.parametrize("points, d", [
        ([(F(1, 8),) * 8], 0),
        ([(F(1, 8),) * 8, (F(1, 4), F(0), F(1, 4), F(0), F(0), F(1, 4), F(0), F(1, 4))], 1),
    ], ids=["d0", "d1"])
    def test_low_dimensional_joint_set(self, monkeypatch, points, d):
        coll = path_law_collection(ABC, points)
        body, keep = assert_build_keeps_reference_rows(monkeypatch, coll)
        assert len(body._context.basis) == d
        assert len(keep) == 2 * d

    def test_enlarged_full_tuple_runs_no_lp(self, monkeypatch):
        # P lies strictly inside pre(V_T): some vertex of pre(V_T) violates
        # a row of P, and P's vertices come from its own rows
        _, coll, _ = generated_instance(random.Random(930), 3)
        coll = enlarged_full_tuple(coll)
        body, _ = assert_build_keeps_reference_rows(monkeypatch, coll)
        pulled = jt._pulled_vertices(coll, representative_tuples(coll)[-1])
        assert not all(pt._hull_order(body.hrep, *pulled)[1])


class TestPushforward:
    def test_path_simplex_maps_to_full(self):
        joint = build_joint(full_collection(AB))
        for alpha in [("a",), ("b",), ("a", "b"), ("b", "a")]:
            image = pushforward_joint(joint, alpha)
            dim = 2 ** len(alpha)
            assert equals(image.body, pt.Polytope.simplex(dim))

    def test_uniform_point(self):
        joint = build_joint(singleton_collection(AB))
        image = pushforward_joint(joint, ("a",))
        assert pt.dd_convert(image.body).points == (uniform_measure(2),)

    def test_random_instance_matches_prescribed(self):
        rng = random.Random(500)
        _, coll, _ = generated_instance(rng, 2)
        joint = build_joint(coll)
        for alpha, cset in coll.sets.items():
            image = pushforward_joint(joint, alpha)
            assert equals(image.body, cset.body)


def reloaded(joint):
    """The joint set as read back from a build file: its H-rep rows only,
    marked nonempty (perfbench/run.py `load_joint`)."""
    h = joint.body.hrep
    body = pt.Polytope(joint.dim, hrep=pt.HRep(joint.dim, h.ineqs, h.eqs), empty=False)
    return jt.JointModel(joint.space, POLYTOPE, body, joint.ineq_origins,
                         joint.eq_origins, (), None)


def assert_failing_record(coll, joint, rec):
    """A failing polytope-mode record's witness, certificate and lifted
    functional, re-checked by Fraction arithmetic on the vertices of the
    joint set P (`pt.dd_convert`), the image and V_alpha.

    Prescribed within pushforward: the witness is a vertex of V_alpha the
    certificate separates from the image, and the lifted functional
    bounds every vertex of P by g.witness - gap. Pushforward within
    prescribed: the witness is a vertex of the image the certificate
    separates from V_alpha, and some vertex of P reaches g.witness."""
    idx = pushforward_matrix(coll.space, rec.alpha)
    target = pt.dd_convert(coll.sets[rec.alpha].body)
    image = pt.dd_convert(pushforward_joint(joint, rec.alpha).body)
    cert, g = rec.certificate, rec.certificate.functional
    assert cert.point == rec.witness and cert.gap > 0
    assert rec.lifted_functional == pull(idx, g)
    lifted = [dot(rec.lifted_functional, p) for p in pt.dd_convert(joint.body).points]
    if rec.direction == "prescribed within pushforward":
        assert rec.witness in target.points
        assert pt.verify_separation(cert, image)
        assert max(lifted) <= dot(g, rec.witness) - cert.gap
    else:
        assert rec.witness in image.points
        assert not pt.contains_point(target, rec.witness)
        assert pt.verify_separation(cert, target)
        assert max(lifted) >= dot(g, rec.witness)


def shuffled_failure_collection():
    """Under the supplied policy, (b, a) prescribed as a law that is not
    the shuffle of (a, b)'s uniform law: the joint set, built from (a, b),
    pushes forward onto (b, a) as the uniform law, so both inclusions
    fail there."""
    return CredalCollection(
        AB,
        {
            ("a",): credal_set_from_hrep(AB, ("a",)),
            ("b",): credal_set_from_hrep(AB, ("b",)),
            ("a", "b"): credal_set_from_vertices(AB, ("a", "b"), [uniform_measure(4)]),
            ("b", "a"): credal_set_from_vertices(
                AB, ("b", "a"), [(F(1, 2), F(1, 2), F(0), F(0))]
            ),
        },
        policy=SUPPLIED,
    )


def no_lp(*args, **kwargs):
    raise AssertionError("an LP ran")


def parity_contexts(rng, p):
    """LP contexts of p at several origins: its own, moved to a vertex
    and to the midpoint of two vertices (no row tight in some
    directions), and the one `eliminated` leaves, whose origin may
    violate rows (only decided on). Returns (context, origin feasible)
    pairs."""
    ctx = pt._lp_context(p)
    verts = list(pt.dd_convert(p).points)
    u, v = rng.choice(verts), rng.choice(verts)
    origins = [rng.choice(verts), tuple((a + b) / 2 for a, b in zip(u, v))]
    out = [(ctx, True)] + [(ctx.moved(*_integer_row(x)), True) for x in origins]
    out.append((pt.LpContext.eliminated(p.hrep), False))
    return out


class TestContextParity:
    """The context's integer LP boundary gives the answers the Fraction
    rows gave (`context_maximize_reference`, `context_decide_reference`):
    the same status, value, argmax, point and certificate, on the joint
    sets and base hulls of generated instances, at moved origins.
    Emptiness is also decided on each system with the pushforward rows
    of a tuple pinned to a target, a vertex of V_alpha or a random law,
    as an equality row each, from the context `eliminated` leaves."""

    def test_matches_fraction_rows(self):
        rng = random.Random(23)
        seen = set()
        # a segment that misses the extreme points of its marginals
        segment = forced_failure_collection(
            ((F(1, 4), F(3, 4), F(0), F(0)), (F(3, 4), F(0), F(1, 4), F(0)))
        )
        systems = [(AB, segment, [build_joint(segment).body])]
        for n_indices in (2, 2, 3):
            space, coll, base = generated_instance(rng, n_indices)
            hull = pt.Polytope(base.dim, hrep=pt.dd_convert(base).hrep)
            systems.append((space, coll, [build_joint(coll).body, hull]))
        for space, coll, bodies in systems:
            for p in bodies:
                contexts = []
                for ctx, feasible in parity_contexts(rng, p):
                    contexts.append(ctx)
                    for _ in range(4 if feasible else 0):
                        f = tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                                  for _ in range(p.dim))
                        got = ctx.maximize(f)
                        assert got == context_maximize_reference(ctx, f)
                        seen.add(("maximize", got[0]))
                alpha = rng.choice(list(coll.sets))
                idx = pushforward_matrix(space, alpha)
                size = len(set(idx))
                targets = list(pt.dd_convert(coll.sets[alpha].body).points)
                targets += [random_simplex_point(rng, size) for _ in range(2)]
                for t in targets:
                    pinned = pt.HRep.make(p.dim, p.hrep.ineqs, [*p.hrep.eqs, *(
                        (tuple(int(y == x) for y in idx), t[x]) for x in range(size)
                    )])
                    ctx = pt.LpContext.eliminated(pinned)
                    if ctx is not None:
                        contexts.append(ctx)
                for ctx in contexts:
                    found, certificate = ctx.decide()
                    point = None if found is None else found.origin
                    assert (point, certificate) == context_decide_reference(ctx)
                    seen.add(("decide", found is None))
        assert {("maximize", "optimal"), ("decide", True), ("decide", False)} <= seen


class TestVerifyRepresentation:
    def test_generated_instance_passes(self):
        rng = random.Random(600)
        _, coll, base = generated_instance(rng, 3)
        joint = build_joint(coll)
        for v in base.points:
            assert pt.contains_point(joint.body, v)
        report = verify_representation(coll, joint)
        assert report.passed

    def test_forced_marginal_failure(self):
        coll = forced_failure_collection()
        joint = build_joint(coll)
        report = verify_representation(coll, joint)
        assert not report.passed
        rec = next(
            r
            for r in report.failures()
            if r.direction == "prescribed within pushforward"
        )
        assert rec.witness in (point_mass(2, 0), point_mass(2, 1))
        cert = rec.certificate
        assert cert is not None and cert.gap > 0
        # the certificate's bound on the pushforward re-verifies by LP
        status, sup, _ = pt._maximize(joint.body, rec.lifted_functional)
        assert status == "optimal"
        assert dot(cert.functional, cert.point) - sup >= cert.gap

    @pytest.mark.parametrize("case", ["consistent", "enlarged"])
    def test_reads_the_vertices_the_build_carries(self, monkeypatch, case):
        """The joint set carries P's vertices from the build: pre(V_T)'s on
        a consistent family, with no double description of P's rows at
        all, and one double description of them in the build when V_T is
        enlarged. Verify then converts P no more."""
        _, coll, _ = generated_instance(random.Random(601), 3)
        if case == "enlarged":
            coll = enlarged_full_tuple(coll)
        calls = []
        real = pt._points_from_hrep

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(pt, "_points_from_hrep", counting)
        joint = build_joint(coll)
        assert len(calls) == (case == "enlarged")
        report = verify_representation(coll, joint)
        assert len(calls) == (case == "enlarged")
        assert report.passed == (case == "consistent")
        assert joint.body.points == pt.dd_convert(joint.body).points

    @pytest.mark.parametrize("case", ["consistent", "reloaded", "enlarged"])
    def test_reads_vertices_with_no_lp(self, monkeypatch, case):
        """With every LP stubbed out, the check gives the statuses the
        LPs over the joint set's rows give (`representation_reference`):
        on a consistent family, on its joint set read back as H-rep rows
        only, and on the family with V_T enlarged by a point mass, whose
        joint set lies strictly inside pre(V_T). A failing record's
        witness is the first vertex of V_alpha the joint set misses."""
        _, coll, _ = generated_instance(random.Random(601), 3)
        if case == "enlarged":
            coll = enlarged_full_tuple(coll)
        joint = build_joint(coll)
        if case == "reloaded":
            joint = reloaded(joint)
        with monkeypatch.context() as m:
            m.setattr(pt, "lp_solve", no_lp)
            m.setattr(jt, "lp_solve", no_lp)
            report = verify_representation(coll, joint)
        expected = representation_reference(coll, joint)
        assert [(r.alpha, r.direction, r.status) for r in report.records] == [
            e[:3] for e in expected
        ]
        assert report.passed == (case != "enlarged")
        for rec, (*_, missing) in zip(report.records, expected):
            if rec.status == "fail":
                assert_failing_record(coll, joint, rec)
                if rec.direction == "prescribed within pushforward":
                    assert rec.witness == missing

    def test_unreachable_member_certificate(self, monkeypatch):
        """Failing records in both directions, with no LP: a vertex of
        V_alpha outside the image, separated from it, with the lifted
        functional bounding the joint set; and an image vertex outside a
        supplied shuffle's set (`assert_failing_record`)."""
        segment = (uniform_measure(4), (F(1, 2), F(0), F(0), F(1, 2)))
        cases = [forced_failure_collection(segment), forced_failure_collection(),
                 shuffled_failure_collection()]
        seen = set()
        for coll in cases:
            joint = build_joint(coll)
            with monkeypatch.context() as m:
                m.setattr(pt, "lp_solve", no_lp)
                m.setattr(jt, "lp_solve", no_lp)
                report = verify_representation(coll, joint)
            for rec in report.failures():
                assert_failing_record(coll, joint, rec)
                seen.add(rec.direction)
            assert [r.status for r in report.records] == [
                e[2] for e in representation_reference(coll, joint)
            ]
        assert seen == {"prescribed within pushforward", "pushforward within prescribed"}

    @pytest.mark.parametrize("a_members", [
        (point_mass(2, 0), point_mass(2, 1)),
        (point_mass(2, 0), point_mass(2, 1), uniform_measure(2)),
    ], ids=["separable", "surrounded"])
    def test_finite_records_carry_body_subset(self, a_members):
        """Finite mode: each record is `_body_subset`'s answer on the
        members and the cells' images, and a separating functional is
        pulled back to the path cells."""
        both = (point_mass(4, 0), point_mass(4, 3))
        coll = CredalCollection(AB, {
            ("a",): credal_set_from_members(AB, ("a",), a_members),
            ("b",): credal_set_from_members(AB, ("b",), [point_mass(2, 0), point_mass(2, 1)]),
            ("a", "b"): credal_set_from_members(
                AB, ("a", "b"), both[:1] if len(a_members) == 2 else both
            ),
        })
        joint = build_joint(coll)
        report = verify_representation(coll, joint)
        kinds = set()
        for rec in report.records:
            cset, image = coll.sets[rec.alpha], pushforward_joint(joint, rec.alpha)
            pair = (cset, image) if rec.direction == "prescribed within pushforward" else (
                image, cset)
            holds, witness, cert = _body_subset(*pair)
            assert (rec.status, rec.witness, rec.certificate, rec.note) == (
                "pass" if holds else "fail", witness, cert, "")
            lifted = None
            if isinstance(cert, pt.SeparationCertificate):
                lifted = pull(pushforward_matrix(AB, rec.alpha), cert.functional)
            assert rec.lifted_functional == lifted
            kinds.add(type(cert).__name__)
        expected = {"SeparationCertificate"} if len(a_members) == 2 else {"FiniteSeparation"}
        assert kinds == {"NoneType"} | expected

    def test_singleton_family_passes_with_point(self):
        coll = singleton_collection(ABC)
        joint = build_joint(coll)
        report = verify_representation(coll, joint)
        assert report.passed

    def test_converse_consistency(self):
        # a collection whose representation verifies must pass both checks
        rng = random.Random(700)
        _, coll, _ = generated_instance(rng, 2)
        joint = build_joint(coll)
        if verify_representation(coll, joint).passed:
            assert check_permutation_consistency(coll).passed
            assert check_marginal_consistency(coll).passed

    def test_empty_joint_reported(self):
        coll = inconsistent_collection()
        joint = build_joint(coll)
        report = verify_representation(coll, joint)
        assert not report.passed
        assert "empty" in report.records[0].note


def consistency_of(coll):
    """The consistency report `credalkit validate` gives for `coll`."""
    return ConsistencyReport(check_permutation_consistency(coll).records
                             + check_marginal_consistency(coll).records)


def suite_of(coll, joint):
    """`property_suite` given the reports CLI `verify` hands it."""
    return property_suite(
        coll, joint, verify_representation(coll, joint), consistency_of(coll)
    )


class TestPropertySuite:
    def test_generated_instance_all_pass(self):
        rng = random.Random(800)
        _, coll, _ = generated_instance(rng, 2)
        report = suite_of(coll, build_joint(coll))
        assert report.passed

    def test_strict_containment_occurs(self):
        # a joint set strictly smaller than a marginal preimage
        seg = credal_set_from_hrep(
            AB, ("a",), ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))]
        )
        coll = CredalCollection(
            AB,
            {
                ("a",): seg,
                ("b",): credal_set_from_hrep(AB, ("b",)),
                ("a", "b"): credal_set_from_vertices(
                    AB,
                    ("a", "b"),
                    [
                        (F(1, 3), F(0), F(1, 3), F(1, 3)),
                        (F(1, 3), F(1, 3), F(1, 3), F(0)),
                    ],
                ),
            },
        )
        report = suite_of(coll, build_joint(coll))
        strict = [
            r
            for r in report.records
            if r.name == "covering tuple has smaller preimage" and r.note == "strict"
        ]
        assert strict

    @pytest.mark.parametrize("make", [
        lambda: generated_instance(random.Random(811), 3)[1],
        lambda: lifted_collection(),
        lambda: clash_instance(random.Random(5), 3)[1],
    ], ids=["generated-t3", "non-strict", "clash"])
    def test_covering_records_run_no_lp(self, monkeypatch, make):
        """Given both reports, the suite decides every record with no LP
        and no feasibility decision, and gives the report of an unpatched
        run."""
        coll = make()
        joint = build_joint(coll)
        representation = verify_representation(coll, joint)
        consistency = consistency_of(coll)
        with monkeypatch.context() as m:
            for module in (pt, jt):
                m.setattr(module, "lp_solve", no_lp)
            m.setattr(pt, "_feasible_point", no_lp)
            report = property_suite(coll, joint, representation, consistency)
        assert _records(report, "covering tuple has smaller preimage")
        assert report == property_suite(coll, joint, representation, consistency)

    @pytest.mark.parametrize("make", [
        lambda: generated_instance(random.Random(811), 3)[1],
        lambda: clash_instance(random.Random(5), 3)[1],
    ], ids=["generated-t3", "clash"])
    def test_covering_record_follows_the_report(self, make):
        """Each covering record reads validate's marginal record of its
        pair: flipped to "fail", the record fails with no "strict" note,
        and so does the full-tuple record when alpha is the full tuple;
        every other record is unchanged."""
        coll = make()
        joint = build_joint(coll)
        representation = verify_representation(coll, joint)
        consistency = consistency_of(coll)
        base = property_suite(coll, joint, representation, consistency)
        covering = [r for r in base.records
                    if r.name == "covering tuple has smaller preimage"]
        full = representative_tuples(coll)[-1]
        assert any(r.alpha == full for r in covering)
        for record in covering:
            flipped = ConsistencyReport(tuple(
                replace(r, status="fail")
                if (r.alpha, r.beta, r.direction)
                == (record.alpha, record.beta, "restriction within supplied set")
                else r
                for r in consistency.records
            ))
            report = property_suite(coll, joint, representation, flipped)
            changed = {(r.name, r.alpha, r.beta): (r.status, r.note)
                       for r, was in zip(report.records, base.records) if r != was}
            expect = {("covering tuple has smaller preimage", record.alpha, record.beta):
                      ("fail", "")} if record.status == "pass" else {}
            if record.alpha == full and base.records[-1].status == "pass":
                expect["full-tuple preimage equals joint set", full, ()] = ("fail", "")
            assert changed == expect

    def test_permutation_record_follows_the_report(self):
        """A supplied shuffle's permutation record reads validate's two
        permutation records of the pair: either one flipped to "fail"
        fails it, and only it."""
        coll = PARITY_CASES["supplied"][0]()
        joint = build_joint(coll)
        representation = verify_representation(coll, joint)
        consistency = consistency_of(coll)
        base = property_suite(coll, joint, representation, consistency)
        assert base.passed
        shuffled = _records(base, "permutation-invariant preimage")
        reads = 0
        for target in consistency.records:
            if target.condition != "permutation" or target.status != "pass":
                continue
            flipped = ConsistencyReport(tuple(
                replace(r, status="fail") if r is target else r
                for r in consistency.records
            ))
            report = property_suite(coll, joint, representation, flipped)
            failed = [(r.name, r.alpha, r.beta) for r in report.records
                      if r.status == "fail"]
            read = any((r.alpha, r.beta) == (target.alpha, target.beta)
                       for r in shuffled)
            reads += read
            assert failed == ([("permutation-invariant preimage", target.alpha,
                                target.beta)] if read else [])
        assert reads == 2 * len(shuffled)

    def test_missing_record_names_it(self):
        """A consistency report without the permutation records of a
        supplied shuffle is refused, naming the record."""
        coll = PARITY_CASES["supplied"][0]()
        joint = build_joint(coll)
        alpha = next(t for t in representative_tuples(coll) if len(t) == 2)
        missing = (alpha, alpha[::-1], "supplied set within shuffle image")
        with pytest.raises(DimensionError, match=re.escape(repr(missing))):
            property_suite(coll, joint, verify_representation(coll, joint),
                           check_marginal_consistency(coll))


def lifted_collection():
    """V_ab is the full lift of the segment V_a, so pre(a, b) = pre(a):
    the covering record ((a, b), (a,)) holds and is not strict."""
    return CredalCollection(
        AB,
        {
            ("a",): credal_set_from_hrep(
                AB, ("a",), ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))]
            ),
            ("b",): credal_set_from_hrep(AB, ("b",)),
            ("a", "b"): credal_set_from_hrep(
                AB,
                ("a", "b"),
                ineqs=[((-1, -1, 0, 0), F(-1, 3)), ((1, 1, 0, 0), F(2, 3))],
            ),
        },
    )


def disagreeing_variant():
    """A supplied (b, a) set that is V_ab itself, not its shuffle."""
    coll = supplied_variants(generated_instance(random.Random(812), 2)[1])
    sets = dict(coll.sets)
    sets[("b", "a")] = credal_set_from_vertices(
        coll.space, ("b", "a"), coll.sets[("a", "b")].body.points
    )
    return CredalCollection(coll.space, sets, policy="supplied")


def _records(report, name):
    return [r for r in report.records if r.name == name]


def flat_collection():
    """V_ab is the segment from (1/6, 1/6, 1/3, 1/3) to (1/3, 1/3, 1/6,
    1/6), whose marginals are V_a = {(1/3, 2/3), (2/3, 1/3)} and V_b =
    {(1/2, 1/2)}: V_ab is lower-dimensional, so its rows hold equality
    rows besides the normalization row."""
    return CredalCollection(
        AB,
        {
            ("a",): credal_set_from_vertices(
                AB, ("a",), [(F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))]
            ),
            ("b",): credal_set_from_vertices(AB, ("b",), [(F(1, 2), F(1, 2))]),
            ("a", "b"): credal_set_from_vertices(
                AB,
                ("a", "b"),
                [(F(1, 6), F(1, 6), F(1, 3), F(1, 3)),
                 (F(1, 3), F(1, 3), F(1, 6), F(1, 6))],
            ),
        },
    )


def both_covering_records_strict(report):
    return [(r.beta, r.status, r.note)
            for r in _records(report, "covering tuple has smaller preimage")] == [
        (("a",), "pass", "strict"), (("b",), "pass", "strict"),
    ]


PARITY_CASES = {
    "generated-t2": (
        lambda: generated_instance(random.Random(810), 2)[1],
        lambda report: report.passed,
    ),
    "generated-t3": (
        lambda: generated_instance(random.Random(811), 3)[1],
        lambda report: report.passed,
    ),
    "non-strict": (
        lifted_collection,
        lambda report: any(
            (r.alpha, r.beta, r.status, r.note) == (("a", "b"), ("a",), "pass", "")
            for r in _records(report, "covering tuple has smaller preimage")
        ),
    ),
    "clash": (
        lambda: clash_instance(random.Random(5), 3)[1],
        lambda report: [
            r.status for r in _records(report, "full-tuple preimage equals joint set")
        ] == ["fail"],
    ),
    "supplied": (
        lambda: supplied_variants(generated_instance(random.Random(812), 3)[1]),
        lambda report: report.passed
        and len(_records(report, "permutation-invariant preimage")) == 8,
    ),
    "supplied-disagrees": (
        disagreeing_variant,
        lambda report: [
            r.status for r in _records(report, "permutation-invariant preimage")
        ] == ["fail"],
    ),
    # V_ab lower-dimensional: a segment, and a point, which has no
    # inequality rows, so only its equality rows show that Q is larger
    "flat": (flat_collection, both_covering_records_strict),
    "point": (lambda: singleton_collection(AB), both_covering_records_strict),
}


def not_in_suite(*args, **kwargs):
    raise AssertionError("the suite decided an inclusion or pushed a point")


@pytest.mark.parametrize("make, shows", PARITY_CASES.values(), ids=PARITY_CASES)
def test_property_suite_matches_path_space_reference(monkeypatch, make, shows):
    """The suite, given both reports, gives the report of the path-space
    reference with no inclusion decided and no point pushed; each case
    also shows the outcome it is there for."""
    coll = make()
    joint = build_joint(coll)
    representation = verify_representation(coll, joint)
    consistency = consistency_of(coll)
    with monkeypatch.context() as m:
        for module, name in ((pt, "is_subset"), (pt, "contains_point"),
                             (pt, "linear_image"), (sp, "push")):
            m.setattr(module, name, not_in_suite)
        report = property_suite(coll, joint, representation, consistency)
    assert report == property_suite_reference(coll, joint, representation)
    assert shows(report)


@pytest.mark.parametrize("make", [make for make, _ in PARITY_CASES.values()],
                         ids=PARITY_CASES)
def test_fiber_sup_is_the_support_of_q(make):
    """For every covering pair (alpha, beta) and every row a of V_alpha,
    equality rows both ways round, `_fiber_sup` is max a over Q = {q in
    alpha's simplex : r(q) in V_beta}, found by LP over Q built as a
    polytope (`covering_q`)."""
    coll = make()
    reps = representative_tuples(coll)
    checked = 0
    for alpha in reps:
        h = pt.dd_convert(coll.sets[alpha].body).hrep
        rows = [*h.ineqs, *h.eqs, *((tuple(-c for c in e), -f) for e, f in h.eqs)]
        for beta in reps:
            if alpha == beta or not tuple_covers(alpha, beta):
                continue
            target = pt.dd_convert(coll.sets[beta].body)
            idx = restriction_matrix(coll.space, alpha, beta)
            fibers = [[j for j, c in enumerate(idx) if c == x] for x in range(target.dim)]
            q = covering_q(coll, alpha, beta)
            for a, _ in rows:
                status, value, _ = pt._maximize(q, a)
                assert status == "optimal"
                assert jt._fiber_sup(fibers, a, target.xs, target.den) == value
                checked += 1
    assert checked

