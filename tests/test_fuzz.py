"""Randomized cross-checks between independent computation routes.

Each test pits the production path against an oracle that shares none of
its code: combinatorial vertex enumeration against the double
description method, facet-LP containment against vertex containment,
simplex optima against vertex scans. Seeds are fixed; everything is
exact, so any disagreement is a bug, not noise.
"""

import random
from fractions import Fraction as F

import credalkit.polytope as pt
from credalkit.credal import CredalCollection, check_marginal_consistency
from credalkit.exactq import dot
from credalkit.joint import build_joint, verify_representation
from credalkit.spaces import restriction_matrix
from gen import generated_instance, random_simplex_point
from oracles import brute_force_vertices, equals, hull_sample_points, rational_lp


def random_hrep_with_eqs(rng, dim):
    """Bounded random system mixing box rows, cuts, and an equality."""
    ineqs = []
    for j in range(dim):
        unit = [F(0)] * dim
        unit[j] = F(1)
        ineqs.append((tuple(unit), F(2)))
        ineqs.append((tuple(-u for u in unit), F(2)))
    for _ in range(rng.randint(1, 3)):
        coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if any(c != 0 for c in coeffs):
            ineqs.append((coeffs, F(rng.randint(0, 3), rng.randint(1, 2))))
    eqs = []
    if rng.random() < 0.7:
        coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if any(c != 0 for c in coeffs):
            eqs.append((coeffs, F(rng.randint(-1, 1))))
    return ineqs, eqs


def test_dd_matches_brute_force_with_equalities():
    rng = random.Random(1001)
    checked = 0
    while checked < 25:
        dim = rng.randint(2, 4)
        ineqs, eqs = random_hrep_with_eqs(rng, dim)
        p = pt.Polytope.from_hrep(dim, ineqs, eqs)
        expected = brute_force_vertices(dim, ineqs, eqs)
        if not expected:
            assert p.is_empty() or not pt.dd_convert(p).points
            continue
        assert list(pt.dd_convert(p).points) == expected
        checked += 1


def test_subset_routes_agree():
    # facet-LP route (H-rep only) vs vertex route must give the same verdict
    rng = random.Random(1002)
    for _ in range(20):
        dim = 3
        ineqs_p, eqs_p = random_hrep_with_eqs(rng, dim)
        ineqs_q, eqs_q = random_hrep_with_eqs(rng, dim)
        p_h = pt.Polytope.from_hrep(dim, ineqs_p, eqs_p)
        q_h = pt.Polytope.from_hrep(dim, ineqs_q, eqs_q)
        if p_h.is_empty() or q_h.is_empty():
            continue
        facet_route, _ = pt.is_subset(p_h, q_h)
        p_v = pt.Polytope.from_points(pt.dd_convert(p_h).points)
        vertex_route, _ = pt.is_subset(p_v, q_h)
        assert facet_route == vertex_route


def test_lp_optimum_equals_vertex_scan():
    rng = random.Random(1003)
    checked = 0
    while checked < 25:
        dim = rng.randint(2, 4)
        ineqs, eqs = random_hrep_with_eqs(rng, dim)
        verts = brute_force_vertices(dim, ineqs, eqs)
        if not verts:
            continue
        objective = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
        rows = [(c, "<=", b) for c, b in ineqs] + [(c, "=", b) for c, b in eqs]
        out = rational_lp("max", objective, rows, nonneg=[False] * dim)
        assert out.status == "optimal"
        assert out.value == max(dot(objective, v) for v in verts)
        checked += 1


def test_separation_certificates_fuzz():
    rng = random.Random(1004)
    produced = 0
    while produced < 30:
        dim = rng.randint(2, 4)
        pts = [random_simplex_point(rng, dim) for _ in range(rng.randint(1, 5))]
        p = pt.Polytope.from_points(pts)
        x = tuple(
            v + F(rng.randint(-2, 3), rng.randint(1, 3)) for v in pts[0]
        )
        if pt.contains_point(p, x):
            continue
        cert = pt.separate(p, x)
        assert pt.verify_separation(cert, p)
        assert min(
            dot(cert.functional, x) - dot(cert.functional, v) for v in pts
        ) >= cert.gap > 0
        produced += 1


def test_intersection_membership_fuzz():
    # the joint set's route: stack the systems, drop redundant rows by LP
    rng = random.Random(1005)
    dim = 3
    simplex = pt.Polytope.simplex(dim)
    for _ in range(10):
        cuts = [simplex]
        for _ in range(rng.randint(1, 3)):
            coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            if any(c != 0 for c in coeffs):
                cuts.append(
                    pt.Polytope.from_hrep(
                        dim, ineqs=[(coeffs, F(rng.randint(0, 2), 2))]
                    )
                )
        ineqs = [row for c in cuts for row in c.hrep.ineqs]
        eqs = [row for c in cuts for row in c.hrep.eqs]
        out = pt.Polytope.from_hrep(dim, ineqs, eqs)
        if not out.is_empty():
            keep = pt.remove_redundant_ineqs(
                dim, out.hrep.ineqs, out.hrep.eqs, *pt._points_from_hrep(out.hrep)
            )
            out = pt.Polytope.from_hrep(
                dim, [out.hrep.ineqs[i] for i in keep], out.hrep.eqs
            )
        for x in hull_sample_points(rng, simplex.points, 15):
            expected = all(
                all(dot(a, x) <= b for a, b in c.hrep.ineqs)
                and all(dot(e, x) == f for e, f in c.hrep.eqs)
                for c in cuts
            )
            assert pt.contains_point(out, x) == expected


def test_marginal_tower_property():
    # restricting a consistent family down a chain agrees with the direct
    # restriction, as sets, not just as index maps
    rng = random.Random(1006)
    _, coll, _ = generated_instance(rng, 3)
    assert check_marginal_consistency(coll).passed
    space = coll.space
    gamma = ("a", "b", "c")
    alpha = ("a", "b")
    beta = ("a",)
    m_direct = restriction_matrix(space, gamma, beta)
    to_alpha = restriction_matrix(space, gamma, alpha)
    to_beta = restriction_matrix(space, alpha, beta)
    assert m_direct == tuple(to_beta[x] for x in to_alpha)
    direct = pt.linear_image(m_direct, coll.sets[gamma].body, 2)
    staged = pt.linear_image(
        to_beta, pt.linear_image(to_alpha, coll.sets[gamma].body, 4), 2
    )
    assert equals(direct, staged)
    assert equals(direct, coll.sets[beta].body)


def test_supplied_policy_shuffle_violation_caught_end_to_end():
    # a family whose permuted variant disagrees must fail verification at
    # that supplied tuple even though the canonical representatives are fine
    from credalkit.credal import credal_set_from_members
    from credalkit.spaces import make_space, point_mass, product_index

    space = make_space(("a", "b"), ("0", "1"))
    d01 = point_mass(4, product_index(space, ("0", "1")))
    d10 = point_mass(4, product_index(space, ("1", "0")))
    good = {
        ("a",): credal_set_from_members(space, ("a",), [point_mass(2, 0)]),
        ("b",): credal_set_from_members(space, ("b",), [point_mass(2, 1)]),
        ("a", "b"): credal_set_from_members(space, ("a", "b"), [d01]),
        ("b", "a"): credal_set_from_members(space, ("b", "a"), [d10]),
    }
    coll = CredalCollection(space, good, policy="supplied")
    joint = build_joint(coll)
    assert verify_representation(coll, joint).passed

    bad = dict(good)
    bad[("b", "a")] = credal_set_from_members(space, ("b", "a"), [d01])
    coll_bad = CredalCollection(space, bad, policy="supplied")
    joint_bad = build_joint(coll_bad)
    report = verify_representation(coll_bad, joint_bad)
    assert not report.passed
    assert any(r.alpha == ("b", "a") for r in report.failures())


def test_degenerate_base_polytopes_round_trip():
    # singleton and segment bases exercise the degenerate affine hulls
    from credalkit.credal import POLYTOPE, CredalSet
    from credalkit.spaces import all_canonical_tuples, make_space, pushforward_matrix

    space = make_space(("a", "b", "c"), ("0", "1"))
    bases = [
        pt.Polytope.from_points([random_simplex_point(random.Random(5), 8)]),
        pt.Polytope.from_points(
            [
                (F(1, 2), F(1, 2), 0, 0, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 0, F(1, 2), F(1, 2)),
            ]
        ),
    ]
    for base in bases:
        sets = {}
        for alpha in all_canonical_tuples(space):
            m = pushforward_matrix(space, alpha)
            image = pt.linear_image(m, base, 2 ** len(alpha))
            sets[alpha] = CredalSet(space, alpha, POLYTOPE, image)
        coll = CredalCollection(space, sets)
        joint = build_joint(coll)
        assert verify_representation(coll, joint).passed
        for v in base.points:
            assert pt.contains_point(joint.body, v)
