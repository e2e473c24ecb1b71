import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import gcd, lcm

import pytest

import credalkit.exactq as eq
import credalkit.polytope as pt
from credalkit import _backend
from credalkit.exactq import EQ, LE, DimensionError, dot
from credalkit.polytope import (
    HRep,
    NotSeparableError,
    Polytope,
    SeparationCertificate,
    UnboundedError,
    contains_point,
    dd_convert,
    is_subset,
    linear_image,
    remove_redundant_ineqs,
    separate,
    verify_separation,
)
from credalkit.credal import (
    CredalCollection,
    _upper,
    credal_set_from_hrep,
    credal_set_from_vertices,
)
from credalkit.joint import preimage_set
from credalkit.spaces import make_space, point_mass, push, pushforward_matrix
from gen import random_simplex_point
from oracles import (
    apply,
    brute_force_max,
    brute_force_vertices,
    context_decide_reference,
    dense_pushforward,
    eq_part_reference,
    equals,
    extreme_subset_reference,
    feasible_point_reference,
    fraction_feasible,
    fraction_inverse,
    fraction_points,
    hrep_contains,
    hrep_from_points_fraction_route,
    hrep_from_points_reference,
    hull_sample_points,
    integer_points,
    is_subset_reference,
    matrix_rank,
    primitive,
    redundant_rows_reference,
    solve_linear_system,
    unit_nonneg,
)


def random_bounded_hrep(rng, dim, extra_rows=3, box=1):
    """A bounded random H-rep polytope (box plus random cuts), nonempty."""
    while True:
        ineqs = []
        for j in range(dim):
            unit = [F(0)] * dim
            unit[j] = F(1)
            ineqs.append((tuple(unit), F(box)))
            ineqs.append((tuple(-u for u in unit), F(box)))
        for _ in range(extra_rows):
            coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            if all(c == 0 for c in coeffs):
                continue
            ineqs.append((coeffs, F(rng.randint(0, 4), rng.randint(1, 3))))
        p = Polytope.from_hrep(dim, ineqs)
        if not p.is_empty():
            return p


class TestConversion:
    def test_standard_simplex_vertices(self):
        p = Polytope.simplex(3)
        assert p.points == (
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
        )

    def test_unit_square(self):
        p = Polytope.from_hrep(
            2,
            ineqs=[
                ((-1, 0), 0),
                ((0, -1), 0),
                ((1, 0), 1),
                ((0, 1), 1),
            ],
        )
        assert len(p.points) == 4

    def test_round_trip_random_q4(self):
        rng = random.Random(9)
        for _ in range(8):
            p = random_bounded_hrep(rng, 4)
            q = dd_convert(p)
            # oracle 1: vertex set equals combinatorial enumeration
            expected = brute_force_vertices(4, p.hrep.ineqs)
            assert list(q.points) == expected
            # oracle 2: mutual containment via LP only
            for v in q.points:
                assert hrep_contains(p.hrep, v)
            holds, _ = is_subset(p, q)
            assert holds

    def test_dd_idempotent(self):
        rng = random.Random(11)
        p = random_bounded_hrep(rng, 3)
        once = dd_convert(p)
        twice = dd_convert(once)
        assert twice is once
        rebuilt = dd_convert(Polytope.from_points(once.points))
        assert rebuilt.points == once.points
        assert equals(once, rebuilt)

    def test_point_and_segment_degenerate(self):
        single = dd_convert(Polytope.from_points([(F(1, 3), F(2, 3))]))
        assert single.points == ((F(1, 3), F(2, 3)),)
        assert contains_point(single, (F(1, 3), F(2, 3)))
        assert not contains_point(single, (F(1, 2), F(1, 2)))
        seg = dd_convert(Polytope.from_points([(0, 0), (1, 1), (F(1, 2), F(1, 2))]))
        assert seg.points == ((F(0), F(0)), (F(1), F(1)))

    def test_empty_set_flagged(self):
        p = Polytope.from_hrep(2, ineqs=[((1, 0), -1), ((-1, 0), 0)])
        assert p.is_empty()
        assert dd_convert(p).points == ()

    def test_unbounded_raises(self):
        p = Polytope.from_hrep(2, ineqs=[((-1, 0), 0), ((0, -1), 0)])
        with pytest.raises(UnboundedError):
            p.points

    def test_irredundant_hrep_after_convert(self):
        # a blatantly redundant row disappears in the canonical form
        p = Polytope.from_hrep(
            2,
            ineqs=[((-1, 0), 0), ((0, -1), 0), ((1, 1), 1), ((1, 1), 5)],
        )
        q = dd_convert(p)
        assert len(q.hrep.ineqs) == 3


HULL_KINDS = (
    "simplex", "off", "duplicates", "combinations", "collinear", "single", "empty",
)


def hull_case(rng, kind):
    """(points, dim) of one kind: random points of the probability
    simplex or off it, points repeated, convex combinations of the points
    added, points on one line, one point (maybe repeated), or none."""
    dim = rng.randint(1, 5)

    def some_point():
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))

    def simplex_point():
        w = [F(rng.randint(0, 4)) for _ in range(dim)]
        w[rng.randrange(dim)] += 1
        return tuple(v / sum(w) for v in w)

    count = rng.randint(1, 8)
    if kind == "simplex":
        pts = [simplex_point() for _ in range(count)]
    elif kind == "off":
        pts = [some_point() for _ in range(count)]
    elif kind == "duplicates":
        pick = rng.choice((some_point, simplex_point))
        pts = [pick() for _ in range(count)]
        pts += [rng.choice(pts) for _ in range(rng.randint(1, 4))]
        rng.shuffle(pts)
    elif kind == "combinations":
        pick = rng.choice((some_point, simplex_point))
        pts = [pick() for _ in range(count)]
        pts += hull_sample_points(rng, pts, rng.randint(1, 5))
        rng.shuffle(pts)
    elif kind == "collinear":
        base, step = some_point(), some_point()
        pts = [
            tuple(b + F(rng.randint(-6, 6), rng.randint(1, 3)) * d
                  for b, d in zip(base, step))
            for _ in range(count)
        ]
    elif kind == "single":
        pts = [some_point()] * rng.randint(1, 3)
    else:
        pts = []
    return pts, dim


class TestHullRoutine:
    """`_hrep_from_points` matches the LP-per-point references: the same
    vertices, and the same rows (values, int types and order) as the
    Fraction-built H-rep of those vertices."""

    def test_matches_references(self):
        rng = random.Random(401)
        dropped = {kind: 0 for kind in HULL_KINDS}
        for i in range(350):
            kind = HULL_KINDS[i % len(HULL_KINDS)]
            pts, dim = hull_case(rng, kind)
            xs, den = integer_points(pts)
            h, verts = pt._hrep_from_points(xs, den, dim)
            verts = fraction_points(verts, den)
            assert verts == extreme_subset_reference(pts)
            assert h == hrep_from_points_reference(pts, dim)
            assert_int_rows(h)
            dropped[kind] += len(verts) < len(set(pts))
        # non-vertices occur where they should, and only there
        assert dropped["combinations"] and dropped["collinear"]
        assert dropped["single"] == dropped["empty"] == 0

    def test_callers_use_it_with_no_lp(self, monkeypatch):
        """dd_convert, linear_image, contains_point and the hrep property
        of a set given by points run no LP; the image carries no H-rep of
        its own, only its cached canonical form."""
        rng = random.Random(402)
        for _ in range(20):
            pts, dim = hull_case(rng, rng.choice(("simplex", "combinations")))
            ref = extreme_subset_reference(pts)
            with monkeypatch.context() as m:
                m.setattr(pt, "lp_solve", None)  # any LP would fail
                p = Polytope.from_points(pts, dim=dim)
                assert dd_convert(p).points == ref
                for x in pts + [tuple(F(1) for _ in range(dim))]:
                    assert contains_point(p, x) == hrep_contains(dd_convert(p).hrep, x)
                image = linear_image(tuple(range(dim)), p, dim)
                assert image.points == ref and image._hrep is None
                assert image._converted.hrep == dd_convert(p).hrep
                assert p.hrep is dd_convert(p).hrep


def dense(idx, size):
    """The index map as a 0/1 matrix."""
    return [[F(int(y == x)) for y in idx] for x in range(size)]


INTEGER_KINDS = ("mixed", "repeated", "mass", "segment")


def integer_point_case(rng, kind):
    """(points, dim), dim = 2, 4 or 8, of one kind: random simplex points
    with mixed denominators, random points some of them repeated, a
    single point mass (denominator 1, maybe repeated), or two points and
    two more on the segment between them."""
    dim = rng.choice((2, 4, 8))
    if kind == "mixed":
        pts = [random_simplex_point(rng, dim, rng.choice((2, 3, 5, 12)))
               for _ in range(rng.randint(2, 6))]
    elif kind == "repeated":
        pts = [random_simplex_point(rng, dim) for _ in range(rng.randint(1, 4))]
        pts += [rng.choice(pts) for _ in range(rng.randint(1, 4))]
        rng.shuffle(pts)
    elif kind == "mass":
        pts = [point_mass(dim, rng.randrange(dim))] * rng.randint(1, 3)
    else:
        u, v = random_simplex_point(rng, dim), random_simplex_point(rng, dim)
        pts = [u, v] + [tuple(a + t * (b - a) for a, b in zip(u, v))
                        for t in (F(1, 3), F(1, 2))]
        rng.shuffle(pts)
    return pts, dim


class TestIntegerPoints:
    """Points are held as int tuples over one denominator; every consumer
    that reads them agrees with the same computation on Fraction
    points."""

    def cases(self, seed, count=10):
        rng = random.Random(seed)
        for i in range(count * len(INTEGER_KINDS)):
            yield (rng, *integer_point_case(rng, INTEGER_KINDS[i % len(INTEGER_KINDS)]))

    def test_points_view_is_sorted_distinct(self):
        for _, pts, dim in self.cases(501):
            expected = tuple(pt.sorted_distinct(pts))
            p = Polytope.from_points(pts, dim=dim)
            assert p.points == expected
            assert p.den > 0 and all(type(v) is int for x in p.xs for v in x)
            assert fraction_points(p.xs, p.den) == expected
            if len(set(pts)) == 1 and all(v.denominator == 1 for v in pts[0]):
                assert p.den == 1
            space = make_space(tuple("abc"[:dim.bit_length() - 1]), ("0", "1"))
            cset = credal_set_from_vertices(space, space.indices, pts)
            assert cset.body.points == expected

    def test_hull_matches_the_fraction_route(self):
        for _, pts, dim in self.cases(502):
            ref_h, ref_verts = hrep_from_points_fraction_route(pts, dim)
            xs, den = integer_points(pts)
            h, verts = pt._hrep_from_points(xs, den, dim)
            assert h == ref_h and fraction_points(verts, den) == ref_verts
            q = dd_convert(Polytope.from_points(pts, dim=dim))
            assert q.hrep == ref_h and q.points == ref_verts

    def test_linear_image_matches_fraction_push(self):
        for rng, pts, dim in self.cases(503):
            p = Polytope.from_points(pts, dim=dim)
            size = rng.randint(1, dim)
            idx = tuple(rng.randrange(size) for _ in range(dim))
            ref_h, ref_verts = hrep_from_points_fraction_route(
                [push(idx, v, size) for v in p.points], size
            )
            image = linear_image(idx, p, size)
            assert image.points == ref_verts
            assert image._converted.hrep == ref_h

    def test_contains_point_matches_fraction_substitution(self):
        seen = {"vertex": 0, "facet": 0, "outside": 0}
        for rng, pts, dim in self.cases(504):
            p = Polytope.from_points(pts, dim=dim)
            q = dd_convert(p)
            verts = q.points
            centre = tuple(sum(c) / len(verts) for c in zip(*verts))
            facet = [
                tuple(sum(c) / len(on) for c in zip(*on))
                for a, b in q.hrep.ineqs
                for on in [[v for v in verts if dot(a, v) == b]]
            ]
            eps = F(1, 97)
            outside = [tuple(x + eps * (x - c) for x, c in zip(v, centre))
                       for v in verts if v != centre]
            outside.append(tuple(x + eps * (j == 0) for j, x in enumerate(verts[0])))
            for kind, points, inside in (
                ("vertex", verts, True),
                ("facet", facet, True),
                ("outside", outside, False),
            ):
                for x in points:
                    assert contains_point(p, x) == hrep_contains(q.hrep, x) == inside
                    seen[kind] += 1
        assert all(seen.values()), seen

    def test_push_of_integers_equals_push_of_fractions(self):
        for rng, pts, dim in self.cases(505):
            size = rng.randint(1, dim)
            idx = tuple(rng.randrange(size) for _ in range(dim))
            xs, den = integer_points(pts)
            for x, v in zip(xs, pts):
                pushed = push(idx, x, size)
                assert all(type(c) is int for c in pushed)
                assert tuple(F(c, den) for c in pushed) == push(idx, v, size)


class TestLinearImage:
    def test_identity(self):
        p = Polytope.simplex(3)
        q = linear_image((0, 1, 2), p, 3)
        assert equals(p, q)

    def test_marginalization_of_full_simplex(self):
        q = linear_image((0, 0, 1, 1), Polytope.simplex(4), 2)
        assert equals(q, Polytope.simplex(2))

    def test_sampled_membership_oracle(self):
        rng = random.Random(21)
        for _ in range(5):
            pts = [
                tuple(F(rng.randint(0, 5), 7) for _ in range(4)) for _ in range(5)
            ]
            p = Polytope.from_points(pts)
            idx = tuple(rng.randrange(3) for _ in range(4))
            m = dense(idx, 3)
            img = linear_image(idx, p, 3)
            for x in hull_sample_points(rng, pts, 10):
                assert contains_point(img, apply(m, x))
            # image generators come from mapped input points
            mapped = {apply(m, v) for v in pts}
            hull = Polytope.from_points(mapped)
            for v in img.points:
                assert contains_point(hull, v)

    def test_composition_identity(self):
        rng = random.Random(2)
        p = Polytope.from_points(
            [tuple(F(rng.randint(0, 4), 5) for _ in range(3)) for _ in range(5)]
        )
        m1 = (0, 0, 1)
        m2 = (1, 0)
        lhs = linear_image(m2, linear_image(m1, p, 2), 2)
        rhs = linear_image(tuple(m2[x] for x in m1), p, 2)
        assert equals(lhs, rhs)


A = make_space(("a",), ("0", "1"))
AB = make_space(("a", "b"), ("0", "1"))


def preimage_of(space, alpha, cset):
    return preimage_set(CredalCollection(space, {alpha: cset}), alpha)


class TestLinearPreimage:
    """Preimages under pushforward maps, as the joint module builds them."""

    def test_identity_map(self):
        seg = credal_set_from_hrep(
            A, ("a",), ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))]
        )
        pre = preimage_of(A, ("a",), seg)
        assert equals(pre, seg.body)

    def test_preimage_of_everything(self):
        pre = preimage_of(AB, ("a",), credal_set_from_hrep(AB, ("a",)))
        assert equals(pre, Polytope.simplex(4))
        # rows the path simplex implies are filtered out
        assert pre.hrep == Polytope.simplex(4).hrep

    def test_bijection_pins_uniform(self):
        target = credal_set_from_vertices(AB, ("a", "b"), [(F(1, 4),) * 4])
        pre = preimage_of(AB, ("a", "b"), target)
        # oracle: solve M.p = uniform directly
        status, _, x, _ = solve_linear_system(
            dense_pushforward(AB, ("a", "b")), [F(1, 4)] * 4
        )
        assert status == "unique"
        assert dd_convert(pre).points == (x,)

    def test_image_of_preimage_contained(self):
        rng = random.Random(31)
        for _ in range(5):
            pts = [
                tuple(F(rng.randint(0, 3), 3) for _ in range(2)) for _ in range(3)
            ]
            # normalize to the 2-simplex so the target is sensible
            pts = [
                (a / (a + b), b / (a + b)) if a + b else (F(1), F(0))
                for a, b in pts
            ]
            q = credal_set_from_vertices(AB, ("a",), pts)
            pre = preimage_of(AB, ("a",), q)
            img = linear_image(pushforward_matrix(AB, ("a",)), pre, 2)
            holds, _ = is_subset(img, q.body)
            assert holds
            # the map is onto the target simplex, so equality holds too
            assert equals(img, q.body)


class TestPredicates:
    def test_centroid_in_simplex(self):
        p = Polytope.simplex(3)
        assert contains_point(p, (F(1, 3),) * 3)
        assert not contains_point(p, (F(-1, 3), F(2, 3), F(2, 3)))

    def test_convex_combination_membership(self):
        rng = random.Random(40)
        pts = [tuple(F(rng.randint(0, 6), 7) for _ in range(3)) for _ in range(4)]
        p = Polytope.from_points(pts)
        for x in hull_sample_points(rng, pts, 10):
            assert contains_point(p, x)
        outside = tuple(2 * v for v in pts[0])
        if any(v != 0 for v in pts[0]):
            assert not contains_point(p, outside) or contains_point(
                Polytope.from_points(pts[1:]), outside
            )

    def test_subset_reflexive_and_segment(self):
        seg = Polytope.from_hrep(
            2, ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))], eqs=[((1, 1), 1)]
        )
        assert is_subset(seg, seg)[0]
        assert is_subset(seg, Polytope.simplex(2))[0]

    def test_full_simplex_not_in_singleton(self):
        full = Polytope.simplex(2)
        uniform = Polytope.from_points([(F(1, 2), F(1, 2))])
        holds, cert = is_subset(full, uniform)
        assert not holds
        assert cert is not None
        assert verify_separation(cert, uniform)
        # the offending point beats the singleton by exactly 1/2 under the
        # unscaled coordinate functional; our certificate is a positive
        # multiple of that
        scale = cert.functional[0] - cert.functional[1]
        assert scale != 0 and cert.gap / abs(scale) == F(1, 2)

    def test_equals_row_order_invariance(self):
        a = Polytope.from_hrep(
            2, ineqs=[((-1, 0), 0), ((0, -1), 0)], eqs=[((1, 1), 1)]
        )
        b = Polytope.from_hrep(
            2, ineqs=[((0, -1), 0), ((-1, 0), 0)], eqs=[((2, 2), 2)]
        )
        assert equals(a, b)

    def test_simplex_not_equal_centroid(self):
        assert not equals(
            Polytope.simplex(3), Polytope.from_points([(F(1, 3),) * 3])
        )

    def test_hrep_equals_its_convert(self):
        rng = random.Random(55)
        p = random_bounded_hrep(rng, 3)
        assert equals(p, dd_convert(p))

    def test_mutual_subset_is_equality(self):
        rng = random.Random(60)
        p = random_bounded_hrep(rng, 3)
        q = dd_convert(p)
        assert is_subset(p, q)[0] and is_subset(q, p)[0] and equals(p, q)


def stacked(dim, parts):
    """One system holding every part's rows, redundant rows removed."""
    out = Polytope.from_hrep(
        dim,
        [row for p in parts for row in p.hrep.ineqs],
        [row for p in parts for row in p.hrep.eqs],
    )
    if out.is_empty():
        return out
    h = out.hrep
    keep = remove_redundant_ineqs(dim, h.ineqs, h.eqs, *pt._points_from_hrep(h))
    return Polytope.from_hrep(dim, [h.ineqs[i] for i in keep], h.eqs)


class TestIntersect:
    def test_pinning_singleton(self):
        a = Polytope.from_hrep(2, ineqs=[((-1, 0), F(-1, 4))], eqs=[((1, 1), 1)])
        b = Polytope.from_hrep(2, ineqs=[((1, 0), F(1, 4))], eqs=[((1, 1), 1)])
        s = Polytope.simplex(2)
        out = stacked(2, [a, b, s])
        assert len(out.hrep.ineqs) < 4
        assert dd_convert(out).points == ((F(1, 4), F(3, 4)),)

    def test_disjoint_slabs_empty(self):
        # disjoint sets on one coordinate have disjoint preimages
        low = credal_set_from_hrep(AB, ("a",), ineqs=[((1, 0), F(1, 4))])
        high = credal_set_from_hrep(AB, ("a",), ineqs=[((-1, 0), F(-1, 2))])
        parts = [preimage_of(AB, ("a",), c) for c in (low, high)]
        assert not any(p.is_empty() for p in parts)
        assert stacked(4, parts).is_empty()

    def test_membership_conjunction_oracle(self):
        rng = random.Random(70)
        dim = 4
        simplex = Polytope.simplex(dim)
        parts = [simplex]
        for _ in range(3):
            coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            parts.append(
                Polytope.from_hrep(
                    dim, ineqs=[(coeffs, F(rng.randint(0, 2), 2))]
                )
            )
        out = stacked(dim, parts)
        for x in hull_sample_points(rng, simplex.points, 25):
            member = all(
                hrep_contains(p.hrep, x) for p in parts
            )
            assert contains_point(out, x) == member


class TestSeparate:
    def test_singleton(self):
        p = Polytope.from_points([(F(1, 2), F(1, 2))])
        cert = separate(p, (F(1), F(0)))
        assert verify_separation(cert, p)

    def test_facet_normal_for_simplex(self):
        p = Polytope.simplex(2)
        cert = separate(p, (F(2), F(-1)))
        assert verify_separation(cert, p)

    def test_segment_distance(self):
        p = Polytope.from_hrep(
            2, ineqs=[((-1, 0), F(-1, 3)), ((1, 0), F(2, 3))], eqs=[((1, 1), 1)]
        )
        cert = separate(p, (F(5, 6), F(1, 6)))
        assert verify_separation(cert, p)
        # distance to the violated bound: 5/6 - 2/3 = 1/6 up to row scaling
        scale = cert.functional[0]
        assert cert.gap / scale == F(1, 6)

    @pytest.mark.parametrize("form", ["generators", "from-points", "rows"])
    def test_empty_set_passes_every_certificate(self, form):
        """A certificate's gap holds for every member of an empty set,
        whichever form the set is given in; a gap <= 0 still fails."""
        p = {
            "generators": lambda: Polytope(1, xs=()),
            "from-points": lambda: Polytope.from_points([], dim=1),
            "rows": lambda: Polytope.from_hrep(1, ineqs=[((1,), -1), ((-1,), 0)]),
        }[form]()
        assert verify_separation(SeparationCertificate((F(1),), F(1), (F(0),)), p)
        assert not verify_separation(SeparationCertificate((F(1),), F(0), (F(0),)), p)
        assert p.is_empty()

    def test_inside_point_rejected(self):
        with pytest.raises(NotSeparableError):
            separate(Polytope.simplex(2), (F(1, 2), F(1, 2)))

    def test_points_read_the_first_violated_row(self, monkeypatch):
        """For a set given by points the certificate is the first
        inequality row of its canonical form that x violates, with the
        gap over the points, and no LP runs."""
        rng = random.Random(81)
        seen = 0
        monkeypatch.setattr(pt, "lp_solve", None)  # any LP would fail
        for pts, dim in random_point_sets(rng, 90):
            p = Polytope.from_points(pts, dim=dim)
            h = dd_convert(p).hrep
            for _ in range(3):
                x = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
                violated = [a for a, b in h.ineqs if dot(a, x) > b]
                if not violated:
                    continue
                cert = separate(p, x)
                a = violated[0]
                assert cert.functional == a and cert.point == x
                assert cert.gap == dot(a, x) - max(dot(a, v) for v in pts)
                assert verify_separation(cert, p)
                seen += 1
        assert seen > 100

    @pytest.mark.parametrize("x, g, gap", [
        ((F(1, 4), F(1, 4)), (-1, -1), F(1, 2)),
        ((F(1), F(1)), (1, 1), F(1)),
    ], ids=["below", "above"])
    def test_equality_row_of_a_flat_hull(self, x, g, gap):
        """A point of the segment's box off its line violates only the
        equality row x0 + x1 = 1, which, signed, is the certificate."""
        p = Polytope.from_points([(F(1), F(0)), (F(0), F(1))])
        h = dd_convert(p).hrep
        assert h.eqs == (((1, 1), 1),)
        assert all(dot(a, x) <= b for a, b in h.ineqs)
        cert = separate(p, x)
        assert (cert.functional, cert.gap) == (g, gap)
        assert verify_separation(cert, p)

    def test_certificates_verify_everywhere(self):
        rng = random.Random(80)
        for _ in range(20):
            pts = [
                tuple(F(rng.randint(0, 4), 4) for _ in range(3)) for _ in range(4)
            ]
            p = Polytope.from_points(pts)
            x = tuple(v + F(rng.randint(1, 3)) for v in pts[0])
            if contains_point(p, x):
                continue
            cert = separate(p, x)
            assert cert.gap > 0
            assert min(dot(cert.functional, cert.point) - dot(cert.functional, v)
                       for v in p.points) >= cert.gap


def fraction_initial_rays(m):
    return [primitive([-v for v in col]) for col in zip(*fraction_inverse(m))]


def pivot_columns(a):
    """The pivot columns of a's reduced row echelon form: the columns
    that raise the rank of the columns before them."""
    ranks = [matrix_rank([row[:c] for row in a]) for c in range(len(a[0]) + 1)]
    return {c for c in range(len(a[0])) if ranks[c + 1] > ranks[c]}


def fraction_solve_rows(rows, n, reduced=None):
    """`solve_rows` from the Fraction references, which do not read the
    caller's `reduced`; the pivot of a kept row is the column it adds to
    the pivots of the rows before it. The solution is put over its least
    common denominator and each nullspace vector scaled to its primitive
    integer form, after the solve."""
    a = [row[:n] for row in rows] or [[0] * n]
    b = [row[n] for row in rows] or [0]
    status, _, x0, nullspace = solve_linear_system(a, b)
    if status == "inconsistent":
        return None
    pivots = []
    for k in range(1, len(rows) + 1):
        pivots += sorted(pivot_columns(a[:k]) - set(pivots))
    (nums,), den = integer_points([x0])
    return (nums, den), tuple(primitive(v) for v in nullspace), pivots


def random_point_sets(rng, count):
    """(points, dim): full-dimensional sets, sets spanning a random affine
    subspace (a single point included), and points of the simplex."""
    cases = []
    for i in range(count):
        dim = rng.randint(1, 4)
        kind = i % 3
        if kind == 0:
            pts = [
                tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
                for _ in range(rng.randint(1, 7))
            ]
        elif kind == 1:
            base = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
            dirs = [
                [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)]
                for _ in range(rng.randint(0, dim - 1))
            ]
            pts = []
            for _ in range(rng.randint(1, 6)):
                cs = [F(rng.randint(-3, 3)) for _ in dirs]
                pts.append(tuple(
                    base[j] + sum((c * d[j] for c, d in zip(cs, dirs)), F(0))
                    for j in range(dim)
                ))
        else:
            pts = []
            for _ in range(rng.randint(1, 6)):
                w = [F(rng.randint(0, 4)) for _ in range(dim)]
                w[rng.randrange(dim)] += 1
                pts.append(tuple(v / sum(w) for v in w))
        cases.append((pts, dim))
    return cases


class TestEliminationParity:
    """The echelon-based elimination reproduces the Fraction references:
    the same initial rays, the same equality solutions, and so the same
    double description runs."""

    def test_initial_rays_match_fraction_inverse(self):
        rng = random.Random(12)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if matrix_rank(m) < n:
                continue
            assert pt._initial_rays(m) == fraction_initial_rays(m)
            checked += 1

    def test_dd_matches_reference_run(self, monkeypatch):
        rng = random.Random(13)
        point_sets = random_point_sets(rng, 90)
        hreps = []
        for _ in range(30):
            p = random_bounded_hrep(rng, rng.randint(1, 4))
            eq = tuple(F(rng.randint(-2, 2)) for _ in range(p.dim))
            eq = (eq, F(rng.randint(-1, 1)))
            hreps.append(HRep.make(p.dim, p.hrep.ineqs, (eq,)))

        real = pt._extreme_rays
        calls = []

        def recording(rows, dim, stage):
            rays = real(rows, dim, stage)
            calls.append((list(rows), dim, rays))
            return rays

        def run():
            out = []
            for pts, dim in point_sets:
                h = pt._hrep_from_points(*integer_points(pts), dim)[0]
                out.append((h, pt._points_from_hrep(h)))
            for h in hreps:
                try:
                    out.append(pt._points_from_hrep(h))
                except UnboundedError:
                    out.append("unbounded")
            return out

        monkeypatch.setattr(pt, "_extreme_rays", recording)
        shipped = run()
        shipped_calls = list(calls)
        calls.clear()
        monkeypatch.setattr(pt, "solve_rows", fraction_solve_rows)
        monkeypatch.setattr(pt, "_initial_rays", fraction_initial_rays)
        assert run() == shipped
        assert calls == shipped_calls
        assert any(h.eqs and h.ineqs for h, _ in shipped[:90])
        assert any(pts == ((), 1) for pts in shipped[90:])

    def test_canonical_rows_match_fraction_scaling(self):
        rng = random.Random(14)
        for _ in range(500):
            n = rng.randint(1, 4)
            coeffs = [
                F(rng.randint(-4, 4), rng.randint(1, 6)) * rng.choice((0, 1))
                for _ in range(n)
            ]
            rhs = F(rng.randint(-4, 4), rng.randint(1, 6))
            ineq, eq = pt._canon_ineq(coeffs, rhs), pt._canon_eq(coeffs, rhs)
            zero = (0,) * n
            if not any(coeffs):
                assert ineq == (None if rhs >= 0 else (zero, -1))
                assert eq == (None if rhs == 0 else (zero, 1))
                for row in (ineq, eq):
                    assert row is None or all(type(v) is int for v in (*row[0], row[1]))
                continue
            prim = primitive([*coeffs, rhs])
            sign = 1 if next(v for v in prim if v) > 0 else -1
            assert ineq == (prim[:-1], prim[-1])
            assert eq == (tuple(sign * v for v in prim[:-1]), sign * prim[-1])
            for coeffs_out, rhs_out in (ineq, eq):
                assert all(type(v) is int for v in (*coeffs_out, rhs_out))


def random_context_case(rng, kind):
    """A random feasible H-rep: "full" (a box with random cuts), "flat"
    (that, cut by equality rows through a point of it) or "point" (as
    many independent equality rows as coordinates)."""
    dim = rng.randint(1, 4)
    p = random_bounded_hrep(rng, dim, extra_rows=rng.randint(0, 4))
    ineqs, eqs = list(p.hrep.ineqs), []
    if kind != "full":
        x = dd_convert(p).points[0]
        if kind == "point":
            x = tuple(v / 2 for v in x)  # inside the box, outside no cut
            ineqs = [(a, b) for a, b in ineqs if dot(a, x) <= b]
        count = dim if kind == "point" else rng.randint(1, dim)
        while len(eqs) < count:
            e = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            trial = [row for row, _ in eqs] + [e]
            if matrix_rank(trial) == len(trial):
                eqs.append((e, dot(e, x)))
    return Polytope.from_hrep(dim, ineqs, eqs)


class TestLpContext:
    """Every LP over a feasible H-rep runs in affine-hull coordinates from
    the context's origin; values, argmaxes and kept rows match LPs over
    the original coordinates."""

    @pytest.mark.parametrize("kind", ["full", "flat", "point"])
    def test_values_match_brute_force(self, kind):
        rng = random.Random(("full", "flat", "point").index(kind))
        for _ in range(12):
            p = random_context_case(rng, kind)
            h = p.hrep
            ctx = pt._lp_context(p)
            rank = matrix_rank([e for e, _ in h.eqs] or [[0] * p.dim])
            assert len(ctx.basis) == p.dim - rank
            if kind == "point":
                assert ctx.basis == ()
            assert all(slack >= 0 for _, slack in ctx.zrows)
            for _ in range(4):
                f = tuple(
                    F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p.dim)
                )
                status, value, x = pt._maximize(p, f)
                assert status == "optimal"
                assert value == brute_force_max(f, p.dim, h.ineqs, h.eqs)
                assert hrep_contains(h, x) and dot(f, x) == value

    @pytest.mark.parametrize("kind", ["full", "flat", "point"])
    def test_kept_rows_match_reference(self, kind):
        rng = random.Random(10 + ("full", "flat", "point").index(kind))
        for _ in range(12):
            p = random_context_case(rng, kind)
            h = p.hrep
            # duplicated and scaled rows make some rows redundant
            ineqs = list(h.ineqs)
            ineqs += [(tuple(2 * v for v in a), 2 * b) for a, b in h.ineqs[:2]]
            xs, den = pt._points_from_hrep(HRep(p.dim, tuple(ineqs), h.eqs))
            keep = remove_redundant_ineqs(p.dim, ineqs, h.eqs, xs, den)
            assert keep == redundant_rows_reference(p.dim, ineqs, h.eqs)

    def test_generator_origin_needs_no_lp(self, monkeypatch):
        p = Polytope.from_points([(F(1), F(0)), (F(0), F(1))])
        p.hrep
        monkeypatch.setattr(pt, "lp_solve", None)  # any LP would fail
        ctx = pt._lp_context(p)
        assert ctx.origin == (F(0), F(1))
        assert pt._maximize(p, (F(1), F(1))) == ("optimal", F(1), (F(0), F(1)))

    def test_inconsistent_equality_rows_have_no_context(self):
        h = HRep.make(2, eqs=[((F(1), F(1)), F(1)), ((F(2), F(2)), F(1))])
        assert pt.LpContext.eliminated(h) is None
        ctx, cert = pt._feasible_point(h, ((1, 1), 2))
        assert ctx is None
        assert_farkas(h, cert)

    def test_equality_rows_are_eliminated_once_per_system(self, monkeypatch):
        # the elimination that sets a context up serves every certificate
        # mapped through it: two certificates each run one square solve
        # over the rows it chose, and no `echelon` over E's rows.
        # Inconsistent equality rows are eliminated once too: the
        # certificate is read off the elimination that finds them
        # inconsistent, with one square solve
        calls = []

        def counting(real):
            def wrapped(rows):
                calls.append([list(r) for r in rows])
                return real(rows)
            return wrapped

        def over(eqs):
            return sum(c in ([list(e) for e, _ in eqs], [[*e, f] for e, f in eqs])
                       for c in calls)

        h = simplex_beyond_one()
        monkeypatch.setattr(eq, "echelon", counting(eq.echelon))
        monkeypatch.setattr(pt, "echelon", counting(pt.echelon))
        ctx = pt.LpContext.eliminated(h)
        assert over(h.eqs) == 1 and len(calls) == 1
        for k in (1, 2):
            point, cert = ctx.decide()
            assert point is None and cert[-1] != 0
            assert over(h.eqs) == 1 and len(calls) == 1 + k
        calls.clear()
        h = HRep.make(2, eqs=[((F(1), F(1)), F(1)), ((F(2), F(2)), F(1))])
        assert pt._feasible_point(h)[0] is None
        assert over(h.eqs) == 1 and len(calls) == 2

    @pytest.mark.parametrize("part", ["origin", "basis"])
    def test_eliminated_checks_the_equality_solution(self, monkeypatch, part):
        """A solution of the equality rows that misses one of them, or a
        basis vector outside their nullspace, raises RuntimeError when the
        context is set up, before any answer relies on E x = e."""
        real = pt.solve_rows

        def skewed(rows, n, reduced=None):
            (nums, den), null, pivots = real(rows, n, reduced)
            if part == "origin":
                return ((nums[0] + 1, *nums[1:]), den), null, pivots
            return (nums, den), (*null[:-1], tuple(v + 1 for v in null[-1])), pivots

        monkeypatch.setattr(pt, "solve_rows", skewed)
        with pytest.raises(RuntimeError, match="equality rows"):
            pt.LpContext.eliminated(Polytope.simplex(3).hrep)

    def test_empty_has_no_context(self):
        p = Polytope.from_hrep(1, ineqs=[((F(1),), F(-1)), ((F(-1),), F(0))])
        assert pt._lp_context(p) is None and p.is_empty()
        assert pt._maximize(p, (F(1),)) == ("infeasible", None, None)


def simplex_beyond_one():
    """The simplex rows of dimension 3 with x0 >= 2: empty."""
    h = Polytope.simplex(3).hrep
    return HRep(3, (*h.ineqs, ((-1, 0, 0), -2)), h.eqs)


def unit_square():
    return Polytope.from_hrep(
        2, ineqs=[((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    )


def square_context():
    """The LP context of the unit square [0, 1]^2 moved to its centre:
    z = x - (1/2, 1/2), both directions free, so the kernel sees the
    columns z1+, z1-, z2+, z2- and then one slack per row."""
    ctx = pt._lp_context(unit_square()).moved((1, 1), 2)
    assert ctx.basis == ((1, 0), (0, 1))
    return ctx


def off_square_context():
    """The context `eliminated` leaves for the square [1, 2]^2: with no
    equality rows its origin is (0, 0), which violates x1 >= 1 and
    x2 >= 1, so `decide` runs its one LP, over z = x with both
    directions free (no row reads -c z_k <= 0), on the columns z1+, z1-,
    z2+, z2-."""
    square = HRep(2, (((1, 0), 2), ((-1, 0), -1), ((0, 1), 2), ((0, -1), -1)), ())
    ctx = pt.LpContext.eliminated(square)
    assert ctx.origin == (0, 0) and ctx.basis == ((1, 0), (0, 1))
    return ctx


class TestContextAnswerCheck:
    """`maximize` and `decide` check the kernel's answer once, in x, on
    the H-rep's integer rows; a wrong answer raises RuntimeError
    whichever of them asked. `maximize` runs on the unit square from its
    centre, `decide` on the square [1, 2]^2 from (0, 0)."""

    @staticmethod
    def ask(which):
        if which == "maximize":
            return square_context().maximize((F(1), F(0)))
        return off_square_context().decide()

    @pytest.mark.parametrize("which", ["maximize", "decide"])
    def test_point_violating_a_row(self, monkeypatch, which):
        # z = (1, 0): from the centre x = (3/2, 1/2), outside x1 <= 1;
        # from (0, 0) x = (1, 0), outside x2 >= 1
        cols = [F(1), F(0), F(0), F(0)]
        monkeypatch.setattr(_backend, "simplex_solve", lambda *a: ("optimal", cols, None))
        with pytest.raises(RuntimeError, match="violates a constraint"):
            self.ask(which)

    @pytest.mark.parametrize("which", ["maximize", "decide"])
    @pytest.mark.parametrize(
        "cols, message",
        [
            # maximize: z1 = -1 - (-3/2) = 1/2, so x = (1, 1/2), the
            # argmax of x1; decide: z = (3/2, 3/2), a point of [1, 2]^2;
            # but the kernel's columns are x >= 0
            ({"maximize": [F(-1), F(-3, 2), F(0), F(0)],
              "decide": [F(-1), F(-5, 2), F(3, 2), F(0)]}, "negative"),
            # no z2- column: read as 0 it would give x = (1/4, 1/2) from
            # the centre (z1 = 0 - 1/4) and x = (3/2, 3/2) from (0, 0),
            # each meeting every row
            ({"maximize": [F(0), F(1, 4), F(0)],
              "decide": [F(3, 2), F(0), F(3, 2)]}, "wrong length"),
        ],
        ids=["negative-column", "missing-column"],
    )
    def test_point_meeting_every_row_but_wrong(self, monkeypatch, which, cols, message):
        monkeypatch.setattr(
            _backend, "simplex_solve", lambda *a: ("optimal", cols[which], None)
        )
        with pytest.raises(RuntimeError, match=message):
            self.ask(which)

    def test_witness_negative_on_a_row(self, monkeypatch):
        # weight on x1 <= 2 alone: normalized to rhs -1 it is negative on
        # an inequality row, which the check in x refuses
        y = [F(1), F(0), F(0), F(0)]
        monkeypatch.setattr(_backend, "simplex_solve", lambda *a: ("infeasible", None, y))
        with pytest.raises(RuntimeError, match="negative multiplier"):
            self.ask("decide")

    def test_kernel_answers_pass(self):
        assert self.ask("maximize") == ("optimal", F(1), (F(1), F(1, 2)))
        ctx, _ = self.ask("decide")
        point = ctx.origin
        assert 1 <= point[0] <= 2 and 1 <= point[1] <= 2


def random_empty_flat_system(rng):
    """(h, context, certificate) for an empty H-rep with equality rows
    through a point x, in a third of the cases also a combination of
    them, and inequality rows through or near x, some violated there;
    drawn until `LpContext.decide` proves it empty."""
    while True:
        dim = rng.randint(2, 5)
        x = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim))
        eqs = []
        for _ in range(rng.randint(1, dim - 1)):
            e = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            eqs.append((e, dot(e, x)))
        if rng.random() < 1 / 3:
            (e1, f1), (e2, f2) = rng.choice(eqs), rng.choice(eqs)
            k = F(rng.choice([2, -3, 1]), rng.choice([1, 2]))
            eqs.append((tuple(k * a + b for a, b in zip(e1, e2)), k * f1 + f2))
        ineqs = []
        for _ in range(rng.randint(2, 6)):
            a = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
            ineqs.append((a, dot(a, x) + rng.randint(-3, 1)))
        h = HRep.make(dim, ineqs, eqs)
        ctx = pt.LpContext.eliminated(h)
        if ctx is None:
            continue
        point, cert = ctx.decide()
        if point is None:
            return h, ctx, cert


class TestEqualityPart:
    """`LpContext._eq_part` sums the equality rows' part of a certificate
    in integers; it is the Fraction reference's, exactly, and a wrong
    combination still fails the certificate check."""

    def test_matches_fraction_reference(self):
        rng = random.Random(2424)
        dependent = weighted = 0
        for _ in range(60):
            h, ctx, cert = random_empty_flat_system(rng)
            n = len(h.ineqs)
            assert cert[n:] == eq_part_reference(ctx, cert[:n])
            assert all(type(v) is F for v in cert[n:])
            y = [F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n)]
            assert tuple(ctx._eq_part(y)) == eq_part_reference(ctx, y)
            dependent += bool(h.eqs) and matrix_rank([e for e, _ in h.eqs]) < len(h.eqs)
            weighted += any(cert[n:])
        assert dependent and weighted

    def test_tampered_combination_fails_the_check(self, monkeypatch):
        """One integer weight of the combination the certificate uses,
        off by one: the equality part is wrong, and `_check_farkas`
        refuses it."""
        real = pt.combination

        def tampered_combination(rows, target, pivots=None):
            nums, den = real(rows, target, pivots)
            k = next(k for k, v in enumerate(nums) if v)
            nums[k] += 1
            return nums, den

        rng = random.Random(2525)
        tampered = 0
        while tampered < 10:
            h, ctx, cert = random_empty_flat_system(rng)
            if not any(cert[len(h.ineqs):]):
                continue
            with monkeypatch.context() as m:
                m.setattr(pt, "combination", tampered_combination)
                with pytest.raises(RuntimeError, match="combined row"):
                    ctx.decide()
            tampered += 1


class TestIntegerRows:
    """H-rep rows are int tuples with int rhs, and membership substitutes
    a point into them in integers."""

    @pytest.mark.parametrize("kind", ["full", "flat", "point"])
    def test_contains_point_matches_fraction_substitution(self, kind):
        rng = random.Random(60 + ("full", "flat", "point").index(kind))
        seen = {"on a facet": 0, "just outside": 0, "outside": 0}
        for _ in range(15):
            p = random_context_case(rng, kind)
            h = p.hrep
            verts = dd_convert(p).points
            center = tuple(sum(c) / len(verts) for c in zip(*verts))
            near = [tuple(v + (v - c) / 1000 for v, c in zip(x, center)) for x in verts]
            points = [*verts, *near]
            points += [tuple((a + b) / 2 for a, b in zip(u, v))
                       for u, v in zip(verts, verts[1:])]
            points += [
                tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p.dim))
                for _ in range(5)
            ]
            for x in points:
                expected = hrep_contains(h, x)
                assert contains_point(p, x) == expected
                if expected and any(dot(a, x) == b for a, b in h.ineqs):
                    seen["on a facet"] += 1
                elif not expected:
                    on_hull = all(dot(e, x) == f for e, f in h.eqs)
                    seen["just outside" if x in near and on_hull else "outside"] += 1
        assert all(seen.values()) or (kind == "point" and seen["outside"])

    def test_constructor_stores_ints(self):
        h = HRep(2, (((F(2), F(-1)), F(3)),), (((1, 1), F(1)),))
        assert h == HRep(2, (((2, -1), 3),), (((1, 1), 1),))
        assert all(type(v) is int for a, b in (*h.ineqs, *h.eqs) for v in (*a, b))
        with pytest.raises(DimensionError):
            HRep(2, (((F(1, 2), F(1)), F(1)),), ())
        with pytest.raises(DimensionError):
            HRep(1, (), (((1,), F(1, 3)),))

    def test_library_rows_are_ints(self):
        made = HRep.make(
            2, [((F(1, 2), F(-1, 3)), F(1)), ((F(0), F(0)), F(-2))],
            [((F(-2), F(4)), F(6))],
        )
        assert made == HRep(2, (((3, -2), 6), ((0, 0), -1)), (((1, -2), -3),))
        rng = random.Random(61)
        hreps = [made, Polytope.simplex(4).hrep, pt._hrep_from_points((), 1, 3)[0]]
        for pts, dim in random_point_sets(rng, 30):
            hreps.append(pt._hrep_from_points(*integer_points(pts), dim)[0])
        for h in hreps:
            assert_int_rows(h)


def assert_int_rows(h):
    """Every row of the H-rep h is an int tuple with an int rhs."""
    for a, b in (*h.ineqs, *h.eqs):
        assert type(a) is tuple and all(type(v) is int for v in (*a, b))


def facet_case(rng, kind):
    """A random feasible system (`random_context_case`) with scaled copies
    of two of its rows, and its vertices. "implicit" is a "flat" case
    whose first equality row is also written as two inequality rows,
    placed among the others: rows tight at every vertex that the
    remaining equality rows do not imply."""
    p = random_context_case(rng, "flat" if kind == "implicit" else kind)
    h = p.hrep
    ineqs = [*h.ineqs, *((tuple(2 * v for v in a), 2 * b) for a, b in h.ineqs[:2])]
    eqs = h.eqs
    if kind == "implicit":
        (e, f), eqs = eqs[0], eqs[1:]
        for row in ((e, f), (tuple(-v for v in e), -f)):
            ineqs.insert(rng.randint(0, len(ineqs)), row)
    return Polytope(p.dim, hrep=HRep(p.dim, tuple(ineqs), eqs)), dd_convert(p).points


def simplex3_system(ineqs=(), eqs=()):
    """The rows of the probability simplex in dimension 3 and the given
    rows, as a system polytope."""
    s = Polytope.simplex(3).hrep
    return Polytope(3, hrep=HRep.make(3, (*s.ineqs, *ineqs), (*s.eqs, *eqs)))


def kept_rows_and_lps(monkeypatch, p, vertices):
    """remove_redundant_ineqs on p's rows, given vertices, and the number
    of LPs it ran."""
    calls = []
    real = pt.lp_solve

    def counting(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(pt, "lp_solve", counting)
    try:
        h = p.hrep
        xs, den = integer_points(vertices)
        return remove_redundant_ineqs(p.dim, h.ineqs, h.eqs, xs, den), len(calls)
    finally:
        monkeypatch.setattr(pt, "lp_solve", real)


def implicit_rows(p, vertices):
    """The inequality rows of p tight at every vertex, when p's equality
    rows leave more directions than the vertices span; else []."""
    x0 = vertices[0]
    spanned = matrix_rank([[a - b for a, b in zip(x, x0)] for x in vertices] or [[0]])
    free = p.dim - matrix_rank([e for e, _ in p.hrep.eqs] or [[0] * p.dim])
    if spanned == free:
        return []
    return [i for i, (a, b) in enumerate(p.hrep.ineqs)
            if all(dot(a, x) == b for x in vertices)]


class TestFacetRows:
    """The kept rows are read off the set's vertices with no LP, and they
    are the rows the drop-one-row filter keeps (`redundant_rows_reference`):
    the last row of each facet, and the implicit equality rows without
    which the kept rows would let the set leave its affine hull. A point
    that violates a row raises RuntimeError."""

    @pytest.mark.parametrize("kind", ["full", "flat", "point", "implicit"])
    def test_vertices_keep_the_reference_rows(self, kind, monkeypatch):
        rng = random.Random(20 + ("full", "flat", "point", "implicit").index(kind))
        implicit = 0
        for _ in range(12):
            p, vertices = facet_case(rng, kind)
            h = p.hrep
            keep, lps = kept_rows_and_lps(monkeypatch, p, vertices)
            assert keep == redundant_rows_reference(p.dim, h.ineqs, h.eqs)
            assert lps == 0
            implicit += bool(implicit_rows(p, vertices))
            if kind == "point":
                assert keep == []
        # a flat case may meet the box in a lower-dimensional face, whose
        # box rows are then implicit equalities too
        assert implicit == 12 if kind == "implicit" else implicit < 12

    @pytest.mark.parametrize("order", ["simplex-first", "cut-first"])
    def test_tie_keeps_the_last_row_of_a_facet(self, order, monkeypatch):
        # on the hull x0 + x1 + x2 = 1 the cut x0 + x1 <= 1 and the
        # simplex row -x2 <= 0 define the same facet
        s = Polytope.simplex(3).hrep
        cut = ((F(1), F(1), F(0)), F(1))
        ineqs = (*s.ineqs, cut) if order == "simplex-first" else (cut, *s.ineqs)
        p = Polytope(3, hrep=HRep.make(3, ineqs, s.eqs))
        keep, lps = kept_rows_and_lps(monkeypatch, p, Polytope.simplex(3).points)
        assert lps == 0
        assert keep == redundant_rows_reference(3, ineqs, s.eqs)
        assert keep == ([0, 1, 3] if order == "simplex-first" else [1, 2, 3])

    def test_point_outside_the_set_raises(self):
        # x0 <= 1/2; the simplex vertex (1, 0, 0) violates it
        p = simplex3_system(ineqs=[(unit_row(3, 0), F(1, 2))])
        vertices = (*dd_convert(p).points, unit_row(3, 0))
        with pytest.raises(RuntimeError, match="inequality row"):
            remove_redundant_ineqs(3, p.hrep.ineqs, p.hrep.eqs, *integer_points(vertices))

    def test_point_off_an_equality_row_raises(self):
        # the segment x0 = x1; (1, 0, 0) holds every inequality row
        p = simplex3_system(eqs=[((F(1), F(-1), F(0)), F(0))])
        vertices = (*dd_convert(p).points, unit_row(3, 0))
        assert all(dot(a, x) <= b for a, b in p.hrep.ineqs for x in vertices)
        with pytest.raises(RuntimeError, match="equality row"):
            remove_redundant_ineqs(3, p.hrep.ineqs, p.hrep.eqs, *integer_points(vertices))

    def test_implicit_equality_is_read_off(self, monkeypatch):
        # the segment x0 = x1 as two inequality rows: its two vertices span
        # one direction, the one equality row leaves two; each of the two
        # rows alone lets the set leave the segment, so both are kept
        d = (F(1), F(-1), F(0))
        p = simplex3_system(ineqs=[(d, F(0)), (tuple(-v for v in d), F(0))])
        vertices = dd_convert(p).points
        assert len(vertices) == 2 and implicit_rows(p, vertices) == [3, 4]
        keep, lps = kept_rows_and_lps(monkeypatch, p, vertices)
        assert lps == 0
        assert keep == redundant_rows_reference(3, p.hrep.ineqs, p.hrep.eqs)
        assert keep == [1, 2, 3, 4]


def boxed_simplex(n):
    """{x : sum x = 1, 1/(2n) <= x_j <= 3/(2n)}: its vertices put 3/(2n)
    on n/2 coordinates ((n choose n/2) of them), and the double
    description of its rows holds 382 rays at its peak at n = 10, and
    more than 1,000 at n = 12."""
    box = [(unit_row(n, j), F(3, 2 * n)) for j in range(n)]
    box += [(unit_row(n, j, -1), F(-1, 2 * n)) for j in range(n)]
    return HRep.make(n, box, Polytope.simplex(n).hrep.eqs)


class TestVertexEnumeration:
    """`_points_from_hrep` gives the same sorted vertices in any LP
    context of the set and any row order, checks each against every row,
    and stops once its double description holds more than RAY_CAP rays."""

    @pytest.mark.parametrize("kind", ["full", "flat", "point"])
    def test_context_and_order_leave_the_vertices(self, kind):
        rng = random.Random(40 + ("full", "flat", "point").index(kind))
        for _ in range(12):
            p = random_context_case(rng, kind)
            h = p.hrep
            expected = pt._points_from_hrep(h)
            order = list(range(len(h.ineqs)))
            rng.shuffle(order)
            ctx = pt._lp_context(p)
            moved = ctx.moved(rng.choice(expected[0]), expected[1])
            assert pt._points_from_hrep(h, ctx, order) == expected
            assert pt._points_from_hrep(h, moved, order[::-1]) == expected
            assert fraction_points(*expected) == dd_convert(p).points

    def test_hull_order(self):
        # the square [0, 1]^2 cut by x0 + x1 <= 3/2, against the square's
        # corners and (1/2, 1): x1 <= 1 is tight at three of them and goes
        # first, and the cut, which (1, 1) violates, goes last
        p = Polytope.from_hrep(2, [
            ((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((1, 1), F(3, 2)),
        ])
        points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1, 2), F(1))]
        assert pt._hull_order(p.hrep, *integer_points(points)) == (
            [2, 0, 1, 3, 4], [True, True, True, False, True]
        )

    def test_vertex_off_the_set_raises(self, monkeypatch):
        real = pt._extreme_rays

        def shifted(rows, dim, stage):
            rays, masks = real(rows, dim, stage)
            ray = rays[0]
            return [(*(v + 5 * ray[-1] for v in ray[:-1]), ray[-1]), *rays[1:]], masks

        monkeypatch.setattr(pt, "_extreme_rays", shifted)
        with pytest.raises(RuntimeError, match="violates an inequality row"):
            pt._points_from_hrep(unit_square().hrep)

    def test_ray_cap_stops_the_boxed_simplex(self, monkeypatch):
        h = boxed_simplex(12)
        monkeypatch.setattr(pt, "RAY_CAP", 64)
        with pytest.raises(pt.ResourceCapError, match="^vertex enumeration: .* 64 rays"):
            pt._points_from_hrep(h)
        xs, den = pt._points_from_hrep(boxed_simplex(6))
        monkeypatch.setattr(pt, "RAY_CAP", 8)
        with pytest.raises(pt.ResourceCapError, match="^facet enumeration: "):
            pt._hrep_from_points(xs, den, 6)

    def test_default_cap_holds_n_10_and_stops_n_12(self):
        assert len(pt._points_from_hrep(boxed_simplex(10))[0]) == 252
        with pytest.raises(pt.ResourceCapError, match=f" {pt.RAY_CAP} rays"):
            pt._points_from_hrep(boxed_simplex(12))


def random_unit_row_system(rng, dim, only_units):
    """An empty H-rep with unit rows -c x_j <= 0 (c > 0, some repeated)
    on a random subset of variables, random equality rows, and unless
    `only_units` random inequality rows too."""
    while True:
        bounded = rng.sample(range(dim), rng.randint(1, dim))
        ineqs = []
        for j in bounded + rng.sample(bounded, rng.randint(0, 1)):
            row = [F(0)] * dim
            row[j] = F(-rng.randint(1, 3))
            ineqs.append((tuple(row), F(0)))
        if not only_units:
            for _ in range(rng.randint(1, 3)):
                a = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                ineqs.append((a, F(rng.randint(-2, 2))))
        eqs = [
            (tuple(F(rng.randint(-2, 2)) for _ in range(dim)), F(rng.randint(-2, 2)))
            for _ in range(rng.randint(1, 2))
        ]
        rng.shuffle(ineqs)
        rows = [(a, LE, b) for a, b in ineqs] + [(e, EQ, f) for e, f in eqs]
        if not fraction_feasible(dim, rows):
            return HRep.make(dim, ineqs, eqs)


def assert_farkas(h, cert):
    """cert proves the H-rep empty with every variable free: one
    multiplier per row, >= 0 on the inequality rows, combining the rows
    [a | b] to 0 on the coefficients and a negative rhs; checked in
    integers, independently of `_check_infeasible`."""
    rows = [(a, b) for a, b in h.ineqs] + [(e, f) for e, f in h.eqs]
    assert len(cert) == len(rows)
    assert all(y >= 0 for y in cert[: len(h.ineqs)])
    den = lcm(*[y.denominator for y in cert], *[v.denominator for a, b in rows
                                                for v in (*a, b)])
    combined = [0] * (h.dim + 1)
    for (a, b), y in zip(rows, cert):
        for j, v in enumerate((*a, b)):
            combined[j] += int(y * v * den * den)
    assert combined[: h.dim] == [0] * h.dim and combined[h.dim] < 0


class TestFeasibleCertificate:
    """The reference `feasible_point_reference` takes unit rows as
    bounds; its certificate on an empty system has one multiplier per
    H-rep row and holds for the system with every variable free."""

    @pytest.mark.parametrize("only_units", [False, True])
    def test_per_row_certificate_on_all_free_rows(self, only_units):
        rng = random.Random(41 + only_units)
        on_units = 0
        for _ in range(30):
            dim = rng.randint(2, 4)
            h = random_unit_row_system(rng, dim, only_units)
            status, x, cert = feasible_point_reference(Polytope(dim, hrep=h))
            assert (status, x) == ("infeasible", None)
            assert_farkas(h, cert)
            units = [
                i for i, (a, b) in enumerate(h.ineqs)
                if unit_nonneg(a, b, dim) is not None
            ]
            on_units += any(cert[i] for i in units)
        assert on_units  # the bounds carry weight


def feasibility_lps(monkeypatch, p, candidate=None):
    """`_feasible_point(p.hrep, candidate)` and, for each LP it ran, its column
    count and how many of its columns are sign-constrained."""
    cols = []
    real = pt.lp_solve

    def counting(problem):
        cols.append((len(problem.objective), sum(problem.nonneg)))
        return real(problem)

    with monkeypatch.context() as m:
        m.setattr(pt, "lp_solve", counting)
        return pt._feasible_point(p.hrep, candidate), cols


def random_feasibility_case(rng):
    """A random H-rep, empty or not, over 1 to 4 variables: random
    inequality rows (unit rows among them) and 0 to dim random equality
    rows, some through one point."""
    dim = rng.randint(1, 4)
    x = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim))
    ineqs = []
    for _ in range(rng.randint(1, 5)):
        a = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        ineqs.append((a, dot(a, x) + F(rng.randint(-2, 2), 2)))
    for j in rng.sample(range(dim), rng.randint(0, dim)):
        ineqs.append((tuple(F(-(k == j)) for k in range(dim)), F(0)))
    eqs = []
    for _ in range(rng.randint(0, dim)):
        e = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        eqs.append((e, dot(e, x) + rng.choice([0, 0, 1])))
    return Polytope.from_hrep(dim, ineqs, eqs)


class TestFeasiblePoint:
    """`_feasible_point` decides emptiness in affine-hull coordinates:
    the same status as the reference's LP over every row, a certificate
    that proves an empty system empty, and for a nonempty one its LP
    context at a point of it. Only systems with free hull directions and
    no point found by elimination run an LP, over those d columns; a row
    that reduces to -c z_k <= 0 is the bound z_k >= 0."""

    def assert_decides(self, monkeypatch, p, lp_shapes):
        (ctx, cert), cols = feasibility_lps(monkeypatch, p)
        status, _, ref_cert = feasible_point_reference(p)
        assert (ctx is None) == (status == "infeasible")
        assert cols == lp_shapes
        if ctx is None:
            assert_farkas(p.hrep, cert)
            return
        assert cert is None and hrep_contains(p.hrep, ctx.origin)
        fresh = pt.LpContext.eliminated(p.hrep)
        fresh = fresh.moved(ctx.onums, ctx.oden)
        assert (ctx.basis, ctx.zrows, ctx.live) == (fresh.basis, fresh.zrows, fresh.live)

    def test_random_systems_match_reference(self, monkeypatch):
        rng = random.Random(5)
        seen = set()
        bounded = 0
        for _ in range(150):
            p = random_feasibility_case(rng)
            (ctx, cert), cols = feasibility_lps(monkeypatch, p)
            status, _, _ = feasible_point_reference(p)
            assert (ctx is None) == (status == "infeasible")
            if ctx is None:
                assert_farkas(p.hrep, cert)
            else:
                assert hrep_contains(p.hrep, ctx.origin)
            d = p.dim - matrix_rank([e for e, _ in p.hrep.eqs] or [[0]])
            assert all(c == d for c, _ in cols)
            seen.add((ctx is None, bool(cols)))
            bounded += any(b for _, b in cols)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
        assert bounded

    def test_inconsistent_equality_rows_need_no_lp(self, monkeypatch):
        p = Polytope.from_hrep(
            3, ineqs=[((F(-1), F(0), F(0)), F(0))],
            eqs=[((F(1), F(1), F(0)), F(1)), ((F(0), F(0), F(1)), F(1, 3)),
                 ((F(2), F(2), F(1)), F(2))],
        )
        self.assert_decides(monkeypatch, p, [])
        assert pt.LpContext.eliminated(p.hrep) is None

    @pytest.mark.parametrize("inside", [True, False])
    def test_single_point_hull_needs_no_lp(self, monkeypatch, inside):
        # the equality rows pin x = (1/2, 1/4, 1/4)
        cut = F(1, 3) if inside else F(1, 5)
        p = Polytope.from_hrep(
            3, ineqs=[((F(0), F(1), F(0)), cut), ((F(-1), F(0), F(0)), F(0))],
            eqs=[((F(1), F(1), F(1)), F(1)), ((F(1), F(-2), F(0)), F(0)),
                 ((F(0), F(1), F(-1)), F(0))],
        )
        self.assert_decides(monkeypatch, p, [])

    @pytest.mark.parametrize("feasible", [True, False])
    def test_free_directions_run_one_lp_over_them(self, monkeypatch, feasible):
        # x0 = (1, 0, 0, 0) of the equality rows violates x1 + x2 >= 1/2
        p = Polytope.from_hrep(
            4,
            ineqs=[*Polytope.simplex(4).hrep.ineqs,
                   ((F(0), F(-1), F(-1), F(0)), F(-1, 2)),
                   ((F(0), F(1), F(0), F(0)), F(1, 5) if feasible else F(0))],
            eqs=[((F(1), F(1), F(1), F(1)), F(1)),
                 ((F(0), F(0), F(1), F(-1)), F(0)) if feasible
                 else ((F(0), F(0), F(1), F(0)), F(0))],
        )
        # x1 and x3 are the free columns, so -x1 <= 0 and -x3 <= 0 are bounds
        self.assert_decides(monkeypatch, p, [(2, 2)])

    @pytest.mark.parametrize("feasible", [True, False])
    def test_simplex_row_as_only_equality(self, monkeypatch, feasible):
        rhs = F(-1, 2) if feasible else F(-2)
        h = Polytope.simplex(5).hrep
        p = Polytope(5, hrep=HRep.make(
            5, (*h.ineqs, ((F(0), F(-1), F(-1), F(0), F(0)), rhs)), h.eqs
        ))
        self.assert_decides(monkeypatch, p, [(4, 4)])

    def test_violated_constant_row_needs_no_lp(self, monkeypatch):
        # x0 + x1 is 1 on the hull, so x0 + x1 <= 1/2 is violated there
        p = Polytope.from_hrep(
            3, ineqs=[((F(0), F(0), F(1)), F(1)), ((F(1), F(1), F(0)), F(1, 2))],
            eqs=[((F(1), F(1), F(0)), F(1))],
        )
        self.assert_decides(monkeypatch, p, [])

    def test_emptiness_takes_unit_rows_as_bounds(self, monkeypatch):
        """x0 + x1 + x2 = 1 with x0 >= 2 is empty. The equality row
        leaves x1 and x2 free at x = (1, 0, 0), so -x1 <= 0 and -x2 <= 0
        reduce to -z_k <= 0 there: the one LP takes them as the bounds
        z_k >= 0, two columns, neither split, and both bound rows carry
        weight in the certificate. On random empty systems with unit rows
        the answer is the Fraction reference's, and bound rows carry
        weight in some certificates."""
        h = simplex_beyond_one()
        (ctx, cert), cols = feasibility_lps(monkeypatch, Polytope(3, hrep=h))
        assert ctx is None and cols == [(2, 2)]
        assert_farkas(h, cert)
        eliminated = pt.LpContext.eliminated(h)
        assert [i for i, z in enumerate(eliminated.zrows)
                if pt._unit_bound(z) is not None] == [1, 2]
        assert cert[1] and cert[2]
        rng = random.Random(43)
        weighted = 0
        for _ in range(40):
            dim = rng.randint(2, 4)
            ctx = pt.LpContext.eliminated(random_unit_row_system(rng, dim, False))
            if ctx is None:
                continue
            got = ctx.decide()
            assert got[0] is None and got == context_decide_reference(ctx)
            weighted += any(got[1][i] for i, z in enumerate(ctx.zrows)
                            if ctx.live[i] and pt._unit_bound(z) is not None)
        assert weighted

    def test_candidate_point_is_the_origin(self, monkeypatch):
        p = Polytope.simplex(3)
        x = (F(1, 3), F(1, 3), F(1, 3))
        (ctx, cert), cols = feasibility_lps(monkeypatch, p, ((1, 1, 1), 3))
        assert (ctx.origin, cert, cols) == (x, None, [])
        outside = (F(1), F(1), F(-1))
        (ctx, _), _ = feasibility_lps(monkeypatch, p, ((1, 1, -1), 1))
        assert ctx.origin != outside and hrep_contains(p.hrep, ctx.origin)


class TestLpStatusChecks:
    """A wrong LP status, or a supremum that leaves no gap, raises
    RuntimeError, also under python -O."""

    @staticmethod
    def unbounded(p, f):
        return "unbounded", None, None

    def test_separate_and_sup(self, monkeypatch):
        p = Polytope.simplex(2)
        monkeypatch.setattr(pt, "_maximize", self.unbounded)
        with pytest.raises(RuntimeError):
            separate(p, (F(2), F(-1)))
        with pytest.raises(RuntimeError):
            pt._sup(p, (F(1), F(0)))

    def test_subset_and_upper(self, monkeypatch):
        """`is_subset`'s facet route and an upper expectation over an
        H-rep set refuse a non-optimal LP."""
        monkeypatch.setattr(pt, "_maximize", self.unbounded)
        with pytest.raises(UnboundedError):
            is_subset(Polytope.simplex(2), Polytope.from_points([(F(1), F(0))]))
        with pytest.raises(RuntimeError, match="supremum LP ended unbounded"):
            _upper(credal_set_from_hrep(make_space(("a",), ("0", "1")), ("a",)),
                   (F(1), F(0)))

    def test_hull_separation(self, monkeypatch):
        """x violates x0 <= 1 of the segment's rows; a sup of that row
        over the points as large as its value at x leaves no gap."""
        p = Polytope.from_points([(F(1), F(0)), (F(0), F(1))])
        x = (F(2), F(-1))
        monkeypatch.setattr(pt, "_sup", lambda q, f: dot(f, x))
        with pytest.raises(RuntimeError, match="does not separate"):
            separate(p, x)

    def test_under_optimize_flag(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (
            "import credalkit.polytope as pt\n"
            "pt._maximize = lambda p, f: ('unbounded', None, None)\n"
            "try:\n"
            "    pt.separate(pt.Polytope.simplex(2), (2, -1))\n"
            "except RuntimeError:\n"
            "    print('raised')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "raised", out.stderr


def unit_row(dim, j, sign=1):
    return tuple(F(sign if k == j else 0) for k in range(dim))


def random_subset_pair(rng, case):
    """Rows of p and q for one containment query: (dim, p rows, q rows),
    each rows a pair (ineqs, eqs) of integer rows.

    p is a box [-2, 2]^dim cut by primitive integer rows through
    nonnegative rhs (so the origin stays in it), some of them copied
    with the same or a larger rhs, and sometimes cut by one equality row
    through the origin. q reuses p's rows: shared, with a smaller, equal
    or larger rhs, duplicated, mixed with fresh rows. `case` "empty-p"
    and "empty-q" add a row that empties that side; "fail-last" puts
    one failing row after rows that p carries."""
    dim = rng.randint(2, 3)
    box = [(unit_row(dim, j, s), F(2)) for j in range(dim) for s in (1, -1)]
    cuts = []
    while len(cuts) < rng.randint(1, 3):
        a = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if any(a) and gcd(*(int(v) for v in a)) == 1:
            cuts.append((a, F(rng.randint(0, 3))))
    p_ineqs = box + cuts
    p_ineqs += [(a, b + rng.randint(0, 2)) for a, b in rng.sample(p_ineqs, 2)]
    p_eqs = [((F(1),) * dim, F(0))] if rng.random() < 0.3 else []

    if case == "fail-last":
        q_ineqs = rng.sample(p_ineqs, 3) + [(cuts[0][0], cuts[0][1] - 1)]
        q_eqs = []
    else:
        q_ineqs = []
        for a, b in p_ineqs:
            if rng.random() < 0.8:
                q_ineqs.append((a, b + rng.choice((-1, 0, 0, 1, 2))))
        q_ineqs += rng.sample(q_ineqs, min(2, len(q_ineqs)))  # duplicates
        for _ in range(rng.randint(0, 2)):
            a = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
            q_ineqs.append((a, F(rng.randint(0, 5))))
        rng.shuffle(q_ineqs)
        q_ineqs = box + q_ineqs  # keeps q bounded
        q_eqs = p_eqs if rng.random() < 0.5 else []
    if case in ("empty-p", "empty-q"):
        (p_ineqs if case == "empty-p" else q_ineqs).append((unit_row(dim, 0), F(-3)))
    return dim, (p_ineqs, p_eqs), (q_ineqs, q_eqs)


def counted(monkeypatch, fn, p, q):
    """fn(p, q) with every `pt._maximize` call recorded as ("p" | "q",
    functional)."""
    calls = []
    real = pt._maximize

    def counting(poly, f):
        calls.append(("p" if poly is p else "q", tuple(f)))
        return real(poly, f)

    monkeypatch.setattr(pt, "_maximize", counting)
    try:
        return fn(p, q), calls
    finally:
        monkeypatch.setattr(pt, "_maximize", real)


class TestSubsetParity:
    """`is_subset` skips the rows of q that p already carries and
    otherwise makes exactly the reference's LPs, with the same answer."""

    CASES = ["mixed"] * 6 + ["fail-last", "empty-p", "empty-q"]

    def test_random_pairs_match_reference(self, monkeypatch):
        rng = random.Random(2026)
        seen = {"equal-rhs skip": 0, "smaller of two rhs": 0, "fails": 0,
                "fail-last": 0, "empty-p": 0, "empty-q": 0}
        for k in range(60):
            case = self.CASES[k % len(self.CASES)]
            dim, p_rows, q_rows = random_subset_pair(rng, case)
            sides = []
            for fn in (is_subset_reference, is_subset):
                p = Polytope.from_hrep(dim, *p_rows)
                q = Polytope.from_hrep(dim, *q_rows)
                sides.append(counted(monkeypatch, fn, p, q))
            (want, ref_calls), (got, calls) = sides
            assert got == want
            assert p.is_empty() == (case == "empty-p")
            if case == "empty-q":
                assert q.is_empty() and got == (False, None)

            # the rows p carries among those the reference probed: the
            # j-th maximization over p is the j-th inequality row of q
            carried = {}
            for a, b in p.hrep.ineqs:
                carried.setdefault(a, []).append(b)
            rows = q.hrep.ineqs
            probed = [i for i, (side, _) in enumerate(ref_calls) if side == "p"]
            skipped = {
                probed[j] for j, (a, b) in enumerate(rows[: len(probed)])
                if any(b2 <= b for b2 in carried.get(a, ()))
            }
            assert calls == [c for i, c in enumerate(ref_calls) if i not in skipped]
            if skipped:
                assert len(calls) < len(ref_calls)
            for j in range(min(len(probed), len(rows))):
                a, b = rows[j]
                if b in carried.get(a, ()):
                    seen["equal-rhs skip"] += 1
                if min(carried.get(a, [b + 1])) <= b < max(carried.get(a, [b])):
                    seen["smaller of two rhs"] += 1
            seen["fails"] += not got[0]
            if case == "fail-last":
                assert not got[0] and len(skipped) == 3
            if case in seen:
                seen[case] += 1
        assert all(seen.values()), seen

    def test_generator_form_p_stays_pointwise(self, monkeypatch):
        """A p given by generators is tested point by point: no H-rep is
        computed for it, whatever rows q shares with its hull."""
        conversions = []
        real = pt._hrep_from_points
        monkeypatch.setattr(
            pt, "_hrep_from_points",
            lambda *args: conversions.append(args) or real(*args),
        )
        simplex = Polytope.simplex(3)
        corners = [unit_row(3, j) for j in range(3)]
        for pts, holds in ((corners, True), (corners + [(F(2), F(-1), F(0))], False)):
            p = Polytope.from_points(pts)
            ref = Polytope.from_points(pts)
            assert is_subset(p, simplex) == is_subset_reference(ref, simplex)
            assert is_subset(p, simplex)[0] is holds
            assert p._hrep is None
        assert conversions == []


class TestConvertCache:
    """`dd_convert` converts each polytope once and keeps the result."""

    def inputs(self):
        rng = random.Random(77)
        yield random_bounded_hrep(rng, 3)
        yield Polytope.from_points(
            [tuple(F(rng.randint(0, 4), 4) for _ in range(3)) for _ in range(6)]
        )
        yield Polytope.from_hrep(2, ineqs=[((1, 0), -1), ((-1, 0), 0)])  # empty

    def test_second_call_returns_the_same_object(self, monkeypatch):
        for p in self.inputs():
            first = dd_convert(p)
            monkeypatch.setattr(pt, "_hrep_from_points", None)  # no second DD
            assert dd_convert(p) is first
            monkeypatch.undo()

    def test_equals_a_fresh_conversion_of_a_copy(self):
        for p in self.inputs():
            copy = Polytope(p.dim, hrep=p._hrep, xs=p._xs, den=p._den)
            cached, fresh = dd_convert(p), dd_convert(copy)
            assert cached is not fresh
            assert cached.points == fresh.points
            assert cached.hrep == fresh.hrep

    def test_canonical_input_returns_itself(self):
        for p in self.inputs():
            q = dd_convert(p)
            assert q._canonical and dd_convert(q) is q
