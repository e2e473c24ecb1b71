"""Random-instance generators shared by the joint tests and acceptance."""

import random
from fractions import Fraction
from itertools import permutations

import credalkit.polytope as pt
from credalkit.credal import (
    POLYTOPE,
    SUPPLIED,
    CredalCollection,
    CredalSet,
    credal_set_from_members,
    credal_set_from_vertices,
)
from credalkit.modelio import rat_list
from credalkit.spaces import (
    all_canonical_tuples,
    make_space,
    point_mass,
    push,
    pushforward_matrix,
)


def random_simplex_point(rng, dim, max_den=12):
    """A rational point of the probability simplex, denominator <= max_den."""
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(dim - 1))
    parts = [cuts[0]] if cuts else []
    parts += [b - a for a, b in zip(cuts, cuts[1:])]
    parts.append(den - (cuts[-1] if cuts else 0))
    return tuple(Fraction(p, den) for p in parts)


def generated_instance(rng, n_indices):
    """A consistent collection: pushforwards of one random base polytope.

    Returns (space, collection, base polytope). |Y| = 2; the base
    polytope has 4..8 random vertices with denominators <= 12.
    """
    labels = tuple("abcdefgh"[:n_indices])
    space = make_space(labels, ("0", "1"))
    dim = space.path_count
    points = [random_simplex_point(rng, dim) for _ in range(rng.randint(4, 8))]
    base = pt.Polytope.from_points(points, dim=dim)
    return space, pushforward_collection(space, base), base


def pushforward_collection(space, base):
    """The consistent collection of the pushforwards of a polytope of path
    laws onto every canonical tuple."""
    sets = {}
    for alpha in all_canonical_tuples(space):
        idx = pushforward_matrix(space, alpha)
        size = space.n_outcomes ** len(alpha)
        sets[alpha] = CredalSet(
            space, alpha, POLYTOPE, pt.linear_image(idx, base, size)
        )
    return CredalCollection(space, sets)


def members_instance(rng, n_indices, hulls=()):
    """The pushforwards of 2..4 random path laws onto every canonical
    tuple, each tuple's set the finite set of them (a consistent
    collection), except that the tuples in `hulls` get their hull in
    polytope mode (a mixed collection). Returns (space, collection)."""
    labels = tuple("abcdefgh"[:n_indices])
    space = make_space(labels, ("0", "1"))
    points = [random_simplex_point(rng, space.path_count)
              for _ in range(rng.randint(2, 4))]
    sets = {}
    for alpha in all_canonical_tuples(space):
        idx = pushforward_matrix(space, alpha)
        size = space.n_outcomes ** len(alpha)
        images = [push(idx, p, size) for p in points]
        if alpha in hulls:
            sets[alpha] = credal_set_from_vertices(space, alpha, images)
        else:
            sets[alpha] = credal_set_from_members(space, alpha, images)
    return space, CredalCollection(space, sets)


def clash_instance(rng, n_indices):
    """An inconsistent collection: a generated one whose first 1-tuple
    set is replaced by a point outside that coordinate's marginal range,
    so the joint set is empty."""
    while True:
        space, coll, base = generated_instance(rng, n_indices)
        first = (space.indices[0],)
        values = [p[0] for p in pt.dd_convert(coll.sets[first].body).points]
        lo, hi = min(values), max(values)
        if lo > 0 or hi < 1:
            break
    q = (hi + 1) / 2 if hi < 1 else lo / 2
    sets = dict(coll.sets)
    sets[first] = credal_set_from_vertices(space, first, [(q, 1 - q)])
    return space, CredalCollection(space, sets)


def enlarged_full_tuple(coll):
    """coll with the full tuple's set V_T enlarged by a point mass it does
    not hold. P then lies strictly inside pre(V_T) unless the other sets
    all hold that point's images."""
    full = max(coll.sets, key=len)
    body = pt.dd_convert(coll.sets[full].body)
    extra = next(
        point_mass(body.dim, j) for j in range(body.dim)
        if point_mass(body.dim, j) not in body.points
    )
    sets = dict(coll.sets)
    sets[full] = credal_set_from_vertices(coll.space, full, (*body.points, extra))
    return CredalCollection(coll.space, sets)


def instance_stream(seed, n_indices, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield generated_instance(rng, n_indices)


def supplied_variants(coll):
    """`coll` under the supplied policy, every permuted variant of each
    tuple supplied as its derived set."""
    sets = {
        perm: coll.credal_set(perm)
        for alpha in coll.sets
        for perm in permutations(alpha)
    }
    return CredalCollection(coll.space, sets, policy=SUPPLIED)


def collection_to_model(coll):
    """The model document of a polytope collection, each set by vertices."""
    doc = {
        "Y": list(coll.space.outcomes),
        "T": list(coll.space.indices),
        "credal_sets": [],
    }
    if coll.policy == SUPPLIED:
        doc["options"] = {"permutations": SUPPLIED}
    for tup in coll.supplied_tuples():
        cset = coll.sets[tup]
        doc["credal_sets"].append(
            {
                "tuple": list(tup),
                "mode": "polytope-v",
                "vertices": [rat_list(v) for v in cset.body.points],
            }
        )
    return doc
