"""Credal sets over product simplices and their consistency checks.

A credal set attaches a nonempty set of joint distributions to a tuple
of process coordinates, either as a rational polytope inside the
product simplex or as an explicit finite list of measure vectors. A
collection maps index tuples to credal sets; the two executable checks
ask whether the family is closed under coordinate permutation and under
marginalization, reporting every inclusion separately with an offending
measure and an exact separation certificate on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Optional

from credalkit import polytope as pt
from credalkit import spaces as sp
from credalkit.exactq import (  # noqa: F401 (perfbench/layers.py traces lp_solve here)
    ONE,
    ZERO,
    DimensionError,
    dot,
    lp_solve,
    qvec,
)

POLYTOPE = "polytope"
FINITE = "finite"

SYNTHESIZED = "synthesized"
SUPPLIED = "supplied"


@dataclass(frozen=True)
class CredalSet:
    """A nonempty set of joint laws for the coordinates of one tuple."""

    space: sp.ProcessSpace
    index_tuple: tuple
    mode: str
    body: object  # Polytope in polytope mode, tuple of measure tuples in finite mode

    @property
    def dim(self) -> int:
        return self.space.n_outcomes ** len(self.index_tuple)

    def members(self) -> tuple:
        if self.mode != FINITE:
            raise DimensionError("members() only applies to finite mode")
        return self.body

    def hull(self) -> pt.Polytope:
        if self.mode == POLYTOPE:
            return self.body
        return pt.Polytope.from_points(self.body, dim=self.dim)


def credal_set_from_vertices(space, index_tuple, vertices) -> CredalSet:
    """Polytope-mode set given by generators, built from the integer
    numerators `spaces.measure_numerators` checks each measure on."""
    index_tuple = sp.validate_index_tuple(space, index_tuple)
    dim = space.n_outcomes ** len(index_tuple)
    measures = [sp.measure_numerators(v, dim) for v in vertices]
    if not measures:
        raise DimensionError("credal set must be nonempty")
    body = pt.Polytope.from_numerators(dim, measures)
    return CredalSet(space, index_tuple, POLYTOPE, body)


def credal_set_from_hrep(space, index_tuple, ineqs=(), eqs=()) -> CredalSet:
    """Polytope-mode set; probability-simplex rows are always included."""
    index_tuple = sp.validate_index_tuple(space, index_tuple)
    dim = space.n_outcomes ** len(index_tuple)
    simplex = pt.Polytope.simplex(dim).hrep
    body = pt.Polytope.from_hrep(
        dim,
        list(simplex.ineqs) + list(ineqs),
        list(simplex.eqs) + list(eqs),
    )
    if body.is_empty():
        raise DimensionError(
            f"credal set for {index_tuple!r} is empty; sets must be nonempty"
        )
    return CredalSet(space, index_tuple, POLYTOPE, body)


def credal_set_from_members(space, index_tuple, members) -> CredalSet:
    index_tuple = sp.validate_index_tuple(space, index_tuple)
    dim = space.n_outcomes ** len(index_tuple)
    pts = pt.sorted_distinct(sp.validate_measure(v, dim) for v in members)
    if not pts:
        raise DimensionError("credal set must be nonempty")
    return CredalSet(space, index_tuple, FINITE, tuple(pts))


@dataclass(frozen=True)
class CredalCollection:
    """Map from index tuples to credal sets.

    Under the synthesized permutation policy (the default input mode)
    exactly the canonical ascending-order tuple of each index subset is
    supplied and permuted variants are derived by pushforward, which
    makes the permutation check pass by construction.
    """

    space: sp.ProcessSpace
    sets: dict
    policy: str = SYNTHESIZED

    def __post_init__(self):
        if self.policy not in (SYNTHESIZED, SUPPLIED):
            raise DimensionError(f"unknown permutation policy {self.policy!r}")
        for key, cset in self.sets.items():
            if key != cset.index_tuple:
                raise DimensionError(f"key {key!r} differs from set tuple")
            if cset.space != self.space:
                raise DimensionError(f"set {key!r} built over a different space")
            if self.policy == SYNTHESIZED and key != sp.canonical_tuple(
                self.space, key
            ):
                raise DimensionError(
                    f"synthesized policy requires canonical tuples, got {key!r}"
                )

    def supplied_tuples(self) -> tuple:
        return tuple(sorted(self.sets, key=_tuple_sort_key(self.space)))

    def credal_set(self, index_tuple) -> CredalSet:
        """The set for a tuple, derived by pushforward when synthesized;
        DimensionError when the model supplies no set to answer it."""
        index_tuple = sp.validate_index_tuple(self.space, index_tuple)
        if index_tuple in self.sets:
            return self.sets[index_tuple]
        canon = sp.canonical_tuple(self.space, index_tuple)
        if self.policy != SYNTHESIZED or canon not in self.sets:
            raise DimensionError(
                f"no credal set for {index_tuple!r} under the {self.policy!r} "
                "permutation policy"
            )
        base = self.sets[canon]
        perm = tuple(canon.index(t) for t in index_tuple)
        idx = sp.permutation_matrix(self.space, len(index_tuple), perm)
        return _pushforward_set(base, idx, index_tuple)


def _tuple_sort_key(space):
    def key(tup):
        return (len(tup), tuple(space.index_pos(t) for t in tup))

    return key


def _pushforward_set(cset: CredalSet, idx, new_tuple) -> CredalSet:
    """The image of a credal set under a coordinate map onto new_tuple."""
    size = cset.space.n_outcomes ** len(new_tuple)
    if cset.mode == POLYTOPE:
        body = pt.linear_image(idx, cset.body, size)
    else:
        body = tuple(sorted(set(sp.push(idx, v, size) for v in cset.body)))
    return CredalSet(cset.space, tuple(new_tuple), cset.mode, body)


# ---------------------------------------------------------------------------
# witnesses

@dataclass(frozen=True)
class FiniteSeparation:
    """Separation of a point from a finite set that surrounds it.

    When the offending point lies inside the convex hull of the members
    no single functional works; instead one coordinate functional per
    member witnesses |f_j.point - f_j.member_j| >= gap_j > 0. `members`
    records the pairing order.
    """

    point: tuple
    members: tuple
    parts: tuple  # of (functional, gap), aligned with members

    @property
    def gap(self) -> Fraction:
        return min(g for _, g in self.parts)


def verify_finite_separation(cert: FiniteSeparation) -> bool:
    if len(cert.parts) != len(cert.members):
        return False
    for member, (func, gap) in zip(cert.members, cert.parts):
        if gap <= 0:
            return False
        if abs(dot(func, cert.point) - dot(func, member)) < gap:
            return False
    return True


def _separation_from(point, target: CredalSet):
    """Certificate separating `point` from a credal set it is outside of."""
    if target.mode == POLYTOPE:
        return pt.separate(target.body, point)
    members = target.members()
    hull = pt.Polytope.from_points(members, dim=len(point))
    if not pt.contains_point(hull, point):
        return pt.separate(hull, point)
    parts = []
    for v in members:
        coord = next(i for i in range(len(point)) if v[i] != point[i])
        func = tuple(ONE if j == coord else ZERO for j in range(len(point)))
        parts.append((func, abs(point[coord] - v[coord])))
    return FiniteSeparation(tuple(point), tuple(members), tuple(parts))


def verify_witness_certificate(cert, target: CredalSet) -> bool:
    """Exact re-check of either certificate kind against a credal set."""
    if isinstance(cert, FiniteSeparation):
        return (
            target.mode == FINITE
            and cert.members == target.members()
            and verify_finite_separation(cert)
        )
    comparison = target.body if target.mode == POLYTOPE else target.hull()
    return pt.verify_separation(cert, comparison)


# ---------------------------------------------------------------------------
# set-level inclusion with witnesses

def _body_subset(a: CredalSet, b: CredalSet):
    """Is the set a contained in the set b? -> (holds, witness, certificate).

    Finite-mode sets are compared as point sets, polytopes as convex
    bodies; mixed comparisons follow the same semantics.
    """
    if a.mode == FINITE and b.mode == FINITE:
        bset = set(b.body)
        for v in a.body:
            if v not in bset:
                return False, v, _separation_from(v, b)
        return True, None, None
    if a.mode == FINITE and b.mode == POLYTOPE:
        for v in a.body:
            if not pt.contains_point(b.body, v):
                return False, v, _separation_from(v, b)
        return True, None, None
    if a.mode == POLYTOPE and b.mode == POLYTOPE:
        holds, cert = pt.is_subset(a.body, b.body)
        if holds:
            return True, None, None
        return False, cert.point, cert
    # polytope within a finite point set: only possible for a singleton
    extreme = pt.dd_convert(a.body).points
    members = set(b.body)
    if len(extreme) == 1:
        v = extreme[0]
        if v in members:
            return True, None, None
        return False, v, _separation_from(v, b)
    witness = _segment_point_avoiding(extreme[0], extreme[1], members)
    return False, witness, _separation_from(witness, b)


def _segment_point_avoiding(u, v, avoid):
    """A rational point strictly between u and v outside a finite set."""
    k = 1
    while True:
        w = tuple(
            ui + Fraction(k, len(avoid) + 2) * (vi - ui) for ui, vi in zip(u, v)
        )
        if w not in avoid:
            return w
        k += 1


# ---------------------------------------------------------------------------
# consistency reports

@dataclass(frozen=True)
class CheckRecord:
    condition: str  # "permutation" | "marginal"
    alpha: tuple
    beta: tuple
    direction: str
    status: str  # "pass" | "fail" | "unchecked"
    witness: Optional[tuple] = None
    certificate: Optional[object] = None
    note: str = ""


@dataclass(frozen=True)
class ConsistencyReport:
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def failures(self) -> tuple:
        return tuple(r for r in self.records if r.status == "fail")


def check_permutation_consistency(coll: CredalCollection) -> ConsistencyReport:
    """Closure of the family under coordinate permutations.

    For every supplied pair of tuples over the same label set, both
    inclusions between the permuted pushforward and the supplied set are
    checked and reported separately. Under the synthesized policy the
    permuted variants are derived by pushforward, so the check holds by
    construction.
    """
    if coll.policy == SYNTHESIZED:
        return ConsistencyReport(
            (
                CheckRecord(
                    "permutation",
                    (),
                    (),
                    "all permuted variants",
                    "pass",
                    note="permuted tuples are derived by pushforward",
                ),
            )
        )
    records = []
    supplied = coll.supplied_tuples()
    by_set = {}
    for tup in supplied:
        by_set.setdefault(frozenset(tup), []).append(tup)
    for _, group in sorted(
        by_set.items(), key=lambda kv: _tuple_sort_key(coll.space)(kv[1][0])
    ):
        base = group[0]
        n = len(base)
        if factorial(n) > 24 and len(group) < factorial(n):
            records.append(
                CheckRecord(
                    "permutation",
                    base,
                    (),
                    "permuted variants",
                    "unchecked",
                    note=f"{factorial(n) - len(group)} permutations not supplied",
                )
            )
        else:
            present = set(group)
            for variant in permutations(base):
                if variant == base:
                    continue
                if variant not in present:
                    records.append(
                        CheckRecord(
                            "permutation",
                            base,
                            variant,
                            "permuted variant",
                            "unchecked",
                            note="permuted tuple not supplied",
                        )
                    )
        for i, alpha in enumerate(group):
            for beta in group[i + 1:]:
                records.extend(_permutation_pair(coll, alpha, beta))
    return ConsistencyReport(tuple(records))


def _permutation_pair(coll, alpha, beta):
    """Both inclusions between the shuffle image of V_alpha and V_beta."""
    perm = tuple(alpha.index(t) for t in beta)
    idx = sp.permutation_matrix(coll.space, len(alpha), perm)
    image = _pushforward_set(coll.sets[alpha], idx, beta)
    target = coll.sets[beta]
    out = []
    holds, witness, cert = _body_subset(target, image)
    out.append(
        CheckRecord(
            "permutation",
            alpha,
            beta,
            "supplied set within shuffle image",
            "pass" if holds else "fail",
            witness,
            cert,
        )
    )
    holds, witness, cert = _body_subset(image, target)
    out.append(
        CheckRecord(
            "permutation",
            alpha,
            beta,
            "shuffle image within supplied set",
            "pass" if holds else "fail",
            witness,
            cert,
        )
    )
    return out


def check_marginal_consistency(coll: CredalCollection) -> ConsistencyReport:
    """Marginal compatibility: for nested tuples, restricting the larger
    set onto the smaller tuple's coordinates must reproduce the smaller
    set exactly; both inclusions are reported separately.

    Restrictions compose (r_alpha,beta = r_mid,beta . r_alpha,mid), so the
    pairs are taken by increasing |alpha| - |beta|, and a direction of
    (alpha, beta) passes, with no witness, when some supplied tuple mid
    with |mid| = |alpha| - 1 between them passes it on (alpha, mid) and
    on (mid, beta):
    - restriction within supplied set:
      r(V_alpha) = r_mid,beta(r_alpha,mid(V_alpha)) within r_mid,beta(V_mid)
      within V_beta;
    - supplied set within restriction:
      V_beta within r_mid,beta(V_mid) within r_alpha,beta(V_alpha).
    `_body_subset` decides set inclusion in every mode, so this holds for
    finite, polytope and mixed collections. Every other direction is
    decided directly: the pairs that drop one coordinate, the pairs with
    no such mid supplied, and so every failing record, which keeps its
    witness and certificate. Records come in the order of the pairs
    (beta, then alpha, in supplied order), the report that deciding
    every pair directly gives.
    """
    supplied = coll.supplied_tuples()
    by_set = {}
    for tup in supplied:
        by_set.setdefault(frozenset(tup), []).append(tup)
    pairs = [
        (alpha, beta)
        for beta in supplied
        for alpha in supplied
        if set(beta) < set(alpha)  # equal label sets are permutation territory
    ]
    directions = ("restriction within supplied set", "supplied set within restriction")
    decided = {}
    for alpha, beta in sorted(pairs, key=lambda ab: len(ab[0]) - len(ab[1])):
        direct = []
        for direction in directions:
            if _composes(decided, by_set, alpha, beta, direction):
                decided[alpha, beta, direction] = CheckRecord(
                    "marginal", alpha, beta, direction, "pass"
                )
            else:
                direct.append(direction)
        if direct:
            for rec in _marginal_pair(coll, alpha, beta, direct):
                decided[alpha, beta, rec.direction] = rec
    return ConsistencyReport(
        tuple(
            decided[alpha, beta, direction]
            for alpha, beta in pairs
            for direction in directions
        )
    )


def _composes(decided, by_set, alpha, beta, direction) -> bool:
    """Does some supplied mid, alpha less one label not in beta, pass
    `direction` on (alpha, mid) and on (mid, beta)? Never when |alpha| -
    |beta| = 1: then mid's labels are beta's, and no such pair is
    checked here."""
    labels = frozenset(alpha)

    def passes(key):
        return key in decided and decided[key].status == "pass"

    for label in labels.difference(beta):
        for mid in by_set.get(labels - {label}, ()):
            if passes((alpha, mid, direction)) and passes((mid, beta, direction)):
                return True
    return False


def _marginal_pair(coll, alpha, beta, directions):
    """The records of (alpha, beta) in `directions`, each decided by one
    inclusion between the restriction of V_alpha and V_beta."""
    idx = sp.restriction_matrix(coll.space, alpha, beta)
    image = _pushforward_set(coll.sets[alpha], idx, beta)
    target = coll.sets[beta]
    out = []
    for direction in directions:
        if direction == "restriction within supplied set":
            holds, witness, cert = _body_subset(image, target)
        else:
            holds, witness, cert = _body_subset(target, image)
        out.append(
            CheckRecord(
                "marginal",
                alpha,
                beta,
                direction,
                "pass" if holds else "fail",
                witness,
                cert,
            )
        )
    return out


# ---------------------------------------------------------------------------
# expectations

def lower_expectation(cset: CredalSet, f) -> Fraction:
    """Exact min of f.p over the credal set."""
    return -_upper(cset, tuple(-v for v in qvec(f)))


def upper_expectation(cset: CredalSet, f) -> Fraction:
    """Exact max of f.p over the credal set."""
    return _upper(cset, qvec(f))


def _upper(cset: CredalSet, f):
    if len(f) != cset.dim:
        raise DimensionError(
            f"functional has {len(f)} entries, set lives in dimension {cset.dim}"
        )
    if cset.mode == FINITE:
        return max(dot(f, v) for v in cset.body)
    return pt._sup(cset.body, f)


# ---------------------------------------------------------------------------
# extension of a partial description to a full measure

def extend_measure(size: int, atoms, masses) -> tuple:
    """Extend masses on a partition of {0..size-1} to a point measure.

    Each atom's mass is split uniformly over its points, the canonical
    choice among all extensions; re-aggregating over the partition
    returns the input exactly.
    """
    atoms = [tuple(atom) for atom in atoms]
    masses = qvec(masses)
    if len(atoms) != len(masses):
        raise DimensionError("one mass per atom required")
    seen = set()
    for atom in atoms:
        if not atom:
            raise DimensionError("empty atom")
        for i in atom:
            if isinstance(i, bool) or not isinstance(i, int):
                raise DimensionError(f"atom point {i!r} is not an integer")
            if i < 0 or i >= size:
                raise DimensionError(f"atom point {i} outside 0..{size - 1}")
            if i in seen:
                raise DimensionError(f"atoms overlap at {i}")
            seen.add(i)
    if len(seen) != size:
        raise DimensionError("atoms do not cover the space")
    if any(m < 0 for m in masses):
        raise DimensionError("negative mass")
    if sum(masses) != 1:
        raise DimensionError("masses do not sum to 1")
    out = [ZERO] * size
    for atom, mass in zip(atoms, masses):
        share = mass / len(atom)
        for i in atom:
            out[i] = share
    return tuple(out)


def closedness_witness(cset: CredalSet, p0):
    """Certificate that p0 lies outside the (closed) credal set.

    Polytope mode: a single separating functional. Finite mode: a single
    functional when p0 is outside the hull of the members, otherwise one
    coordinate functional per member.
    """
    p0 = qvec(p0)
    if cset.mode == POLYTOPE:
        return pt.separate(cset.body, p0)
    if p0 in set(cset.body):
        raise pt.NotSeparableError("point belongs to the set")
    return _separation_from(p0, cset)
