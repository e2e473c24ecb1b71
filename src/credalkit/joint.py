"""The joint set over the full path space.

Given a consistent collection of credal sets, the largest set P of path
laws whose pushforwards land in every prescribed set is the
intersection of the pullback constraint systems, one per index subset.
This module builds P (as one polytope, or as enumerated cells when the
collection is finite), verifies that its pushforwards reproduce every
prescribed set exactly, and exposes the per-tuple preimage polytopes and
their containment structure as a checkable report. Its main diagnostic
value: when P comes out empty, the Farkas multipliers of a minimal
infeasible core are mapped back to the offending tuples.

The construction stays in inequality form. P's vertices are those of
pre(V_T) when P is pre(V_T), and otherwise come from one double
description of P's rows; redundancy removal reads the kept rows off
them, and the reduced P carries them, so pushforwards, and so the
representation check, read them with no further conversion. Only an
empty P runs LPs: its emptiness decision and its diagnosis.

The path space is finite, so every law on it is countably additive;
restricting P to countably additive laws is the identity and needs no
separate construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, permutations, product
from typing import Optional

from credalkit import polytope as pt
from credalkit import spaces as sp
from credalkit.credal import (
    FINITE,
    POLYTOPE,
    ConsistencyReport,
    CredalCollection,
    CredalSet,
    _body_subset,
    _tuple_sort_key,
)
from credalkit.exactq import (
    EQ,
    LE,
    ZERO,
    DimensionError,
    IntLp,
    _check_infeasible,
    _content_free,
    lp_solve,
    solve_rows,
)
from credalkit.polytope import ResourceCapError

SIMPLEX_ORIGIN = "simplex"

DEFAULT_CELL_CAP = 10000

# an empty finite-mode joint set is diagnosed on its first dead selections
DIAGNOSED_SELECTIONS = 20

# the property suite checks the first shuffles of each tuple, identity excluded
CHECKED_PERMUTATIONS = 6


class EmptyJointError(ValueError):
    """An operation that needs a nonempty joint set got an empty one."""


class ModeError(ValueError):
    """Operation not defined for this credal-set mode."""


@dataclass(frozen=True)
class InfeasibilityDiagnosis:
    """Why the joint set is empty.

    `rows` is the minimal infeasible core (coeffs, sense, rhs, origin),
    `multipliers` the exact Farkas certificate over those rows, and
    `offending_tuples` the credal-set origins carrying nonzero weight.
    """

    rows: tuple
    multipliers: tuple
    offending_tuples: tuple


@dataclass(frozen=True)
class JointCell:
    """One selection of members in finite mode and its preimage."""

    selection: tuple  # of (index_tuple, member)
    body: pt.Polytope
    point: tuple  # one exact measure inside the cell


@dataclass(frozen=True)
class SelectionDiagnosis:
    """Infeasibility diagnosis for one finite-mode selection."""

    selection: tuple
    diagnosis: InfeasibilityDiagnosis


@dataclass(frozen=True)
class JointModel:
    space: sp.ProcessSpace
    mode: str
    body: Optional[pt.Polytope]  # polytope mode
    ineq_origins: tuple
    eq_origins: tuple
    cells: tuple  # finite mode
    diagnosis: Optional[object] = None

    def is_empty(self) -> bool:
        if self.mode == POLYTOPE:
            return self.body.is_empty()
        return not self.cells

    @property
    def dim(self) -> int:
        return self.space.path_count


def representative_tuples(coll: CredalCollection) -> tuple:
    """One supplied tuple per index subset, smallest in canonical order."""
    best = {}
    key = _tuple_sort_key(coll.space)
    for tup in coll.sets:
        s = frozenset(tup)
        if s not in best or key(tup) < key(best[s]):
            best[s] = tup
    missing = [
        t for t in sp.all_canonical_tuples(coll.space) if frozenset(t) not in best
    ]
    if missing:
        raise DimensionError(
            f"collection does not cover every index subset; missing {missing[0]!r}"
        )
    return tuple(sorted(best.values(), key=key))


def preimage_set(coll: CredalCollection, alpha) -> pt.Polytope:
    """All path laws whose pushforward onto alpha lands in V_alpha."""
    alpha = sp.validate_index_tuple(coll.space, alpha)
    cset = coll.credal_set(alpha)
    if cset.mode != POLYTOPE:
        raise ModeError(
            "preimage polytopes need polytope mode; finite collections "
            "use cell construction"
        )
    target = pt.dd_convert(cset.body).hrep
    dim = coll.space.path_count
    idx = sp.pushforward_matrix(coll.space, alpha)
    return _system_polytope(dim, *_pulled_system(dim, [(alpha, idx, target)]))


def _pullback_rows(idx, hrep):
    """Pull an H-rep on a tuple's simplex back through an index map onto it.

    Rows implied by the source simplex alone are filtered out. An
    inequality g.p <= c holds on the whole simplex iff max_j g_j <= c.
    The map is onto, so a pulled-back equality is constant only when its
    target row is; the target lies in its simplex, so such a row is the
    normalization row, which the source simplex already carries.
    """
    ineqs = []
    eqs = []
    for a, b in hrep.ineqs:
        row = sp.pull(idx, a)
        if max(row) <= b:
            continue
        ineqs.append((row, b))
    for e, f in hrep.eqs:
        row = sp.pull(idx, e)
        if len(set(row)) == 1:
            continue  # the normalization row
        eqs.append((row, f))
    return ineqs, eqs


def build_joint(
    coll: CredalCollection, cell_cap: int = DEFAULT_CELL_CAP
) -> JointModel:
    """Intersect the per-tuple preimages over the path simplex.

    One representative tuple per index subset enters the system (under
    permutation consistency the others are redundant); each constraint
    row keeps the tuple it came from, so an empty intersection is
    reported with the offending tuples named by its Farkas certificate.
    """
    reps = representative_tuples(coll)
    modes = {coll.sets[t].mode for t in reps}
    if modes == {FINITE}:
        return _build_cells(coll, reps, cell_cap)
    if FINITE in modes:
        raise ModeError(
            "joint construction needs all sets in one mode; "
            "mix of finite and polytope sets is not supported"
        )
    return _build_polytope(coll, reps)


def _assemble(coll, reps, selections=None):
    """Constraint system with provenance.

    Returns (ineq rows, eq rows) as ((coeffs, rhs), origin) lists;
    `selections` optionally maps a tuple to a single member measure whose
    point-preimage replaces the whole set.
    """
    targets = []
    for alpha in reps:
        if selections is not None and alpha in selections:
            member = selections[alpha]
            target = pt.HRep.make(
                len(member),
                eqs=[(sp.point_mass(len(member), j), member[j])
                     for j in range(len(member))],
            )
        else:
            target = pt.dd_convert(coll.sets[alpha].body).hrep
        targets.append((alpha, sp.pushforward_matrix(coll.space, alpha), target))
    return _pulled_system(coll.space.path_count, targets)


def _pulled_system(dim, targets):
    """Rows of the simplex of dimension dim, plus each (origin, index map,
    H-rep) target's rows pulled back through its map.

    Rows are canonical, as `HRep.make` gives them: primitive integers,
    an equality row's first nonzero entry positive. A pulled row is an
    integer row that is not trivially true (`_pullback_rows`), so this
    takes the gcd out of it and fixes the sign of an equality row's
    leading entry. Each row enters once, tagged with the first origin
    that produced it.
    """
    simplex = pt.Polytope.simplex(dim).hrep
    ineqs = [(row, SIMPLEX_ORIGIN) for row in simplex.ineqs]
    eqs = [(row, SIMPLEX_ORIGIN) for row in simplex.eqs]
    seen_i = {row for row, _ in ineqs}
    seen_e = {row for row, _ in eqs}
    for origin, idx, target in targets:
        add_i, add_e = _pullback_rows(idx, target)
        for a, b in add_i:
            nums = _content_free([*a, b])
            row = tuple(nums[:-1]), nums[-1]
            if row not in seen_i:
                seen_i.add(row)
                ineqs.append((row, origin))
        for e, f in add_e:
            nums = _content_free([*e, f])
            if next(v for v in nums if v) < 0:
                nums = [-v for v in nums]
            row = tuple(nums[:-1]), nums[-1]
            if row not in seen_e:
                seen_e.add(row)
                eqs.append((row, origin))
    return ineqs, eqs


def _system_polytope(dim, ineqs, eqs):
    hrep = pt.HRep(
        dim,
        tuple(row for row, _ in ineqs),
        tuple(row for row, _ in eqs),
    )
    return pt.Polytope(dim, hrep=hrep)


def _build_polytope(coll, reps) -> JointModel:
    dim = coll.space.path_count
    ineqs, eqs = _assemble(coll, reps)
    body = _system_polytope(dim, ineqs, eqs)
    # P lies in pre(V_T), whose rows it carries. When every row of P
    # holds at each vertex of pre(V_T), P is pre(V_T), the consistent
    # case, and those are its vertices. Otherwise emptiness is decided
    # in P's affine-hull coordinates, from the first of those vertices
    # that is a point of P when there is one (then with no LP), and an
    # empty P gets the certificate the diagnosis starts from. A
    # nonempty P's vertices come from one double description in the LP
    # context that decision built.
    pulled, den = _pulled_vertices(coll, reps[-1])
    order, fits = pt._hull_order(body.hrep, pulled, den)
    if all(fits):
        xs = tuple(sorted(pulled))
    else:
        inside = next(((x, den) for x, ok in zip(pulled, fits) if ok), None)
        certificate = pt._decide_empty(body, inside)
        if certificate is not None:
            diagnosis = _diagnose(dim, ineqs, eqs, certificate)
            return JointModel(
                coll.space,
                POLYTOPE,
                body,
                tuple(origin for _, origin in ineqs),
                tuple(origin for _, origin in eqs),
                (),
                diagnosis,
            )
        xs, den = pt._points_from_hrep(body.hrep, body._context, order)
    # the kept rows are read off P's vertices, which the reduced body
    # carries, so nothing downstream converts P again
    h = body.hrep
    keep = pt.remove_redundant_ineqs(dim, h.ineqs, h.eqs, xs, den)
    ineqs = [ineqs[i] for i in keep]
    body = pt.Polytope(
        dim, hrep=pt.HRep(dim, tuple(h.ineqs[i] for i in keep), h.eqs), xs=xs, den=den
    )
    return JointModel(
        coll.space,
        POLYTOPE,
        body,
        tuple(origin for _, origin in ineqs),
        tuple(origin for _, origin in eqs),
        (),
        None,
    )


def _pulled_vertices(coll, full):
    """The vertices of pre(V_full) for a tuple over every index, as
    (xs, den): its pushforward is a bijection of the cells, so they are
    V_full's vertices read through it, over V_full's denominator."""
    idx = sp.pushforward_matrix(coll.space, full)
    body = pt.dd_convert(coll.sets[full].body)
    return [sp.pull(idx, x) for x in body.xs], body.den


def _diagnose(dim, ineqs, eqs, certificate) -> InfeasibilityDiagnosis:
    """Minimal infeasible core plus its Farkas certificate.

    Simplex rows always stay in the system; credal-origin rows are
    dropped one by one, in row order, whenever the rest remains
    infeasible (deletion filter, Chinneck & Dravnieks 1991), so every
    surviving row is necessary. The filter carries a Farkas certificate
    of the rows still active, one multiplier per row of ineqs + eqs. The
    first one is `certificate`, the one with which the caller proved the
    whole system empty (`polytope._feasible_point`); it is re-checked in
    integers, and a wrong one raises RuntimeError. Each row is then
    decided in one of three exact ways:

    - weight 0 in the carried certificate: the same certificate proves
      the other rows infeasible, so the row is dropped with no LP;
    - an equality row whose full row [a | b] is a combination
      sum_j c_j e_j of the other active equality rows: the rest has the
      same (empty) solution set, so the row is dropped with no LP, and
      its weight y_r moves onto the others (y_j + y_r c_j), a
      substitution re-checked in integers;
    - otherwise `_feasible_point` decides the other active rows, and
      when they are infeasible its certificate becomes the carried one.

    `_feasible_point` solves each subsystem's equality rows afresh, since
    every step drops a row, and runs at most one LP, over the free
    directions they leave; its certificate is checked against the
    all-free rows. Each rule only proves what an LP per row would find,
    whatever certificate is carried, so the kept rows are the ones the
    LP-per-row filter keeps, and the certificate reported comes from one
    last LP over them with every variable free. That LP gets the kept
    rows as they are, each [a | b] over 1 (`exactq.IntLp`), and its
    certificate is checked in integers on them, as every carried one is.
    The c_j come from one basis of the integer relations z (sum_j z_j
    [e_j | f_j] = 0) over the equality rows, `_equality_relations`,
    computed once: no two of its vectors lead (have their first nonzero
    entry, in visit order) at the same row. When row r's turn comes,
    every earlier visited row is either dropped or kept, and a kept one
    had no relation over the rows active at its turn, which include
    every row active now, so the relations over row r and the active
    rows are those with z_k = 0 at each earlier visited row k. Those
    are spanned by the basis vectors that lead at r or after it, and
    only one leading at r has z_r != 0: rule 2 applies to row r iff a
    vector leads there, and then that vector gives the c_j.
    The rows are integer H-rep rows, and every step reads them as they are.
    """
    rows = [(coeffs, LE, rhs, origin) for (coeffs, rhs), origin in ineqs]
    rows += [(coeffs, EQ, rhs, origin) for (coeffs, rhs), origin in eqs]
    first_eq = len(ineqs)
    active = [True] * len(rows)

    def int_rows(keep):
        return tuple(([*rows[i][0], rows[i][2]], rows[i][1], 1) for i in keep)

    def check(keep, weight):
        _check_infeasible(int_rows(keep), (False,) * dim, [weight[i] for i in keep])

    def infeasible(keep):
        """Whether the rows `keep` are infeasible, with the weight of
        every row in their certificate (0 off `keep`)."""
        context, found = pt._feasible_point(pt.HRep(
            dim,
            tuple(ineqs[i][0] for i in keep if i < first_eq),
            tuple(eqs[i - first_eq][0] for i in keep if i >= first_eq),
        ))
        if context is not None:
            return False, None
        weight = [ZERO] * len(rows)
        for i, y in zip(keep, found):
            weight[i] = y
        return True, weight

    everything = range(len(rows))
    if len(certificate) != len(rows):
        raise RuntimeError("certificate length differs from the rows")
    check(everything, certificate)
    weight = list(certificate)
    relation = _equality_relations(eqs, dim)

    for r, (_, sense, _, origin) in enumerate(rows):
        if origin == SIMPLEX_ORIGIN:
            continue
        # a relation for row r takes it out (rule 2, or rule 1 at weight 0)
        z = relation[r - first_eq] if sense == EQ else None
        if weight[r] and z is not None:
            # rule 2: row r is sum_k c_k e_k, c_k = -z_k / z_r; the loop
            # also clears row r's own weight
            scale = weight[r] / z[r - first_eq]
            for k, zk in enumerate(z):
                if zk:
                    weight[first_eq + k] -= scale * zk
            active[r] = False
            check([i for i in everything if active[i]], weight)
            continue
        if weight[r]:  # else rule 1
            keep = [i for i in everything if active[i] and i != r]
            bad, found = infeasible(keep)
            if not bad:
                continue
            weight = found
        active[r] = False
    keep = [i for i in everything if active[i]]
    core = int_rows(keep)
    outcome = lp_solve(IntLp("min", (0,) * dim, core, (False,) * dim))
    if outcome.status != "infeasible":
        raise RuntimeError("infeasible core turned feasible")
    _check_infeasible(core, (False,) * dim, outcome.certificate)
    offending = []
    for i, mult in zip(keep, outcome.certificate):
        origin = rows[i][3]
        if mult != 0 and origin != SIMPLEX_ORIGIN and origin not in offending:
            offending.append(origin)
    return InfeasibilityDiagnosis(
        tuple(rows[i] for i in keep),
        tuple(outcome.certificate),
        tuple(offending),
    )


def _equality_relations(eqs, dim):
    """For each equality row ((e_j, f_j), origin) of `eqs`, the integer
    relation z (sum_k z_k [e_k | f_k] = 0) that leads at it, or None.

    The rows are ranked in the deletion filter's visit order: the
    credal-origin rows ascending, then the SIMPLEX_ORIGIN rows, which it
    never visits. `solve_rows` solves the transposed system, one row per
    column of [e | f] with a 0 rhs, its unknowns the relation's entries
    in the reverse of that order. Its nullspace vector of a free entry F
    is nonzero, besides at F, only at pivots of echelon rows nonzero at
    F, each of which lies left of F, so the relation leads at F in visit
    order: z_F != 0, and z_k = 0 at every row k visited before F. The
    relations are a basis of primitive vectors, and no two lead at the
    same row.
    """
    if not eqs:
        return []
    order = [j for j, (_, origin) in enumerate(eqs) if origin != SIMPLEX_ORIGIN]
    order += [j for j, (_, origin) in enumerate(eqs) if origin == SIMPLEX_ORIGIN]
    order.reverse()
    columns = [[eqs[j][0][0][t] for j in order] + [0] for t in range(dim)]
    columns.append([eqs[j][0][1] for j in order] + [0])
    _, nullspace, pivots = solve_rows(columns, len(order))
    taken = set(pivots)
    relation = [None] * len(eqs)
    for free, z in zip((k for k in range(len(order)) if k not in taken), nullspace):
        mapped = [0] * len(eqs)
        for j, v in zip(order, z):
            mapped[j] = v
        relation[order[free]] = mapped
    return relation


def _build_cells(coll, reps, cell_cap) -> JointModel:
    sizes = [len(coll.sets[t].members()) for t in reps]
    count = 1
    for s in sizes:
        count *= s
    if count > cell_cap:
        raise ResourceCapError(
            f"selection enumeration needs {count} cells, over the cap of {cell_cap}"
        )
    dim = coll.space.path_count
    cells = []
    dead = []  # the diagnosed dead selections, with their systems
    for choice in product(*(coll.sets[t].members() for t in reps)):
        selections = dict(zip(reps, choice))
        ineqs, eqs = _assemble(coll, reps, selections=selections)
        body = _system_polytope(dim, ineqs, eqs)
        certificate = pt._decide_empty(body)
        if certificate is None:
            cells.append(
                JointCell(tuple(selections.items()), body, body._context.origin)
            )
        elif len(dead) < DIAGNOSED_SELECTIONS:
            dead.append((tuple(selections.items()), ineqs, eqs, certificate))
    diagnosis = None
    if not cells:
        diagnosis = tuple(
            SelectionDiagnosis(
                selection, _diagnose(dim, ineqs, eqs, certificate)
            )
            for selection, ineqs, eqs, certificate in dead
        )
    return JointModel(
        coll.space, FINITE, None, (), (), tuple(cells), diagnosis
    )


def pushforward_joint(joint: JointModel, alpha) -> CredalSet:
    """The joint set's image on a tuple of coordinates.

    Polytope mode enumerates the vertices of the joint set (exponential
    in the worst case; fine at desk scale). Finite mode maps each cell's
    point.
    """
    alpha = sp.validate_index_tuple(joint.space, alpha)
    if joint.is_empty():
        raise EmptyJointError("empty joint set has no pushforwards")
    idx = sp.pushforward_matrix(joint.space, alpha)
    size = joint.space.n_outcomes ** len(alpha)
    if joint.mode == POLYTOPE:
        image = pt.linear_image(idx, joint.body, size)
        return CredalSet(joint.space, alpha, POLYTOPE, image)
    points = sorted(set(sp.push(idx, cell.point, size) for cell in joint.cells))
    return CredalSet(joint.space, alpha, FINITE, tuple(points))


# ---------------------------------------------------------------------------
# representation verification

@dataclass(frozen=True)
class RepresentationRecord:
    alpha: tuple
    direction: str  # "prescribed within pushforward" | "pushforward within prescribed"
    status: str
    witness: Optional[tuple] = None
    certificate: Optional[object] = None  # SeparationCertificate | FiniteSeparation
    lifted_functional: Optional[tuple] = None
    note: str = ""


@dataclass(frozen=True)
class RepresentationReport:
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def failures(self) -> tuple:
        return tuple(r for r in self.records if r.status != "pass")


def verify_representation(
    coll: CredalCollection, joint: JointModel
) -> RepresentationReport:
    """Check, tuple by tuple, that the joint set's pushforward equals the
    prescribed credal set; exact, certificate-producing in both
    directions. `joint` is `build_joint(coll)`, or a joint set read back
    from its build file.

    Each supplied tuple alpha gets its image, `pushforward_joint(joint,
    alpha)`, read off the vertices of the joint set P, and both
    inclusions are decided by `credal._body_subset`, the routine of the
    consistency checks. In polytope mode it substitutes the vertices of
    one side into the integer rows of the other: V_alpha's canonical
    form, so a failing witness is the first vertex of V_alpha outside
    the image, and the image's vertices. A failing record carries its
    witness and certificate, and a separating functional g also pulled
    back to the path cells (`lifted_functional`): in the first direction
    it bounds every point of P by g.witness - gap, in the second some
    vertex of P reaches g.witness. No LP runs: P's vertices are those
    the build carries (pre(V_T)'s on a consistent family, else those of
    one double description of P's rows); a joint set read back from a
    build file, which holds rows only, gets them from one double
    description of those rows.
    """
    representative_tuples(coll)  # enforce coverage
    if joint.is_empty():
        return RepresentationReport(
            (
                RepresentationRecord(
                    (),
                    "joint set nonempty",
                    "fail",
                    note="joint set is empty; see the infeasibility diagnosis",
                ),
            )
        )
    records = []
    # every supplied tuple is checked, permuted variants included
    for alpha in coll.supplied_tuples():
        cset = coll.sets[alpha]
        if cset.mode == POLYTOPE:
            cset = replace(cset, body=pt.dd_convert(cset.body))
        image = pushforward_joint(joint, alpha)
        idx = sp.pushforward_matrix(joint.space, alpha)
        for direction, a, b in (
            ("prescribed within pushforward", cset, image),
            ("pushforward within prescribed", image, cset),
        ):
            holds, witness, cert = _body_subset(a, b)
            lifted = None
            if isinstance(cert, pt.SeparationCertificate):
                lifted = sp.pull(idx, cert.functional)
            records.append(RepresentationRecord(
                alpha, direction, "pass" if holds else "fail", witness, cert, lifted,
            ))
    return RepresentationReport(tuple(records))


# ---------------------------------------------------------------------------
# structural property suite (preimage containments)

@dataclass(frozen=True)
class PropertyRecord:
    name: str
    alpha: tuple
    beta: tuple
    status: str
    note: str = ""


@dataclass(frozen=True)
class PropertyReport:
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)


def _fiber_sup(fibers, a, xs, den):
    """max a.q over Q = {q >= 0 : r(q) in hull(points)}, fibers[c] listing
    the cells the index map r sends to c, for the integer row a and the
    points xs / den. At a fixed v = r(q) the best q puts each v_c on its
    fiber's best cell, for sum_c v_c max_{j in fibers[c]} a_j; that is
    linear in v, so its max is at a point, summed in integers."""
    best = [max(a[j] for j in fiber) for fiber in fibers]
    return Fraction(max(pt._row_at(best, x) for x in xs), den)


def property_suite(
    coll: CredalCollection,
    joint: JointModel,
    representation: RepresentationReport,
    consistency: ConsistencyReport,
) -> PropertyReport:
    """Structural facts that hold for consistent polytope collections.

    - permuting a tuple (its first CHECKED_PERMUTATIONS shuffles) leaves
      its preimage pre(alpha) = {p : pi_alpha(p) in V_alpha} unchanged;
    - a tuple covering another has a smaller (contained) preimage;
    - every prescribed set is reachable: the inclusion half of
      `representation`, the report of `verify_representation(coll,
      joint)`;
    - the preimage of the full tuple equals `joint`, which must be
      `build_joint(coll)`.

    The first two are read off `consistency`, the records of both checks
    of `credal` on `coll`. pi_alpha maps the path simplex onto alpha's
    simplex, which holds V_alpha, so for A and B in that simplex
    pi_alpha^-1(A) lies in pi_alpha^-1(B) iff A lies in B. Hence:
    - permutation to s, by the shuffle sigma: pi_s = sigma o pi_alpha, so
      the record holds iff sigma(V_alpha) = V_s. A V_s not supplied is
      derived as sigma(V_alpha), so it holds; a supplied one holds iff
      both permutation records (alpha, s) pass (alpha, the smallest
      tuple over its indices, comes first in each pair);
    - covering of beta, by the restriction r: pi_beta = r o pi_alpha, so
      pre(beta) = pi_alpha^-1(Q) for Q = {q in alpha's simplex : r(q) in
      V_beta}. The record holds iff V_alpha lies in Q, that is iff
      r(V_alpha) lies in V_beta: the marginal record (alpha, beta,
      "restriction within supplied set") passes. A record that holds is
      "strict" iff Q does not lie in V_alpha: some row a.x <= b of
      V_alpha (an equality row read both ways) has sup_Q a > b
      (`_fiber_sup`), the only thing computed here;
    - full tuple: the joint set is the intersection of pre(beta) over the
      representative tuples, so it equals pre(rep_gamma) iff every
      covering record with alpha = rep_gamma holds.
    A record the suite reads but `consistency` lacks raises DimensionError.
    """
    if joint.mode != POLYTOPE:
        raise ModeError("the property suite runs on polytope collections")
    reps = representative_tuples(coll)
    checked = {(r.alpha, r.beta, r.direction): r.status for r in consistency.records}

    def passes(alpha, beta, direction):
        try:
            return checked[alpha, beta, direction] == "pass"
        except KeyError:
            raise DimensionError(
                f"consistency report has no record {(alpha, beta, direction)!r}"
            ) from None

    records = []
    for alpha in reps:
        if len(alpha) < 2:
            continue
        shuffles = islice(permutations(range(len(alpha))), 1, CHECKED_PERMUTATIONS + 1)
        for perm in shuffles:
            shuffled = sp.permute_tuple(alpha, perm)
            # a derived set is the image by construction; a supplied one
            # reads both records (a list, so that a missing one raises)
            same = shuffled not in coll.sets or all([
                passes(alpha, shuffled, direction)
                for direction in ("supplied set within shuffle image",
                                  "shuffle image within supplied set")
            ])
            records.append(
                PropertyRecord(
                    "permutation-invariant preimage",
                    alpha,
                    shuffled,
                    "pass" if same else "fail",
                )
            )

    rep_gamma = reps[-1]  # the longest
    shortcut = True
    for alpha in reps:
        rows = pt.dd_convert(coll.sets[alpha].body).hrep.as_ineqs()
        for beta in reps:
            if alpha == beta or not sp.tuple_covers(alpha, beta):
                continue
            holds = passes(alpha, beta, "restriction within supplied set")
            idx = sp.restriction_matrix(coll.space, alpha, beta)
            target = pt.dd_convert(coll.sets[beta].body)
            fibers = [[] for _ in range(target.dim)]
            for j, c in enumerate(idx):
                fibers[c].append(j)
            strict = holds and any(_fiber_sup(fibers, a, target.xs, target.den) > b
                                   for a, b in rows)
            if alpha == rep_gamma:
                shortcut = shortcut and holds
            records.append(PropertyRecord(
                "covering tuple has smaller preimage", alpha, beta,
                "pass" if holds else "fail", note="strict" if strict else "",
            ))

    for r in representation.records:
        if r.direction == "prescribed within pushforward":
            records.append(
                PropertyRecord(
                    "prescribed set reachable", r.alpha, (), r.status
                )
            )

    records.append(
        PropertyRecord(
            "full-tuple preimage equals joint set",
            rep_gamma,
            (),
            "pass" if shortcut else "fail",
        )
    )
    return PropertyReport(tuple(records))
