"""Independent oracles for the test suite.

`rational_lp` is `credalkit.exactq.lp_solve` for LPs written with
rational rows: each row goes to the kernel once over the lcm of its
denominators, and the answer is checked on those integer rows, so the
references below can hand it rows in Fractions.

`brute_force_vertices` and `brute_force_max` call no double description
machinery: vertex enumeration is done combinatorially (tight-row subsets
+ Gaussian solves), so they can cross-check both the LP solver and the
geometry kernel without sharing their code paths.

`fraction_simplex_solve` is the reference for the shipped simplex
kernel: the same two-phase Bland simplex from the same starting basis
(unit columns basic, artificials on the other rows) with plain
Fraction entries, one tableau entry at a time, so it shares no
arithmetic with the kernel's integer rows.

`redundant_rows_reference` is the reference for
`credalkit.polytope.remove_redundant_ineqs`, which reads its rows off
the set's vertices: the drop-one-row loop, each probe an LP over the
original coordinates with every row and no LP context.

`is_subset_reference` is the reference for
`credalkit.polytope.is_subset`: the same routes, but the facet route
maximizes every row of q over p, one LP per row, with none skipped.

`equals` is two-sided `credalkit.polytope.is_subset`, the set equality
the tests compare polytopes with.

`property_suite_reference` is the reference for
`credalkit.joint.property_suite`: every record decided over the path
simplex, on the preimage polytopes of the tuples (shuffled ones
included), with `equals` for the permutation and full-tuple records.

`representation_reference` is the reference for
`credalkit.joint.verify_representation` in polytope mode: each record's
status decided by LPs over the joint set's H-rep, with no vertex of it
enumerated: a vertex v of V_alpha is reached iff the joint set's rows
plus the pushforward rows = v are feasible (`fraction_feasible`), and
the pushforward lies in V_alpha iff no row of V_alpha, pulled back, has
its max over the joint set above its bound (`rational_lp`).

`marginal_consistency_reference` is the reference for
`credalkit.credal.check_marginal_consistency`: every covering pair of
supplied tuples decided directly, both inclusions between the
restriction of V_alpha and V_beta, with no record read off a
composition of restrictions.

`covering_q` is the reference for `credalkit.joint._fiber_sup`: the
polytope Q = {q in alpha's simplex : r(q) in V_beta} of a covering pair,
built from V_beta's pulled-back rows as the build pulls rows back, so
that an LP over it gives the support function `_fiber_sup` reads off.

`deletion_filter_reference` is the reference for
`credalkit.joint._diagnose`: the deletion filter with one LP per
credal-origin row, each over every other row still active, and no
carried certificate. `fraction_feasible` decides a system of free
variables with `fraction_simplex_solve`, so it shares no LP code with
the program.

`equality_relations_reference` and `drop_relation_reference` are the
reference for `credalkit.joint._FilterHull.expansion`, the relation
lookup of `_diagnose`'s rule 2: a basis of the relations in row order,
from the Fraction nullspace of `solve_linear_system`, restricted in
place to z_j = 0 at each row j the filter visits.

`feasible_point_reference` is the reference for
`credalkit.polytope._feasible_point`: one phase-1 LP over every row in
the original coordinates, the unit rows -x_j <= 0 taken as bounds, with
its certificate mapped back to one multiplier per row.

`context_maximize_reference` and `context_decide_reference` are the
references for `credalkit.polytope.LpContext.maximize` and `.decide`:
the same LPs over the context's origin and basis, with the reduced rows
built in Fractions and handed to `rational_lp` (which checks the answer
in z), and the answer mapped back in Fractions.
`eq_part_reference` is the reference for `LpContext._eq_part`, the
equality rows' part of a certificate, summed in Fractions with
`combination_reference`, the reference for `credalkit.exactq.combination`.
It sums the rows of `echelon_combinations_reference`: each kept echelon
row with the integer combination of the input rows behind it, read off
a second elimination, of [chosen rows | I].

`extreme_subset_reference` and `hrep_from_points_reference` are the
references for `credalkit.polytope._hrep_from_points`: the vertices
found by one hull LP per point (`hull_membership` over the points kept
so far), and the rows built in Fractions from those vertices and
canonicalized by `HRep.make`. `hrep_from_points_fraction_route` is
the reference for the integer interface of `_hrep_from_points`: the
same hull routine, but taking Fraction points, putting them over one
common denominator itself and giving the vertices back as Fractions.
`integer_points` and `fraction_points` convert between rational points
and the library's point form, int tuples over one denominator.

`solve_linear_system` and `fraction_inverse` are the references for
`credalkit.exactq.echelon` and its callers: Gauss-Jordan elimination in
Fractions, with the pivot chosen column by column. `fraction_nullspace`
reads the pivot columns and Fraction nullspace of a homogeneous system
off it, and `primitive` scales a rational vector to its primitive
integer form, for the references of the library's integer elimination.
Matrices here are plain sequences of rows. `apply` and `matrix_rank` are the dense
matrix-vector product and the rank of a matrix, and `index_to_outcomes` /
`all_outcome_tuples` spell out the row-major order of outcome tuples
cell by cell.

The `dense_*` builders are the reference for the coordinate maps of
`credalkit.spaces`: each map written out as a 0/1 column-stochastic
matrix, built cell by cell from outcome labels, so pushing a measure is
a matrix-vector product and pulling a row is a row-matrix product.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

import credalkit.joint as jt
import credalkit.polytope as pt
from credalkit.credal import (
    CheckRecord,
    ConsistencyReport,
    _body_subset,
    _pushforward_set,
)
from credalkit.exactq import (
    EQ,
    GE,
    LE,
    DimensionError,
    IntLp,
    LpOutcome,
    _check_infeasible,
    _content_free,
    _integer_row,
    dot,
    echelon,
    lp_solve,
    qvec,
)
from credalkit.joint import SIMPLEX_ORIGIN
from credalkit.spaces import (
    alignment_permutation,
    permutation_matrix,
    permute_tuple,
    product_index,
    pull,
    pushforward_matrix,
    restriction_matrix,
    tuple_covers,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_lp(direction, objective, rows, nonneg=None):
    """The LpOutcome of min/max objective.x subject to the rational rows
    (coeffs, sense, rhs), sense "<=", "=" or ">="; `nonneg[j]` tells
    whether x_j >= 0 (default: every variable).

    Each row [coeffs | rhs] reaches `lp_solve` as integers over the lcm
    of its denominators (an int row as it is), the objective likewise.
    An optimal point is substituted into every row, and its value read
    off it; a Farkas certificate is checked by `_check_infeasible` on the
    integer rows. A wrong answer raises RuntimeError."""
    objective = qvec(objective)
    nonneg = (True,) * len(objective) if nonneg is None else tuple(map(bool, nonneg))
    int_rows = []
    for coeffs, sense, rhs in rows:
        nums, den = _integer_row(qvec([*coeffs, rhs]))
        int_rows.append((nums, sense, den))
    out = lp_solve(IntLp(direction, _integer_row(objective)[0], tuple(int_rows), nonneg))
    if out.status == "infeasible":
        _check_infeasible(int_rows, nonneg, out.certificate)
    elif out.status == "optimal":
        x = out.solution
        for nums, sense, _ in int_rows:
            lhs, rhs = sum(a * v for a, v in zip(nums, x)), nums[-1]
            if not {LE: lhs <= rhs, GE: lhs >= rhs, EQ: lhs == rhs}[sense]:
                raise RuntimeError("reported solution violates a constraint")
        out = LpOutcome("optimal", value=dot(objective, x), solution=x)
    return out


def brute_force_vertices(dim, ineqs, eqs=()):
    """All vertices of {A x <= b, E x = e} by tight-subset enumeration.

    Every vertex is the unique solution of d independent tight rows, so
    trying every subset of inequality rows (joined with the equalities)
    and keeping the feasible unique solutions enumerates them all.
    """
    ineqs = list(ineqs)
    eqs = list(eqs)
    found = set()
    max_extra = dim - 0
    for k in range(0, min(len(ineqs), max_extra) + 1):
        for subset in combinations(range(len(ineqs)), k):
            rows = [ineqs[i][0] for i in subset] + [e for e, _ in eqs]
            rhs = [ineqs[i][1] for i in subset] + [f for _, f in eqs]
            if not rows:
                continue
            status, _, x, _ = solve_linear_system(rows, rhs)
            if status != "unique":
                continue
            if all(dot(a, x) <= b for a, b in ineqs) and all(
                dot(e, x) == f for e, f in eqs
            ):
                found.add(tuple(x))
    return sorted(found)


def brute_force_max(objective, dim, ineqs, eqs=()):
    """Exact max of a linear functional via vertex enumeration."""
    verts = brute_force_vertices(dim, ineqs, eqs)
    assert verts, "brute-force oracle found an empty feasible region"
    return max(dot(objective, v) for v in verts)


def redundant_rows_reference(dim, ineqs, eqs):
    """Indices of the irredundant inequality rows, probed in order: a row
    is dropped when its max over the rows still kept (itself left out)
    and the equalities stays within its bound."""
    alive = list(range(len(ineqs)))
    for idx in range(len(ineqs)):
        rest = [i for i in alive if i != idx]
        rows = [(ineqs[i][0], LE, ineqs[i][1]) for i in rest]
        rows += [(e, EQ, f) for e, f in eqs]
        a, b = ineqs[idx]
        out = rational_lp("max", a, rows, (False,) * dim)
        if out.status == "optimal" and out.value <= b:
            alive = rest
    return alive


def is_subset_reference(p, q):
    """(holds, certificate) for p within q, maximizing every row of q
    over p (inequality rows first, then each equality row both ways) and
    stopping at the first that fails. Every LP goes through the module
    attribute `pt._maximize`, so a test can count them."""
    if p.dim != q.dim:
        raise DimensionError("dimension mismatch")
    if p.is_empty():
        return True, None
    if q.is_empty():
        return False, None
    if p._xs is not None:
        for v in p.points:
            if not pt.contains_point(q, v):
                return False, pt.separate(q, v)
        return True, None
    h = q.hrep
    probes = list(h.ineqs)
    for e, f in h.eqs:
        probes += [(e, f), (tuple(-c for c in e), -f)]
    for g, bound in probes:
        status, val, arg = pt._maximize(p, g)
        assert status == "optimal", status
        if val > bound:
            return False, pt.SeparationCertificate(g, val - pt._sup(q, g), arg)
    return True, None


def equals(p, q) -> bool:
    return pt.is_subset(p, q)[0] and pt.is_subset(q, p)[0]


def _path_preimage(cset):
    """{p in the path simplex : pushforward of p onto the set's tuple lies
    in the set}, every row of its canonical H-rep pulled back."""
    idx = pushforward_matrix(cset.space, cset.index_tuple)
    h = pt.dd_convert(cset.body).hrep
    simplex = pt.Polytope.simplex(len(idx)).hrep
    return pt.Polytope.from_hrep(
        len(idx),
        [*simplex.ineqs, *((pull(idx, a), b) for a, b in h.ineqs)],
        [*simplex.eqs, *((pull(idx, e), f) for e, f in h.eqs)],
    )


def property_suite_reference(coll, joint, representation):
    """The PropertyReport of `credalkit.joint.property_suite(coll, joint,
    representation, consistency)`, consistency the report of both
    consistency checks on coll, from path-space preimages."""
    reps = jt.representative_tuples(coll)
    pre = {alpha: _path_preimage(coll.sets[alpha]) for alpha in reps}
    records = []
    for alpha in reps:
        if len(alpha) < 2:
            continue
        shuffles = list(permutations(range(len(alpha))))[1:jt.CHECKED_PERMUTATIONS + 1]
        for perm in shuffles:
            shuffled = permute_tuple(alpha, perm)
            if shuffled in coll.sets:
                shuffled_set = coll.sets[shuffled]
            else:
                idx = permutation_matrix(coll.space, len(alpha), perm)
                shuffled_set = _pushforward_set(coll.sets[alpha], idx, shuffled)
            same = equals(pre[alpha], _path_preimage(shuffled_set))
            records.append(jt.PropertyRecord(
                "permutation-invariant preimage", alpha, shuffled,
                "pass" if same else "fail",
            ))
    for alpha in reps:
        for beta in reps:
            if alpha == beta or not tuple_covers(alpha, beta):
                continue
            holds = pt.is_subset(pre[alpha], pre[beta])[0]
            strict = holds and not pt.is_subset(pre[beta], pre[alpha])[0]
            records.append(jt.PropertyRecord(
                "covering tuple has smaller preimage", alpha, beta,
                "pass" if holds else "fail", note="strict" if strict else "",
            ))
    for r in representation.records:
        if r.direction == "prescribed within pushforward":
            records.append(jt.PropertyRecord(
                "prescribed set reachable", r.alpha, (), r.status
            ))
    rep_gamma = next(t for t in reps if set(t) == set(coll.space.full_tuple()))
    records.append(jt.PropertyRecord(
        "full-tuple preimage equals joint set", rep_gamma, (),
        "pass" if equals(joint.body, pre[rep_gamma]) else "fail",
    ))
    return jt.PropertyReport(tuple(records))


def representation_reference(coll, joint):
    """(alpha, direction, status, witness) per supplied tuple, as
    `verify_representation(coll, joint)` reports them on a polytope
    collection with a nonempty joint set. The witness of a failing
    "prescribed within pushforward" record is the first vertex of V_alpha
    the joint set does not reach; the other direction's is None (not
    compared)."""
    h = joint.body.hrep
    rows = [(a, LE, b) for a, b in h.ineqs] + [(e, EQ, f) for e, f in h.eqs]
    out = []
    for alpha in coll.supplied_tuples():
        target = pt.dd_convert(coll.sets[alpha].body)
        m = dense_pushforward(coll.space, alpha)
        missing = next((
            v for v in target.points
            if not fraction_feasible(joint.dim, rows + [(r, EQ, x) for r, x in zip(m, v)])
        ), None)
        out.append((alpha, "prescribed within pushforward",
                    "pass" if missing is None else "fail", missing))
        outside = any(rational_lp("max", dense_pull(m, a), rows).value > b
                      for a, b in target.hrep.as_ineqs())
        out.append((alpha, "pushforward within prescribed",
                    "fail" if outside else "pass", None))
    return out


def marginal_consistency_reference(coll):
    """The marginal check's report with every pair decided directly:
    for beta, then alpha, in supplied order, the records "restriction
    within supplied set" and "supplied set within restriction"."""
    records = []
    supplied = coll.supplied_tuples()
    for beta in supplied:
        for alpha in supplied:
            if alpha == beta or not tuple_covers(alpha, beta):
                continue
            if set(alpha) == set(beta):
                continue  # permutation territory
            idx = restriction_matrix(coll.space, alpha, beta)
            image = _pushforward_set(coll.sets[alpha], idx, beta)
            target = coll.sets[beta]
            for direction, inner, outer in (
                ("restriction within supplied set", image, target),
                ("supplied set within restriction", target, image),
            ):
                holds, witness, cert = _body_subset(inner, outer)
                records.append(CheckRecord(
                    "marginal", alpha, beta, direction,
                    "pass" if holds else "fail", witness, cert,
                ))
    return ConsistencyReport(tuple(records))


def covering_q(coll, alpha, beta):
    """Q = {q in alpha's simplex : r(q) in V_beta}, r the restriction of
    alpha onto beta: the simplex rows and V_beta's canonical rows pulled
    back through r (`joint._pulled_system`), as an H-rep polytope."""
    dim = coll.sets[alpha].dim
    idx = restriction_matrix(coll.space, alpha, beta)
    target = pt.dd_convert(coll.sets[beta].body).hrep
    return jt._system_polytope(dim, *jt._pulled_system(dim, [(beta, idx, target)]))


def deletion_filter_reference(dim, ineqs, eqs):
    """(core rows, multipliers, offending tuples, LP count) for the
    system of ((coeffs, rhs), origin) rows: rows are tried in order,
    inequality rows first, and a credal-origin row is dropped whenever
    an LP finds the other active rows infeasible; one last LP certifies
    the rows left."""
    rows = [(coeffs, rhs, LE, origin) for (coeffs, rhs), origin in ineqs]
    rows += [(coeffs, rhs, EQ, origin) for (coeffs, rhs), origin in eqs]
    lps = 0

    def infeasible(active):
        nonlocal lps
        lps += 1
        lp_rows = tuple((coeffs, sense, rhs) for coeffs, rhs, sense, _ in active)
        outcome = rational_lp("min", [ZERO] * dim, lp_rows, (False,) * dim)
        return outcome.status == "infeasible", outcome.certificate

    active = list(range(len(rows)))
    for r in range(len(rows)):
        if rows[r][3] == SIMPLEX_ORIGIN:
            continue
        trial = [i for i in active if i != r]
        if infeasible([rows[i] for i in trial])[0]:
            active = trial
    bad, certificate = infeasible([rows[i] for i in active])
    assert bad, "the reference core is feasible"
    offending = []
    for i, mult in zip(active, certificate):
        origin = rows[i][3]
        if mult != 0 and origin != SIMPLEX_ORIGIN and origin not in offending:
            offending.append(origin)
    core = tuple(
        (rows[i][0], rows[i][2], rows[i][1], rows[i][3]) for i in active
    )
    return core, tuple(certificate), tuple(offending), lps


def equality_relations_reference(eqs, dim):
    """A basis of the integer vectors z with sum_j z_j [e_j | f_j] = 0
    over the integer equality rows (e_j, f_j), one list per vector: the
    Fraction nullspace of the transposed rows, each vector scaled to
    its primitive integer form."""
    if not eqs:
        return []
    columns = [[e[t] for e, _ in eqs] for t in range(dim)]
    columns.append([f for _, f in eqs])
    return [list(primitive(z)) for z in fraction_nullspace(columns, len(eqs))[1]]


def drop_relation_reference(null, j):
    """Restrict the relation basis `null` to z_j = 0, in place; returns the
    vector used to clear position j, or None when every z_j is 0 (row j
    is not a combination of the others)."""
    w = next((z for z in null if z[j]), None)
    if w is None:
        return None
    null[:] = [
        _content_free([w[j] * a - z[j] * b for a, b in zip(z, w)]) if z[j] else z
        for z in null
        if z is not w
    ]
    return w


def unit_nonneg(coeffs, rhs, dim):
    """Index j when the row is exactly -c x_j <= 0 with c > 0, else None."""
    if rhs != 0:
        return None
    found = None
    for j in range(dim):
        v = coeffs[j]
        if v == 0:
            continue
        if v > 0 or found is not None:
            return None
        found = j
    return found


def feasible_point_reference(p):
    """Feasibility of p's H-rep by one LP over every row; returns
    (status, x, certificate).

    A unit row -c x_j <= 0 (c > 0) enters the LP as the bound x_j >= 0,
    so it adds no row and x_j is not split into two columns. When p is
    empty, the certificate holds one Farkas multiplier per H-rep row,
    inequalities then equalities, valid for the system with every
    variable free: the LP's multipliers on its rows, and on the first
    unit row of each bounded x_j the LP's combined row at j (>= 0) over
    c; a repeated unit row gets 0. It is re-checked in integers against
    that all-free system.
    """
    h = p.hrep
    dim = p.dim
    nonneg = [False] * dim
    bound_at = {}  # bounded variable -> its first unit row
    rows = []
    at = []  # the H-rep row behind each LP row
    for i, (coeffs, rhs) in enumerate(h.ineqs):
        j = unit_nonneg(coeffs, rhs, dim)
        if j is None:
            rows.append((coeffs, LE, rhs))
            at.append(i)
        else:
            nonneg[j] = True
            bound_at.setdefault(j, i)
    rows += [(e, EQ, f) for e, f in h.eqs]
    at += range(len(h.ineqs), len(h.ineqs) + len(h.eqs))
    outcome = rational_lp("min", [ZERO] * dim, rows, nonneg)
    if outcome.status != "infeasible":
        return outcome.status, outcome.solution, None
    every = [(a, LE, b) for a, b in h.ineqs] + [(e, EQ, f) for e, f in h.eqs]
    certificate = [ZERO] * len(every)
    support = [(k, y) for k, y in enumerate(outcome.certificate) if y]
    for k, y in support:
        certificate[at[k]] = y
    for j, i in bound_at.items():
        combined = sum((y * rows[k][0][j] for k, y in support), ZERO)
        certificate[i] = combined / -h.ineqs[i][0][j]
    _check_infeasible(
        [([*a, b], sense, 1) for a, sense, b in every], (False,) * dim, certificate
    )
    return "infeasible", None, tuple(certificate)


def _context_rows(ctx):
    """The context's inequality rows reduced in Fractions, one
    (a.N, "<=", b - a.origin) per row."""
    rows = []
    for a, b in ctx.ineqs:
        coeffs = tuple(dot(a, vec) for vec in ctx.basis)
        rows.append((coeffs, LE, b - dot(a, ctx.origin)))
    return rows


def _context_point(ctx, z):
    """origin + N z, in Fractions."""
    x = list(ctx.origin)
    for zk, vec in zip(z, ctx.basis):
        x = [xj + zk * v for xj, v in zip(x, vec)]
    return tuple(x)


def context_maximize_reference(ctx, f):
    """(status, value, argmax) of max f.x over the context's rows: the
    rows with a.N != 0 as an LP over free z."""
    rows = _context_rows(ctx)
    fz = tuple(dot(f, vec) for vec in ctx.basis)
    at_origin = dot(f, ctx.origin)
    if not any(fz):
        return "optimal", at_origin, ctx.origin
    lp_rows = tuple(row for row in rows if any(row[0]))
    out = rational_lp("max", fz, lp_rows, (False,) * len(fz))
    if out.status != "optimal":
        return out.status, None, None
    return "optimal", at_origin + out.value, _context_point(ctx, out.solution)


def context_decide_reference(ctx):
    """(x, None) or (None, certificate) for the context's system, decided
    as `LpContext.decide` documents: a violated constant row is the
    certificate, a feasible origin is the point, and otherwise one LP
    runs, the rows -c z_k <= 0 taken as bounds z_k >= 0. The
    certificate's part on the equality rows is `eq_part_reference`."""
    rows = _context_rows(ctx)
    n = len(rows)
    live = [any(coeffs) for coeffs, _, _ in rows]
    y = [ZERO] * n
    bad = next((i for i in range(n) if rows[i][2] < 0 and not live[i]), None)
    if bad is not None:
        y[bad] = -ONE / rows[bad][2]
    elif all(rows[i][2] >= 0 for i in range(n)):
        return ctx.origin, None
    else:
        d = len(ctx.basis)
        bound_at = {}
        lp = []
        for i in (i for i in range(n) if live[i]):
            coeffs, _, slack = rows[i]
            support = [k for k, v in enumerate(coeffs) if v]
            if slack == 0 and len(support) == 1 and coeffs[support[0]] < 0:
                bound_at.setdefault(support[0], i)
            else:
                lp.append(i)
        out = rational_lp(
            "min", (ZERO,) * d, [rows[i] for i in lp],
            tuple(k in bound_at for k in range(d)),
        )
        if out.status == "optimal":
            return _context_point(ctx, out.solution), None
        for i, cm in zip(lp, out.certificate):
            y[i] = cm
        for k, i in bound_at.items():
            combined = sum((y[r] * rows[r][0][k] for r in lp if y[r]), ZERO)
            y[i] = combined / -rows[i][0][k]
    return None, (*y, *eq_part_reference(ctx, y))


def eq_part_reference(ctx, mults):
    """The equality rows' part -w of the context's certificate with the
    multipliers `mults` on its inequality rows, in Fractions: u = sum
    cm * a, and w = `combination_reference`(E's rows, u)."""
    u = [ZERO] * ctx.dim
    for cm, (a, _) in zip(mults, ctx.ineqs):
        u = [s + cm * v for s, v in zip(u, a)]
    return tuple(-v for v in combination_reference([e for e, _ in ctx.eqs], u))


def echelon_combinations_reference(rows):
    """(chosen, kept) as `echelon(rows)` gives them, each kept entry
    (pivot column, row, combination): the combination holds one integer
    per input row, 0 off the chosen rows, and the row is the sum of the
    input rows weighted by it, a positive multiple of the primitive
    reduced row. Both are read off the echelon rows of [chosen rows |
    I]: the chosen rows are independent, so every pivot lands left of
    the identity block, the left block is the same reduced row echelon
    form up to row scaling, and the right block names the weights of
    the chosen rows behind it."""
    chosen = echelon(rows)[0]
    k = len(chosen)
    n = len(rows[0]) if rows else 0
    aug = [[*rows[i], *(int(t == j) for t in range(k))] for j, i in enumerate(chosen)]
    out = []
    for col, red in echelon(aug)[1]:
        comb = [0] * len(rows)
        for j, i in enumerate(chosen):
            comb[i] = red[n + j]
        out.append((col, red[:n], tuple(comb)))
    return chosen, out


def combination_reference(rows, target):
    """Fraction weights w of the rows with w.rows = target, 0 off the
    chosen rows, for a target in their span: w = sum_k (target[c_k] /
    row_k[c_k]) comb_k over `echelon_combinations_reference`'s rows
    row_k, which read row_k[c_k] at their own pivot column c_k and 0 at
    every other."""
    w = [ZERO] * len(rows)
    for col, red, comb in echelon_combinations_reference(rows)[1]:
        t = Fraction(target[col], red[col])
        w = [s + t * c for s, c in zip(w, comb)]
    return w


def fraction_feasible(dim, rows) -> bool:
    """Whether the (coeffs, sense, rhs) rows, senses <= and =, have a
    solution in free variables: each x_j is split as u_j - v_j and each
    <= row gets a slack, then `fraction_simplex_solve` runs phase 1."""
    n_slack = sum(1 for _, sense, _ in rows if sense == LE)
    a, b = [], []
    slack = 0
    for coeffs, sense, rhs in rows:
        row = [Fraction(c) for c in coeffs] + [-Fraction(c) for c in coeffs]
        row += [ZERO] * n_slack
        if sense == LE:
            row[2 * dim + slack] = ONE
            slack += 1
        rhs = Fraction(rhs)
        if rhs < 0:
            row, rhs = [-v for v in row], -rhs
        a.append(row)
        b.append(rhs)
    n = 2 * dim + n_slack
    status, _, _ = fraction_simplex_solve(len(a), n, a, b, [ZERO] * n)
    return status == "optimal"


def hull_sample_points(rng, vertices, count):
    """Random rational convex combinations of the given points."""
    out = []
    for _ in range(count):
        weights = [Fraction(rng.randint(0, 6)) for _ in vertices]
        total = sum(weights)
        if total == 0:
            weights[rng.randrange(len(weights))] = Fraction(1)
            total = Fraction(1)
        point = tuple(
            sum((w * v[j] for w, v in zip(weights, vertices)), ZERO) / total
            for j in range(len(vertices[0]))
        )
        out.append(point)
    return out


def hrep_contains(hrep, x) -> bool:
    """Direct substitution of a point into an H-rep."""
    return all(dot(a, x) <= b for a, b in hrep.ineqs) and all(
        dot(e, x) == f for e, f in hrep.eqs
    )


def hull_membership(x, points):
    """The status of the hull LP for x: weights w >= 0 with sum w = 1 and
    sum_i w_i points_i = x, one row per coordinate."""
    rows = [([ONE] * len(points), EQ, ONE)]
    rows += [([v[j] for v in points], EQ, x[j]) for j in range(len(x))]
    return rational_lp("min", [ZERO] * len(points), rows).status


def extreme_subset_reference(points):
    """The points that are not convex combinations of the others, sorted:
    each point in turn is dropped when a hull LP over the points kept so
    far (itself left out) finds it in their hull."""
    keep = sorted(set(points))
    i = 0
    while len(keep) > 1 and i < len(keep):
        others = keep[:i] + keep[i + 1:]
        if hull_membership(keep[i], others) == "optimal":
            del keep[i]
        else:
            i += 1
    return tuple(keep)


def hrep_from_points_reference(points, dim):
    """The irredundant H-rep of the hull of `points`, built in Fractions
    from its vertices (`extreme_subset_reference`): the affine hull's
    equality rows w.x = w.v0 over the nullspace of the differences from
    the least vertex v0, and one facet row per extreme ray of the cone
    the vertices span in the pivot coordinates. Rows are sorted before
    `HRep.make` canonicalizes them: inequality rows always, equality rows
    when the hull has positive dimension."""
    if not points:
        return pt.HRep(dim, (((0,) * dim, -1),), ())
    pts = extreme_subset_reference(points)
    v0 = pts[0]
    diffs = [[a - b for a, b in zip(v, v0)] for v in pts[1:]]
    pivots, null = fraction_nullspace(diffs, dim)
    eqs = [(w, dot(w, v0)) for w in null]
    r = len(pivots)
    if r == 0:
        return pt.HRep.make(dim, ineqs=(), eqs=eqs)
    upts = [tuple(v[pk] - v0[pk] for pk in pivots) for v in pts]
    gens = [primitive(list(u) + [1]) for u in upts]
    ineqs = []
    for y in pt._extreme_rays(gens, r + 1, "facet enumeration")[0]:
        coeffs = [0] * dim
        for k, pk in enumerate(pivots):
            coeffs[pk] = y[k]
        ineqs.append((tuple(coeffs), dot(coeffs, v0) - y[r]))
    ineqs.sort()
    return pt.HRep.make(dim, ineqs=ineqs, eqs=sorted(eqs))


def integer_points(points):
    """Rational points as (xs, den): int tuples over the lcm of every
    denominator, in the given order, repeats kept."""
    pts = [qvec(x) for x in points]
    den = lcm(*[v.denominator for x in pts for v in x])
    return [tuple(v.numerator * (den // v.denominator) for v in x) for x in pts], den


def fraction_points(xs, den):
    """Int tuples over den as Fraction tuples."""
    return tuple(tuple(Fraction(v, den) for v in x) for x in xs)


def hrep_from_points_fraction_route(points, dim):
    """`_hrep_from_points` behind a Fraction interface: the rational
    points, which may repeat, deduplicated and sorted as Fractions, put
    over one common denominator, and the hull built as the library
    builds it, but with the equality rows read off the Fraction
    nullspace, sorted as Fractions when the hull has positive
    dimension; (the H-rep, the vertices as Fraction tuples)."""
    if not points:
        return pt.HRep(dim, (((0,) * dim, -1),), ()), ()
    pts = sorted(set(qvec(x) for x in points))
    xs, den = integer_points(pts)
    x0 = xs[0]
    pivots, null = fraction_nullspace([[a - b for a, b in zip(x, x0)] for x in xs], dim)
    r = len(pivots)
    eqs = []
    for w in map(primitive, sorted(null) if r else null):
        if next(v for v in w if v) < 0:
            w = [-v for v in w]
        eqs.append(pt._row_over(w, pt._row_at(w, x0), den))
    if r == 0:
        return pt.HRep(dim, (), tuple(eqs)), (pts[0],)
    gens = [_content_free([*(x[k] - x0[k] for k in pivots), den]) for x in xs]
    facets, tight = pt._extreme_rays(gens, r + 1, "facet enumeration")
    keyed = []
    for y in facets:
        coeffs = [0] * dim
        for k, pk in enumerate(pivots):
            coeffs[pk] = y[k]
        keyed.append((tuple(coeffs), pt._row_at(coeffs, x0) - y[r] * den))
    ineqs = tuple(pt._row_over(a, b, den) for a, b in sorted(keyed))
    verts = []
    for i, x in enumerate(pts):
        bit = 1 << i
        common = -1
        for mask in tight:
            if mask & bit:
                common &= mask
        if common == bit:
            verts.append(x)
    return pt.HRep(dim, ineqs, tuple(eqs)), tuple(verts)


def solve_linear_system(a, b):
    """Exact solve of A x = b: (status, rank, solution, nullspace).

    status is "unique", "underdetermined" or "inconsistent". When the
    system is consistent, `solution` is the particular solution that is
    0 on every free column and `nullspace` holds one vector per free
    column, 1 there and 0 at the other free columns, so the solution set
    is solution + span(nullspace); otherwise they are None and ().
    """
    if len(a) != len(b):
        raise DimensionError(f"solve: {len(a)} rows vs {len(b)} rhs")
    n = len(a[0])
    aug = [list(qvec(row)) + [Fraction(rhs)] for row, rhs in zip(a, b)]
    pivots = _rref(aug, n)
    rank = len(pivots)
    for row in aug[rank:]:
        if row[n] != 0:
            return "inconsistent", rank, None, ()
    solution = [ZERO] * n
    for r, col in enumerate(pivots):
        solution[col] = aug[r][n]
    free_cols = [j for j in range(n) if j not in set(pivots)]
    nullspace = []
    for free in free_cols:
        vec = [ZERO] * n
        vec[free] = ONE
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][free]
        nullspace.append(tuple(vec))
    status = "unique" if not free_cols else "underdetermined"
    return status, rank, tuple(solution), tuple(nullspace)


def fraction_nullspace(a, n):
    """(pivots, nullspace) of the homogeneous rows a in n columns, from
    `solve_linear_system`: the pivot columns ascending, and one Fraction
    vector per free column, 1 there and 0 at the other free columns. A
    vector's free column is its last nonzero entry: a reduced row is 0
    left of its pivot."""
    nullspace = solve_linear_system(a or [[ZERO] * n], [ZERO] * max(len(a), 1))[3]
    free = {max(j for j, v in enumerate(vec) if v) for vec in nullspace}
    return [j for j in range(n) if j not in free], nullspace


def primitive(vec):
    """A rational vector scaled to a primitive integer tuple, in Fractions."""
    vec = [Fraction(v) for v in vec]
    den = lcm(*[v.denominator for v in vec])
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g else tuple(ints)


def _rref(aug, n):
    """In-place reduced row echelon form over columns 0..n-1.

    Returns the pivot column list; rows beyond the rank hold only the
    (possibly nonzero) augmented entries.
    """
    pivots = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        piv = aug[r][col]
        aug[r] = [v / piv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    return pivots


def fraction_inverse(m) -> tuple:
    """The inverse of a nonsingular square matrix, by Gauss-Jordan."""
    n = len(m)
    aug = [list(qvec(row)) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(m)]
    if _rref(aug, n) != list(range(n)):
        raise DimensionError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


def apply(m, vec) -> tuple:
    """The matrix-vector product M.vec."""
    return tuple(dot(row, vec) for row in m)


def matrix_rank(m) -> int:
    return solve_linear_system(m, [ZERO] * len(m))[1]


def index_to_outcomes(space, idx: int, n: int) -> tuple:
    """Inverse of product_index for n-tuples."""
    m = space.n_outcomes
    if not 0 <= idx < m ** n:
        raise DimensionError(f"index {idx} out of range for {n} coordinates")
    out = []
    for _ in range(n):
        idx, r = divmod(idx, m)
        out.append(space.outcomes[r])
    return tuple(reversed(out))


def all_outcome_tuples(space, n: int):
    """All n-tuples of outcomes in row-major order."""
    return product(space.outcomes, repeat=n)


def dense_pushforward(space, alpha) -> tuple:
    """Entry [x][w] is 1 iff path w agrees with outcome tuple x on alpha."""
    positions = [space.index_pos(t) for t in alpha]
    return _dense_reading(space, space.n_indices, positions)


def dense_permutation(space, n, perm) -> tuple:
    """The shuffle y -> (y[perm[0]], ..., y[perm[n-1]]) on n-tuples."""
    return _dense_reading(space, n, perm)


def dense_marginal(space, n_total, n_keep) -> tuple:
    """Sum out the trailing n_total - n_keep coordinates."""
    return _dense_reading(space, n_total, range(n_keep))


def dense_restriction(space, alpha, beta) -> tuple:
    """Shuffle beta's coordinates to the front, then sum out the rest."""
    perm = alignment_permutation(alpha, beta)
    return matmul(
        dense_marginal(space, len(alpha), len(beta)),
        dense_permutation(space, len(alpha), perm),
    )


def _dense_reading(space, n, positions) -> tuple:
    ncols = space.n_outcomes ** n
    rows = [[ZERO] * ncols for _ in range(space.n_outcomes ** len(positions))]
    for col, y in enumerate(all_outcome_tuples(space, n)):
        rows[product_index(space, [y[p] for p in positions])][col] = ONE
    return tuple(map(tuple, rows))


def matmul(a, b) -> tuple:
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for k, v in enumerate(row):
            if v:
                acc = [s + v * w for s, w in zip(acc, b[k])]
        out.append(tuple(acc))
    return tuple(out)


def dense_pull(m, row) -> tuple:
    """The row vector row.M."""
    return tuple(dot(row, col) for col in zip(*m))


def fraction_simplex_solve(m, n, a, b, c):
    """Solve min c.x over {a.x = b, x >= 0}, b >= 0 entrywise.

    `a` is a list of m rows (each a sequence of n Fractions), `b` a list
    of m nonnegative Fractions, `c` a list of n Fractions.

    Returns (status, x, y):
      ("optimal", x, None)      x is a basic optimal point, length n
      ("infeasible", None, y)   y has y.a_j <= 0 for every column j and
                                y.b > 0 (an exact infeasibility witness)
      ("unbounded", None, None)
    """
    # A column positive in one row and zero in every other row starts
    # basic there (the lowest such column per row); the other rows get
    # artificials, numbered in row order.
    start = [-1] * m
    for j in range(n):
        hits = [i for i in range(m) if a[i][j] != 0]
        if len(hits) == 1 and a[hits[0]][j] > 0 and start[hits[0]] < 0:
            start[hits[0]] = j
    art = [i for i in range(m) if start[i] < 0]
    ntot = n + len(art)
    rhs = ntot
    rows = []
    basis = []
    for i in range(m):
        row = [ZERO] * (ntot + 1)
        ai = a[i]
        for j in range(n):
            row[j] = ai[j]
        row[rhs] = b[i]
        if start[i] < 0:
            basis.append(n + art.index(i))
            row[basis[-1]] = ONE
        else:
            basis.append(start[i])
            piv = ai[start[i]]
            row = [v / piv for v in row]
        rows.append(row)

    # Phase-1 reduced costs: the artificial rows summed and negated.
    cost = [ZERO] * (ntot + 1)
    for j in list(range(n)) + [rhs]:
        s = ZERO
        for i in art:
            s += rows[i][j]
        cost[j] = -s

    # Artificial columns never re-enter: entering index stays below n.
    _bland(rows, cost, basis, rhs, n)
    if cost[rhs] < 0:
        # Positive phase-1 optimum: the reduced cost of artificial i is
        # 1 - y_i, and that of the column j basic from the start in row i
        # is -y_i * a_ij.
        y = [None] * m
        for r, i in enumerate(art):
            y[i] = ONE - cost[n + r]
        for i in range(m):
            if start[i] >= 0:
                y[i] = -cost[start[i]] / a[i][start[i]]
        return ("infeasible", None, y)

    # Drive leftover artificials out of the basis (degenerate pivots);
    # rows with no structural entry are redundant and get dropped.
    drop = []
    for i in art:
        if basis[i] >= n:
            piv = -1
            ri = rows[i]
            for j in range(n):
                if ri[j] != 0:
                    piv = j
                    break
            if piv < 0:
                drop.append(i)
            else:
                _pivot(rows, cost, basis, i, piv, rhs)
    for i in reversed(drop):
        del rows[i]
        del basis[i]

    # Phase 2 on the structural columns only.
    rows = [row[:n] + [row[rhs]] for row in rows]
    rhs = n
    cost = [c[j] for j in range(n)] + [ZERO]
    for i, ri in enumerate(rows):
        cb = c[basis[i]]
        if cb != 0:
            for j in range(n + 1):
                if ri[j]:
                    cost[j] -= cb * ri[j]

    if not _bland(rows, cost, basis, rhs, n):
        return ("unbounded", None, None)

    x = [ZERO] * n
    for i, ri in enumerate(rows):
        x[basis[i]] = ri[rhs]
    return ("optimal", x, None)


def _bland(rows, cost, basis, rhs, n_enter):
    """Pivot until optimal (True) or unbounded (False)."""
    m = len(rows)
    while True:
        enter = -1
        for j in range(n_enter):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best = None
        for i in range(m):
            aij = rows[i][enter]
            if aij > 0:
                theta = rows[i][rhs] / aij
                if (
                    leave < 0
                    or theta < best
                    or (theta == best and basis[i] < basis[leave])
                ):
                    leave = i
                    best = theta
        if leave < 0:
            return False
        _pivot(rows, cost, basis, leave, enter, rhs)


def _pivot(rows, cost, basis, r, jc, rhs):
    row = rows[r]
    piv = row[jc]
    if piv != 1:
        for j in range(rhs + 1):
            if row[j]:
                row[j] /= piv
    support = [j for j in range(rhs + 1) if row[j]]
    for ri in rows:
        if ri is row:
            continue
        f = ri[jc]
        if f != 0:
            for j in support:
                ri[j] -= f * row[j]
    f = cost[jc]
    if f != 0:
        for j in support:
            cost[j] -= f * row[j]
    basis[r] = jc
