"""Exact convex polytopes over the rationals.

Dual-representation polytopes (inequality form and generator form) with
the geometric predicates the credal machinery needs: membership,
containment with separating certificates, set equality, images under
coordinate maps, and redundancy elimination.
Representation conversion is the double description method run on the
homogenization cone, with the combinatorial adjacency test; everything
is exact. Points become a polytope in one routine, `_hrep_from_points`,
which also tells the vertices among them, so membership in a set given
by points is a substitution into rows, with no LP, and `separate` reads
its certificate off a row the point violates, with the gap taken over
the generators. Rows are int tuples with int rhs (`HRep`), and a set's
points are int tuples over one positive common denominator (`Polytope`'s
`xs` and `den`); every routine here reads both as they are. Fractions
appear only where a value leaves: the `points` view, LP values and
argmaxes, and certificates.

Every LP over a nonempty polytope runs in its `LpContext`, built on
first use and cached on the polytope: affine-hull coordinates z with
x = origin + N z, from a feasible origin, so every LP starts from the
slack basis with no phase 1. The origin is the first generator, a point
the caller knows to lie in the set, or the point `_feasible_point` finds
as it decides `is_empty`. Whether a system has a point is decided in the
same coordinates, its equality rows solved once, by one routine,
`LpContext.decide`. A violated row constant on the hull, or an origin
that satisfies every row, decides it with no LP; otherwise one phase 1
runs over the d free directions. The kernel gets the reduced rows as
integers, and each answer and certificate is mapped back and checked
once, in integers, against the original rows.

Redundancy removal keeps the rows of the drop-one-row filter (rows
taken in order, a row dropped when the rows still kept without it
describe the same set) and reads them off the set's vertices, with no
LP: the last row of each facet, and of the rows tight at every vertex
those without which the rows still kept would let the set leave its
affine hull, a cone decided by a double description. Every double
description stops with ResourceCapError once its intermediate rays
outnumber RAY_CAP.

Only bounded sets are supported. Constructors either receive finitely
many points, or an inequality system that is expected to bound the set
(the credal layer always includes probability-simplex constraints);
asking for the generators of an unbounded system raises UnboundedError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from credalkit.exactq import (
    EQ,
    LE,
    ZERO,
    DimensionError,
    IntLp,
    _check_infeasible,
    _content_free,
    _integer_row,
    combination,
    dot,
    echelon,
    lp_solve,
    qvec,
    solve_rows,
)
from credalkit.spaces import push


class UnboundedError(ValueError):
    """The inequality system describes an unbounded set."""


class NotSeparableError(ValueError):
    """Separation was requested for a point that belongs to the set."""


class ResourceCapError(RuntimeError):
    """A computation ran past a fixed cap: a double description's
    intermediate rays here, finite mode's selection cells in `joint`."""


# the most rays a double description may hold at once, so also the most
# vertices or facets it can return. The peaks on the benchmark's families
# and the tools/stages.py families stay below 40 (BENCH_build_vertices.json);
# {x : sum x = 1, 1/24 <= x_j <= 1/8} in 12 coordinates passes 1,000 rays
# within about a second, where running to the end takes 15 s.
RAY_CAP = 1000


# ---------------------------------------------------------------------------
# canonical rows

def _canon_ineq(coeffs, rhs):
    """Primitive-integer form (int tuple, int rhs) of  coeffs.x <= rhs.

    Returns None when the row is trivially true; all-zero coefficient
    rows with negative rhs normalize to the canonical empty marker
    (0,...,0) <= -1.
    """
    nums = _integer_row([*coeffs, rhs])[0]
    if not any(nums[:-1]):
        if nums[-1] >= 0:
            return None
        return (0,) * len(coeffs), -1
    nums = _content_free(nums)
    return tuple(nums[:-1]), nums[-1]


def _canon_eq(coeffs, rhs):
    """Primitive-integer form of  coeffs.x = rhs, first nonzero positive.

    Returns None when trivially true; all-zero rows with nonzero rhs
    normalize to (0,...,0) = 1 (the canonical inconsistent marker).
    """
    nums = _integer_row([*coeffs, rhs])[0]
    lead = next((v for v in nums[:-1] if v), None)
    if lead is None:
        if nums[-1] == 0:
            return None
        return (0,) * len(coeffs), 1
    nums = _content_free(nums)
    if lead < 0:
        nums = [-v for v in nums]
    return tuple(nums[:-1]), nums[-1]


@dataclass(frozen=True)
class HRep:
    """Inequality description: ineqs rows a.x <= b, eqs rows e.x = f.

    Each row is an int coefficient tuple and an int rhs. `make`
    canonicalizes rational rows; the constructor takes integer rows as
    they are (an integral Fraction, as read back from a build file,
    becomes its int) and raises DimensionError on any other rational.
    """

    dim: int
    ineqs: tuple
    eqs: tuple

    def __post_init__(self):
        for name in ("ineqs", "eqs"):
            rows = tuple(getattr(self, name))
            entries = chain(rows, (a for a, _ in rows))  # (a, b) pairs, then each a
            if set(map(type, chain.from_iterable(entries))) - {tuple, int}:
                if any(v.denominator != 1 for a, b in rows for v in (*a, b)):
                    raise DimensionError("H-rep rows need integer entries")
                rows = tuple(
                    (tuple(v.numerator for v in a), b.numerator) for a, b in rows
                )
            object.__setattr__(self, name, rows)

    @classmethod
    def make(cls, dim, ineqs=(), eqs=()):
        can_ineqs = []
        for coeffs, rhs in ineqs:
            if len(coeffs) != dim:
                raise DimensionError("inequality row has wrong dimension")
            row = _canon_ineq(qvec(coeffs), Fraction(rhs))
            if row is not None:
                can_ineqs.append(row)
        can_eqs = []
        for coeffs, rhs in eqs:
            if len(coeffs) != dim:
                raise DimensionError("equality row has wrong dimension")
            row = _canon_eq(qvec(coeffs), Fraction(rhs))
            if row is not None:
                can_eqs.append(row)
        return cls(dim, tuple(can_ineqs), tuple(can_eqs))

    def as_ineqs(self) -> list:
        """Every row as a.x <= b: the inequality rows, then each equality
        row e.x = f as e.x <= f and -e.x <= -f."""
        rows = list(self.ineqs)
        for e, f in self.eqs:
            rows += [(e, f), (tuple(-c for c in e), -f)]
        return rows


@dataclass(frozen=True)
class SeparationCertificate:
    """A functional strictly separating `point` from a set.

    Witnesses  functional.point - functional.v >= gap  for every member v
    of the separated set, with gap > 0.
    """

    functional: tuple
    gap: Fraction
    point: tuple


def verify_separation(cert: SeparationCertificate, p: "Polytope") -> bool:
    """Exact re-check of a certificate against the separated set. An
    empty set passes: the gap holds for each of its (no) members."""
    if cert.gap <= 0:
        return False
    return p.is_empty() or (
        _sup(p, cert.functional) <= dot(cert.functional, cert.point) - cert.gap
    )


def sorted_distinct(points) -> list:
    """The points in sorted order, each once. Equal points are adjacent
    once sorted, so no entry is hashed."""
    pts = sorted(points)
    return [p for i, p in enumerate(pts) if not i or p != pts[i - 1]]


class Polytope:
    """A bounded convex rational polytope with lazily linked reps.

    At least one of the two representations is present. The generator
    form holds hull generators the way `HRep` holds rows: `xs`, sorted
    distinct int tuples, the numerators over one positive common
    denominator `den`; `points` is their Fraction view, for output.
    After `dd_convert` (and for anything produced by representation
    conversion) the generators are exactly the extreme points and the
    inequality form has no redundant rows. Instances are immutable apart
    from idempotent caching (the missing representation, emptiness, the
    LP context, the Fraction view, and the canonical form `dd_convert`
    returns), so concurrent readers are safe.
    """

    __slots__ = ("dim", "_hrep", "_xs", "_den", "_points", "_empty", "_canonical",
                 "_context", "_converted")

    def __init__(self, dim, hrep=None, xs=None, den=1, empty=None, canonical=False):
        if hrep is None and xs is None:
            raise DimensionError("polytope needs an H-rep or generators")
        if dim < 1:
            raise DimensionError("dimension must be >= 1")
        self.dim = dim
        self._hrep = hrep
        self._xs = None if xs is None else tuple(xs)
        self._den = den
        self._points = None
        if empty is None and xs is not None:
            empty = not self._xs
        self._empty = empty
        self._canonical = canonical
        self._context = None
        self._converted = None

    @classmethod
    def from_hrep(cls, dim, ineqs=(), eqs=()):
        return cls(dim, hrep=HRep.make(dim, ineqs, eqs))

    @classmethod
    def from_points(cls, points, dim=None):
        """The hull of rational points, each converted once
        (`from_numerators`)."""
        pts = [qvec(p) for p in points]
        if dim is None:
            if not pts:
                raise DimensionError("cannot infer dimension of an empty set")
            dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise DimensionError("generator dimensions differ")
        return cls.from_numerators(dim, [_integer_row(p) for p in pts])

    @classmethod
    def from_numerators(cls, dim, rows):
        """The hull of the points given as (numerators, denominator) pairs:
        put over the lcm of the denominators, sorted and deduplicated as
        int tuples."""
        den = lcm(*[d for _, d in rows])
        xs = {tuple([v * (den // d) for v in nums]) for nums, d in rows}
        return cls(dim, xs=sorted(xs), den=den)

    @classmethod
    def simplex(cls, dim):
        """The probability simplex {x >= 0, sum x = 1} in dimension dim."""
        ineqs = tuple(
            (tuple(-int(k == j) for k in range(dim)), 0) for j in range(dim)
        )
        return cls(dim, hrep=HRep(dim, ineqs, (((1,) * dim, 1),)))

    # -- lazy representations ------------------------------------------------

    @property
    def hrep(self) -> HRep:
        if self._hrep is None:
            self._hrep = dd_convert(self).hrep
        return self._hrep

    @property
    def xs(self) -> tuple:
        """Hull generators (exactly the vertices once converted) as int
        tuples over `den`; an H-rep set's come from its double
        description, run on first read."""
        if self._xs is None:
            xs, self._den = _points_from_hrep(self._hrep)
            self._empty = not xs
            self._xs = xs  # last: a reader that finds _xs set reads _den
        return self._xs

    @property
    def den(self) -> int:
        """The positive common denominator of `xs`."""
        if self._xs is None:
            self.xs  # noqa: B018 (its double description sets _den)
        return self._den

    @property
    def points(self) -> tuple:
        """The generators as Fraction tuples, sorted: a view built on
        first read and cached, for reports, witnesses and files."""
        if self._points is None:
            xs, den = self.xs, self._den
            self._points = tuple(
                tuple([Fraction(v, den) if v else ZERO for v in x]) for x in xs
            )
        return self._points

    def is_empty(self) -> bool:
        if self._empty is None:
            if self._xs is not None:
                self._empty = not self._xs
            else:
                _lp_context(self)  # its feasibility LP decides emptiness
        return self._empty

    def __repr__(self):
        reps = []
        if self._hrep is not None:
            reps.append(f"{len(self._hrep.ineqs)} ineqs/{len(self._hrep.eqs)} eqs")
        if self._xs is not None:
            reps.append(f"{len(self._xs)} points")
        return f"Polytope(dim={self.dim}, {', '.join(reps)})"


# ---------------------------------------------------------------------------
# LP plumbing over H-reps

def _maximize(p: Polytope, f):
    """Exact max of f over p via p's LP context. Returns (status, value,
    argmax); ("infeasible", None, None) when p is empty."""
    ctx = _lp_context(p)
    if ctx is None:
        return "infeasible", None, None
    return ctx.maximize(tuple(f))


def _feasible_point(h: HRep, candidate=None):
    """Decide whether the H-rep h has a point, in affine-hull coordinates.

    Returns (context, None) when it has one: an LP context of h whose
    origin is a point of it. Returns (None, certificate) when h is empty:
    one Farkas multiplier per row of h, inequalities then equalities,
    valid for the system with every variable free and re-checked in
    integers against h's rows. A `candidate` is a point as integer
    numerators over a positive denominator, (nums, den).

    The full equality rows [E | f] are eliminated once (`echelon`), and
    that elimination is the context's own (`LpContext.eliminated`). Then:
    - inconsistent equality rows: the certificate is the combination y
      of them with y.[E | f] = [0 ... 0 | -1], 0 = -1, read off the same
      elimination with one square solve over the rows it chose
      (`combination`); no LP;
    - a `candidate` point of h becomes the origin, with no LP;
    - otherwise `LpContext.decide` decides h from the solution x0 of the
      equality rows, and gives the context at the point it finds.
    """
    rows = [[*e, f] for e, f in h.eqs]
    reduced = echelon(rows)
    ctx = LpContext.eliminated(h, reduced)
    if ctx is None:
        dim = h.dim
        chosen, kept = reduced
        target = [0] * dim + [-1]
        nums, den = combination(rows, target, (chosen, [col for col, _ in kept]))
        certificate = tuple([ZERO] * len(h.ineqs) + [Fraction(v, den) for v in nums])
        _check_farkas(dim, h.ineqs, h.eqs, certificate)
        return None, certificate
    if candidate is not None:
        moved = ctx.moved(*candidate)
        if moved is not None:
            return moved, None
    return ctx.decide()


def _unit_bound(zrow):
    """k when the reduced row reads -c z_k <= 0 with c > 0, else None."""
    coeffs, slack = zrow
    support = [k for k, v in enumerate(coeffs) if v]
    if slack or len(support) != 1 or coeffs[support[0]] > 0:
        return None
    return support[0]


def _check_farkas(dim, ineqs, eqs, certificate):
    """`exactq._check_infeasible` with every variable free, on the integer
    rows the certificate weights: inequality rows (a, b) read a.x <= b,
    then equality rows (e, f)."""
    rows = chain(((a, LE, b) for a, b in ineqs), ((e, EQ, f) for e, f in eqs))
    weighted = []
    mults = []
    for (a, sense, b), cm in zip(rows, certificate):
        if cm:
            weighted.append(([*a, b], sense, 1))
            mults.append(cm)
    _check_infeasible(weighted, (False,) * dim, mults)


def _row_at(a, xnums):
    """a . xnums for an integer row a and the numerators of a point."""
    return sum(map(mul, a, xnums))


def _decide_empty(p: Polytope, candidate=None):
    """Decide whether p is empty with `_feasible_point` on its H-rep and
    keep what it proves: for a nonempty p its LP context, whose origin is
    `candidate` (nums, den) when that is a point of p. Returns the
    certificate when p is empty, else None."""
    p._context, certificate = _feasible_point(p.hrep, candidate)
    p._empty = p._context is None
    return certificate


# ---------------------------------------------------------------------------
# LP contexts: every LP over one feasible system in affine-hull coordinates

def _lp_context(p: Polytope):
    """p's LP context, built on first use; None when p is empty.

    Its origin is the first generator when p has them, else the point
    `_feasible_point` finds as it decides `is_empty`.
    """
    if p._context is None and not p._empty:
        _decide_empty(p, (p._xs[0], p._den) if p._xs else None)
    return p._context


class LpContext:
    """One feasible H-rep, set up once for every LP over it.

    The equality rows E x = e leave the affine hull origin + N z, where
    `origin` is a point of the set and the columns of N (`basis`) are the
    integer nullspace of E that `solve_rows` gives. Everything is held
    in integers over the origin's denominator `oden` (origin = onums /
    oden): each inequality row a.x <= b becomes the row (a.N) z <= s /
    oden over free z, kept as (a.N, s) with s = b * oden - a.onums; s >=
    0 because the origin is feasible, so the kernel starts every LP from
    the slack basis, with no artificials and no phase 1. Moving the
    origin (`moved`) re-reads only s. A row with a.N = 0 is constant on
    the hull and takes no part.

    `decide` is the one feasibility decision: whether the system has a
    point. It runs on the context `eliminated` returns before any point
    is known, whose origin may violate rows.

    The kernel gets each reduced row as the integers [(a.N) oden | s]
    over oden, the rational row it always saw. Its answer z is mapped
    back to x = origin + N z as integer numerators over one denominator
    and checked once, against the H-rep's own inequality rows, each
    value a.x an integer dot product (`_row_at`; `decide` checks its
    point as `moved` re-reads the slacks). That check implies the one in
    z: in integers, a.(origin + N z) <= b is the same inequality
    as (a.N) z <= b - a.origin. The H-rep's equality rows need no check
    per answer: E origin = e is checked in integers at every origin (by
    `eliminated` for the first, by `moved` for each later one), and
    E N = 0 once, by `eliminated`, from which every context descends
    (`moved` keeps N), so E x = e + (E N) z = e for every z the kernel
    returns. An infeasibility certificate y on the reduced rows gives
    multipliers on the original rows once the part of y.A in the row
    space of E is written as w.E (`_eq_part`: one square solve over the
    rows the context's own elimination chose, `exactq.combination`, or a
    product with the columns `joint._FilterHull` gives a deletion
    filter's context); the certificate is then (y, -w), checked in
    integers on those rows.
    """

    __slots__ = ("dim", "_origin", "onums", "oden", "basis", "ineqs", "zrows",
                 "live", "eqs", "eq_columns", "pivots")

    def __init__(self, dim, onums, oden, basis, ineqs, eqs, zrows=None,
                 eq_columns=None):
        """The context at the origin onums / oden, a solution of the
        equality rows `eqs`, every inequality row of `ineqs` reduced there,
        unless the caller has each row's (a.N, s) as `zrows`.
        `eq_columns` is None or what `_eq_part` reads w off."""
        self.dim = dim
        self._origin = None
        self.onums, self.oden = onums, oden
        self.basis = basis
        self.ineqs = ineqs  # the H-rep's rows (a, b): a.x <= b
        self.eqs = eqs  # the H-rep's rows (e, f): e.x = f
        # per row, (a.N, s): (a.N) z <= s / oden
        if zrows is None:
            zrows = [(self._reduce(a), b * oden - _row_at(a, onums)) for a, b in ineqs]
        self.zrows = zrows
        self.live = [any(coeffs) for coeffs, _ in zrows]  # a.N != 0
        self.eq_columns = eq_columns
        self.pivots = None  # the rows `eliminated` chose, and their pivot columns

    @classmethod
    def eliminated(cls, hrep: HRep, reduced=None):
        """The system's equality rows solved once: the context at the
        solution x0 `solve_rows` gives, on its nullspace, every inequality
        row reduced at x0. A row x0 violates keeps its negative slack, so
        `maximize` may run here only when every slack is >= 0; `decide`
        takes the context as it is. None when the equality rows are inconsistent.
        `reduced` is the `echelon` of the full rows [e | f] when the
        caller has it; the context keeps the rows it chose and their pivot
        columns for `_eq_part`. E x0 = e and E N = 0 are checked here, in
        integers, once for every context that descends from this one."""
        dim = hrep.dim
        rows = [[*e, f] for e, f in hrep.eqs]
        reduced = reduced or echelon(rows)
        solved = solve_rows(rows, dim, reduced)
        if solved is None:
            return None
        (onums, oden), basis, columns = solved
        ctx = cls(dim, onums, oden, basis, hrep.ineqs, hrep.eqs)
        ctx.pivots = reduced[0], columns
        # a basis vector is nonzero only at its free column and the pivots
        supports = [[(j, v) for j, v in enumerate(vec) if v] for vec in basis]
        for e, f in hrep.eqs:
            if _row_at(e, onums) != f * oden or any(
                sum(e[j] * v for j, v in support) for support in supports
            ):
                raise RuntimeError("equality rows' solution violates them")
        return ctx

    def _replace(self, **fields):
        """A copy with some fields replaced."""
        out = object.__new__(LpContext)
        for name in LpContext.__slots__:
            setattr(out, name, fields[name] if name in fields else getattr(self, name))
        return out

    def moved(self, onums, oden):
        """The same context with its origin at the point onums / oden
        (integers, oden > 0), each row's slack re-read there in integers;
        None when that point violates a row."""
        if any(_row_at(e, onums) != f * oden for e, f in self.eqs):
            return None
        zrows = []
        for (coeffs, _), (a, b) in zip(self.zrows, self.ineqs):
            slack = b * oden - _row_at(a, onums)
            if slack < 0:
                return None
            zrows.append((coeffs, slack))
        return self._replace(_origin=None, onums=onums, oden=oden, zrows=zrows)

    @property
    def origin(self) -> tuple:
        """The origin as Fractions, built on first read."""
        if self._origin is None:
            self._origin = tuple([Fraction(v, self.oden) for v in self.onums])
        return self._origin

    def _reduce(self, a):
        """a.N for the integer row a, an int tuple."""
        support = [(j, v) for j, v in enumerate(a) if v]
        return tuple(sum(v * vec[j] for j, v in support) for vec in self.basis)

    def maximize(self, f):
        """Exact max of f.x over the system. Returns (status, value,
        argmax).

        The LP runs on f times the lcm of its denominators, which moves
        no pivot; the value is read off the argmax in integers."""
        fnums, fden = _integer_row(f)
        fz = self._reduce(fnums)
        oden = self.oden
        if not any(fz):
            return "optimal", Fraction(_row_at(fnums, self.onums), fden * oden), self.origin
        rows = tuple(
            ([*(v * oden for v in coeffs), slack], LE, oden)
            for (coeffs, slack), live in zip(self.zrows, self.live) if live
        )
        outcome = lp_solve(IntLp("max", fz, rows, (False,) * len(fz)))
        if outcome.status == "infeasible":
            raise RuntimeError("LP over a feasible context reported infeasible")
        if outcome.status != "optimal":
            return outcome.status, None, None
        xnums, xden = self._point(*_integer_row(outcome.solution))
        self._check_point(xnums, xden)
        value = Fraction(_row_at(fnums, xnums), fden * xden)
        return "optimal", value, tuple(Fraction(v, xden) for v in xnums)

    def decide(self):
        """Whether the system has a point. Returns (context, None), the
        context moved to a point, or (None, certificate): Farkas
        multipliers on the inequality rows and then the equality rows,
        checked in integers against all of them with every variable free.

        The origin may violate inequality rows, as `eliminated` leaves
        it. Then:
        - a violated row that is constant on the hull (a.N = 0, negative
          slack) is the certificate; no LP;
        - an origin that satisfies every row is the point; no LP;
        - otherwise one LP runs over the d columns z. A reduced row
          -c z_k <= 0 (c > 0), as a row x_j >= 0 on a free column of the
          equality rows reduces where the origin has x_j = 0, enters as
          the bound z_k >= 0, so it adds no row and z_k is not split.
          Its point, mapped back and reduced by its gcd, is checked
          once, by `moved` (RuntimeError when it fails a row). Its
          certificate y gives the first bound row of each bounded z_k
          the combined row's entry there (>= 0) over c.
        A certificate y on the reduced rows becomes (y, -w), with
        w.E = y.A the part on the equality rows (`_eq_part`).
        """
        zrows, oden = self.zrows, self.oden
        n = len(zrows)
        y = [ZERO] * n
        bad = next(
            (i for i, (_, slack) in enumerate(zrows) if slack < 0 and not self.live[i]),
            None,
        )
        if bad is not None:
            y[bad] = Fraction(-oden, zrows[bad][1])
        elif all(slack >= 0 for _, slack in zrows):
            return self, None
        else:
            d = len(self.basis)
            bound_at = {}  # bounded direction -> its first row -c z_k <= 0
            live = []
            for i in (i for i, flag in enumerate(self.live) if flag):
                k = _unit_bound(zrows[i])
                if k is None:
                    live.append(i)
                else:
                    bound_at.setdefault(k, i)
            rows = tuple(([*(v * oden for v in zrows[i][0]), zrows[i][1]], LE, oden)
                         for i in live)
            outcome = lp_solve(IntLp(
                "min", (0,) * d, rows, tuple(k in bound_at for k in range(d)),
            ))
            if outcome.status == "optimal":
                xnums, xden = self._point(*_integer_row(outcome.solution))
                g = gcd(xden, *xnums)
                moved = self.moved([v // g for v in xnums], xden // g)
                if moved is None:
                    raise RuntimeError("reported solution violates a constraint")
                return moved, None
            for i, cm in zip(live, outcome.certificate):
                y[i] = cm
            # the combined row is >= 0 at a bounded z_k; its first bound
            # row takes the weight that clears it
            for k, i in bound_at.items():
                combined = sum((y[r] * zrows[r][0][k] for r in live if y[r]), ZERO)
                y[i] = combined / -zrows[i][0][k]
        certificate = (*y, *self._eq_part(y))
        _check_farkas(self.dim, self.ineqs, self.eqs, certificate)
        return None, certificate

    def _point(self, znums, zden):
        """x = origin + N z for z = znums / zden, as integer numerators
        over oden * zden."""
        oden = self.oden
        x = [v * zden for v in self.onums]
        for zk, vec in zip(znums, self.basis):
            if zk:
                zk *= oden
                x = [xj + zk * v for xj, v in zip(x, vec)]
        return x, oden * zden

    def _check_point(self, xnums, xden):
        """Check `maximize`'s point xnums / xden against the inequality
        rows, in integers; the H-rep's equality rows hold at every origin +
        N z (see the class). Each row is summed over the point's nonzero
        entries: an LP's point is a vertex, with few of them."""
        support = [(j, v) for j, v in enumerate(xnums) if v]
        for a, b in self.ineqs:
            if sum(a[j] * v for j, v in support) > b * xden:
                raise RuntimeError("reported solution violates a constraint")

    def _eq_part(self, mults):
        """The equality rows' part -w of a certificate whose multipliers
        `mults` on the inequality rows leave a combination u = sum cm * a
        that vanishes on the hull directions N, so that u = w.E.

        u is summed in integers, over the lcm of the multipliers'
        denominators, and w.E = u is solved over one denominator (a u
        outside E's row space leaves the certificate check to fail):
        Fractions are made only for the returned multipliers. Without
        `eq_columns`, `exactq.combination` solves it with one square solve
        over the rows, and at the pivot columns, that `eliminated`'s
        echelon of [E | f] chose: the equality rows are consistent, so
        each full row is independent of the rows before it exactly when
        its row of E is, and its first nonzero entry after reduction lies
        in E's part, so `echelon` of E alone would choose the same rows
        and pivot columns. A deletion filter's context
        (`joint._FilterHull`) has, for each equality row, an integer
        column c over the dim + 1 coordinates of [e | f] or None, and a
        denominator den: w_j = (oden u, u.onums).c_j / (den oden), 0 for
        None."""
        weighted = [(cm, a) for cm, (a, _) in zip(mults, self.ineqs) if cm]
        uden = lcm(*(cm.denominator for cm, _ in weighted))
        unums = [0] * self.dim
        for cm, a in weighted:
            k = cm.numerator * (uden // cm.denominator)
            unums = [s + k * v for s, v in zip(unums, a)]
        if self.eq_columns is None:
            wnums, wden = combination([e for e, _ in self.eqs], unums, self.pivots)
        else:
            columns, cden = self.eq_columns
            oden = self.oden
            uh = [*(oden * v for v in unums), _row_at(unums, self.onums)]
            wnums = [0 if c is None else _row_at(c, uh) for c in columns]
            wden = cden * oden
        wden *= uden
        return [Fraction(-v, wden) if v else ZERO for v in wnums]


# ---------------------------------------------------------------------------
# double description on homogenization cones

def _extreme_rays(rows, dim, stage):
    """Extreme rays of the pointed cone {z : r.z <= 0 for r in rows}.

    `rows` are integer tuples, inserted in their order. Raises
    UnboundedError when the cone has a lineality space (rank below dim),
    and ResourceCapError, naming `stage`, when more than RAY_CAP rays are
    held at once. Returns the primitive integer rays and, for each, the
    bitmask of the rows it is tight on (bit i for rows[i]): the zero
    masks the adjacency test keeps.
    """
    init = echelon(rows)[0]
    if len(init) < dim:
        raise UnboundedError("cone is not pointed")
    rays = _initial_rays([rows[i] for i in init])
    if len(rays) > RAY_CAP:
        raise _over_cap(stage, rows, dim)
    # zero set bit i <-> rows[i]; ray j is tight on every initial row
    # except the j-th
    full = sum(1 << i for i in init)
    zmask = [full & ~(1 << i) for i in init]

    taken = set(init)
    for r in (r for r in range(len(rows)) if r not in taken):
        row = rows[r]
        bit = 1 << r
        vals = [sum(a * b for a, b in zip(row, ray)) for ray in rays]
        keep_rays = []
        keep_mask = []
        pos = []
        neg = []
        for i, s in enumerate(vals):
            if s > 0:
                pos.append(i)
            else:
                if s == 0:
                    keep_rays.append(rays[i])
                    keep_mask.append(zmask[i] | bit)
                else:
                    keep_rays.append(rays[i])
                    keep_mask.append(zmask[i])
                if s < 0:
                    neg.append(i)
        new_rays = []
        new_mask = []
        for ip in pos:
            for im in neg:
                zpn = zmask[ip] & zmask[im]
                adjacent = True
                for k in range(len(rays)):
                    if k != ip and k != im and (zmask[k] & zpn) == zpn:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                sp, sn = vals[ip], vals[im]
                combo = [
                    (-sn) * a + sp * b for a, b in zip(rays[ip], rays[im])
                ]
                new_rays.append(tuple(_content_free(combo)))
                new_mask.append(zpn | bit)
                if len(keep_rays) + len(new_rays) > RAY_CAP:
                    raise _over_cap(stage, rows, dim)
        rays = keep_rays + new_rays
        zmask = keep_mask + new_mask
    return rays, zmask


def _over_cap(stage, rows, dim):
    """The error of a double description that holds more than RAY_CAP
    rays, naming its stage and its cone."""
    return ResourceCapError(
        f"{stage}: the double description holds more than {RAY_CAP} rays "
        f"({len(rows)} rows in dimension {dim})"
    )


def _initial_rays(m):
    """The columns of -M^-1 for a nonsingular square integer matrix M,
    each as a primitive integer tuple: ray j is 0 on every row of M but
    the j-th, and negative on that one.

    The echelon rows of [M | I] are the rows of [I | M^-1], each scaled
    by its positive pivot entry p_c; scaling row c by lcm / p_c makes
    them share one positive factor, which leaves every ray's primitive
    form unchanged.
    """
    n = len(m)
    kept = sorted(echelon([
        [*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)
    ])[1])
    den = lcm(*[red[col] for col, red in kept])
    return [
        tuple(_content_free([-red[n + j] * (den // red[col]) for col, red in kept]))
        for j in range(n)
    ]


def _points_from_hrep(hrep: HRep, context=None, order=None):
    """Vertices of a bounded H-rep polytope as (xs, den): sorted int
    tuples over their least common denominator; ((), 1) when empty.

    In the coordinates x = x0 + N u of an LP context of hrep (`context`,
    else the one `LpContext.eliminated` gives), a constant row with
    negative slack leaves the set empty, each other row gives the cone
    row [a.N | -slack], and each extreme ray (u, t) of the cone the
    vertex x0 + N u / t. The double description inserts the inequality
    rows in `order` (default: row order), then t >= 0; the vertices do
    not depend on it, its running time does.

    Each vertex is checked in integers against every row of hrep, and
    one outside the set raises RuntimeError. That check proves the
    output valid, not complete: a vertex the double description missed
    would pass it (Mehlhorn et al., "Checking geometric programs or
    verification of geometric structures", Comput. Geom. 12, 1999)."""
    ctx = LpContext.eliminated(hrep) if context is None else context
    if ctx is None:
        return (), 1
    cone_rows = []
    oden = ctx.oden
    for i in range(len(ctx.zrows)) if order is None else order:
        coeffs, slack = ctx.zrows[i]
        if ctx.live[i]:
            cone_rows.append(tuple(_content_free([*(v * oden for v in coeffs), -slack])))
        elif slack < 0:
            return (), 1
    d = len(ctx.basis)
    if d == 0:
        return (tuple(ctx.onums),), ctx.oden
    cone_rows.append((0,) * d + (-1,))
    try:
        rays, _ = _extreme_rays(cone_rows, d + 1, "vertex enumeration")
    except UnboundedError:
        # rank deficiency also occurs for some empty systems: decide by LP
        if _feasible_point(hrep)[0] is None:
            return (), 1
        raise
    verts = set()  # each vertex in lowest terms, (nums, den)
    for ray in rays:
        t = ray[d]
        if t == 0:
            raise UnboundedError("H-representation describes an unbounded set")
        xnums, xden = ctx._point(ray[:d], t)
        g = gcd(xden, *xnums)
        verts.add((tuple([v // g for v in xnums]), xden // g))
    den = lcm(*[xden for _, xden in verts])
    xs = tuple(sorted(
        tuple([v * (den // xden) for v in xnums]) for xnums, xden in verts
    ))
    _tight_sets(hrep.ineqs, hrep.eqs, xs, den)
    return xs, den


def _hrep_from_points(xs, den, dim):
    """The hull of finitely many points, which may repeat and need not be
    vertices: (its irredundant H-rep, its vertices, sorted).

    The points are int tuples xs over one positive common denominator
    den, and so are the vertices; everything runs in integers. The
    affine hull is v0 + the span of the differences from v0, the
    least point; its equality rows are w.x = w.v0, one per integer
    nullspace vector w of the differences (`solve_rows`). In the
    coordinates u = (x - v0) at the pivot columns of the differences (r
    of them, the affine dimension),
    each extreme ray y of the cone {y : y.(u, 1) <= 0 at every point}
    (double description) is a facet row, and its zero mask names the
    points on that facet. A point p is a vertex iff the facets through
    it meet in p alone, that is, iff no other point lies on every facet
    through p: a vertex is the intersection of its facets, and any other
    point lies in the relative interior of a face whose vertices, also
    among the points, lie on every facet through it. Rows come out in the
    canonical form `HRep.make` gives: inequality rows in the order of
    (coeffs, coeffs.v0 - y_t), equality rows in the order of the w / w_F
    when r > 0 (w_F > 0 at w's free column F), read off the w scaled to
    the lcm of the w_F.
    """
    if not xs:
        return HRep(dim, (((0,) * dim, -1),), ()), ()
    xs = sorted(set(xs))
    x0 = xs[0]
    diffs = [[a - b for a, b in zip(x, x0)] + [0] for x in xs]
    _, null, pivots = solve_rows(diffs, dim)
    r = len(pivots)
    if r:
        taken = set(pivots)
        heads = [w[j] for w, j in zip(null, (j for j in range(dim) if j not in taken))]
        m = lcm(*heads)
        null = [w for _, w in sorted(([v * (m // h) for v in w], w)
                                     for w, h in zip(null, heads))]
    eqs = []
    for w in null:
        if next(v for v in w if v) < 0:
            w = [-v for v in w]
        eqs.append(_row_over(w, _row_at(w, x0), den))
    if r == 0:
        return HRep(dim, (), tuple(eqs)), (x0,)
    gens = [_content_free([*(x[k] - x0[k] for k in pivots), den]) for x in xs]
    facets, tight = _extreme_rays(gens, r + 1, "facet enumeration")
    keyed = []  # (coeffs, den * (coeffs.v0 - y_t))
    for y in facets:
        coeffs = [0] * dim
        for k, pk in enumerate(pivots):
            coeffs[pk] = y[k]
        keyed.append((tuple(coeffs), _row_at(coeffs, x0) - y[r] * den))
    ineqs = tuple(_row_over(a, b, den) for a, b in sorted(keyed))
    verts = []
    for i, x in enumerate(xs):
        # the points on every facet through x are x alone
        bit = 1 << i
        common = -1
        for mask in tight:
            if mask & bit:
                common &= mask
        if common == bit:
            verts.append(x)
    return HRep(dim, ineqs, tuple(eqs)), tuple(verts)


def _row_over(a, b, den):
    """The primitive integer row of a.x <= b / den (or =)."""
    nums = _content_free([*(c * den for c in a), b])
    return tuple(nums[:-1]), nums[-1]


# ---------------------------------------------------------------------------
# public operations

def dd_convert(p: Polytope) -> Polytope:
    """Both representations, canonical: extreme points, irredundant rows,
    from `_hrep_from_points` on p's generators (for an H-rep set, its
    vertices), over p's denominator. The result is cached on p, so each
    set is converted once."""
    if p._canonical:
        return p
    if p._converted is None:
        xs = p.xs
        hrep, verts = _hrep_from_points(xs, p._den, p.dim)
        p._converted = Polytope(p.dim, hrep=hrep, xs=verts, den=p._den, canonical=True)
    return p._converted


def _rows_of(p: Polytope) -> HRep:
    """p's own rows or, for a set given by generators, its canonical
    form's (`dd_convert`): the rows `contains_point` substitutes into
    and `separate` reads."""
    return p._hrep if p._hrep is not None else dd_convert(p).hrep


def _holds_at(h: HRep, xnums, xden) -> bool:
    """Whether every row of h holds at the point xnums / xden."""
    return all(_row_at(a, xnums) <= b * xden for a, b in h.ineqs) and all(
        _row_at(e, xnums) == f * xden for e, f in h.eqs
    )


def contains_point(p: Polytope, x) -> bool:
    """Exact membership with no LP: the rational point x, over one common
    denominator, put into p's integer rows (`_rows_of`)."""
    x = qvec(x)
    if len(x) != p.dim:
        raise DimensionError("point dimension differs from polytope")
    return _holds_at(_rows_of(p), *_integer_row(x))


def separate(p: Polytope, x) -> SeparationCertificate:
    """A functional g and a gap > 0 with g.x - g.v >= gap for every v in
    p, read off a row of p that x violates; no LP for a set given by
    generators.

    The rows are p's own or, for a set given by generators, those of its
    canonical form (`dd_convert`), which `contains_point` substitutes
    into. The first inequality row a.v <= b that x violates gives g = a
    and gap = a.x - sup of a over p (`_sup`: the best generator, or an LP
    over an H-rep set). That sup is at most b < a.x, so a gap <= 0 raises
    RuntimeError. When x violates no inequality row, the first equality
    row it misses gives g, signed so that g.x > g.v for every v in p. A
    point that violates no row lies in p and raises NotSeparableError."""
    x = qvec(x)
    if p.is_empty():
        raise NotSeparableError("cannot separate from an empty set")
    h = _rows_of(p)
    for a, b in h.ineqs:
        val = dot(a, x)
        if val > b:
            gap = val - _sup(p, a)
            if gap <= 0:
                raise RuntimeError("violated row does not separate")
            return SeparationCertificate(a, gap, x)
    for e, f in h.eqs:
        val = dot(e, x)
        if val != f:
            g = e if val > f else tuple(-c for c in e)
            return SeparationCertificate(g, abs(val - f), x)
    raise NotSeparableError("point belongs to the set")


def is_subset(p: Polytope, q: Polytope):
    """Whether p is contained in q; on failure also a certificate.

    Returns (holds, certificate). The certificate separates some point
    of p from q; it is None when q is empty (no functional can have a
    finite supremum over the empty set).

    A p given by generators is tested point by point, in integers, on
    q's rows (`_rows_of`). Otherwise every row
    of q, an equality row read both ways (`HRep.as_ineqs`), is maximized
    over p, except a row p already carries: a row (a, b) holds with no
    LP when p has an inequality row (a, b') with b' <= b, and an equality
    row in the span of p's equality rows is constant on p, so its two
    LPs are free. The first failing row, and so the certificate, is the
    one every row's LP would find.
    """
    if p.dim != q.dim:
        raise DimensionError("dimension mismatch")
    if p.is_empty():
        return True, None
    if q.is_empty():
        return False, None
    if p._xs is not None:
        h, den = _rows_of(q), p._den
        for x in p._xs:
            if not _holds_at(h, x, den):
                return False, separate(q, [Fraction(v, den) for v in x])
        return True, None
    # facet route: maximize every row of q over p that p does not carry
    carried = {}
    for a, b in p._hrep.ineqs:
        if a not in carried or b < carried[a]:
            carried[a] = b
    for a, b in q.hrep.as_ineqs():
        if a in carried and carried[a] <= b:
            continue
        status, val, arg = _maximize(p, a)
        if status != "optimal":
            raise UnboundedError("containment query over an unbounded set")
        if val > b:
            return False, SeparationCertificate(a, val - _sup(q, a), arg)
    return True, None


def _sup(q: Polytope, f) -> Fraction:
    """The max of f.x over the nonempty q: at its best generator, summed
    in integers, or by an LP over an H-rep set."""
    if q._xs is not None:
        fnums, fden = _integer_row(f)
        return Fraction(max(_row_at(fnums, x) for x in q._xs), fden * q._den)
    status, val, _ = _maximize(q, f)
    if status != "optimal":
        raise RuntimeError(f"supremum LP ended {status}")
    return val


def linear_image(idx, p: Polytope, size: int) -> Polytope:
    """Image of p under a coordinate map (an index map onto `size` cells):
    the vertices among the pushed generators, with the rows of their hull
    cached as its canonical form. The generators' numerators are pushed
    as they are, over p's denominator, which the image keeps. The image
    carries no H-rep itself, so a bound over it (`credal._upper`) is read
    off its generators."""
    if len(idx) != p.dim:
        raise DimensionError(f"map has {len(idx)} source cells, polytope dim {p.dim}")
    xs = p.xs
    den = p._den
    hrep, verts = _hrep_from_points([push(idx, x, size) for x in xs], den, size)
    image = Polytope(size, xs=verts, den=den)
    image._converted = Polytope(size, hrep=hrep, xs=verts, den=den, canonical=True)
    return image


def remove_redundant_ineqs(dim, ineqs, eqs, xs, den):
    """Indices of the irredundant inequality rows of a nonempty system,
    read off the vertices of its set P with no LP.

    The rows are those of the drop-one-row filter, which takes the rows
    in order and drops one when the rows still kept without it describe
    P. Let d be the affine rank of the vertices, and P(S) the set cut
    out by the equality rows and the inequality rows S. P(S) is P iff
    (a) P(S) stays in P's affine hull and (b) within that hull each
    facet of P has a row in S. Only the rows tight at every vertex
    (implicit equalities) bear on (a), and only the facet rows, tight at
    vertices of affine rank d - 1, on (b). So the filter keeps the last
    row of each facet (`_facet_rows`), the implicit equality rows
    `_hull_rows` keeps, and no other row.

    xs are P's vertices (any finite set whose hull is P will do), int
    tuples over the common denominator den, tested against the rows in
    integers; a point that violates a row raises RuntimeError.
    """
    tight = _tight_sets(ineqs, eqs, xs, den)
    d = _affine_rank(xs)
    everywhere = [i for i, s in enumerate(tight) if len(s) == len(xs)]
    return sorted(
        _facet_rows(tight, xs, d) + _hull_rows(dim, ineqs, eqs, xs, everywhere)
    )


def _row_values(rows, xs):
    """For each row (a, b) of `rows`, the list of a.x over the integer
    points xs; each sum runs over the point's nonzero entries, few for
    the vertices of a joint set."""
    supports = [[(j, v) for j, v in enumerate(x) if v] for x in xs]
    for a, _ in rows:
        yield [sum(a[j] * v for j, v in support) for support in supports]


def _tight_sets(ineqs, eqs, xs, den):
    """For each inequality row, the set of the points xs (integers over
    den) where it is tight; RuntimeError when a point violates a row."""
    for (_, f), vals in zip(eqs, _row_values(eqs, xs)):
        if any(val != f * den for val in vals):
            raise RuntimeError("a vertex violates an equality row")
    tight = []
    for (_, b), vals in zip(ineqs, _row_values(ineqs, xs)):
        bound = b * den
        if any(val > bound for val in vals):
            raise RuntimeError("a vertex violates an inequality row")
        tight.append(frozenset(k for k, val in enumerate(vals) if val == bound))
    return tight


def _facet_rows(tight, xs, d):
    """The facet rows the filter keeps: of the rows tight at the same set
    of the points xs (`tight`, one set per row), which cut out the same
    face, the last in row order, when that set has affine rank d - 1.
    The affine rank of each distinct tight set is computed once; a row
    tight at no point is never kept."""
    last = {s: i for i, s in enumerate(tight) if s}
    return [i for s, i in last.items() if _affine_rank([xs[k] for k in s]) == d - 1]


def _hull_rows(dim, ineqs, eqs, xs, rows):
    """The rows of `rows`, each tight at every point of xs, that the
    filter keeps: walking them in row order, one is dropped iff the rows
    still kept without it leave the cone
        {u : E u = 0, (x - x0).u = 0 for every x in xs, a_j.u <= 0}
    equal to {0}. Those u are the directions, normal to P's affine hull,
    in which the kept rows let P(S) leave it from a relative interior
    point, where every other row is slack.

    The rank check comes first: when the rows of E and the differences
    x - x0 reach rank dim, the u are 0 alone and every row is dropped.
    `echelon` stops at that rank, and it takes E's rows last first,
    since the joint build appends the rows that pin P's affine hull on
    a consistent family last. Otherwise a basis B of the u (the integer
    nullspace of the echelon rows, `solve_rows`) writes the cone as
    {w : (a_j B) w <= 0}, and the double description decides it: a
    lineality space (UnboundedError) or any extreme ray means it is not
    {0}. No LP runs.
    """
    if not rows:
        return []
    x0 = xs[0]
    diffs = [[a - b for a, b in zip(x, x0)] for x in xs[1:]]
    chosen, kept = echelon([*diffs, *(e for e, _ in reversed(eqs))])
    if len(chosen) == dim:
        return []
    basis = solve_rows([[*red, 0] for _, red in kept], dim)[1]
    cone = {i: tuple(_row_at(ineqs[i][0], w) for w in basis) for i in rows}
    alive = list(rows)
    for i in rows:
        rest = [cone[j] for j in alive if j != i]
        try:
            rays, _ = _extreme_rays(rest, len(basis), "implicit-equality cone")
        except UnboundedError:
            continue
        if not rays:
            alive.remove(i)
    return alive


def _affine_rank(xs):
    """Dimension of the affine hull of the nonempty integer points xs."""
    x0 = xs[0]
    return len(echelon([[a - b for a, b in zip(x, x0)] for x in xs[1:]])[0])


def _hull_order(h: HRep, xs, den):
    """(order, fits) for an H-rep whose set lies in the hull of the
    points xs, int tuples over the common denominator den, tested in
    integers.

    `fits` says, per point, whether every row of h, equality rows
    included, holds there; when all do, the set is their hull. `order`
    lists the inequality rows for the double description on h: first
    those that hold at every point, those tight at more of them first,
    then those some point violates, each group in row order."""
    fits = [True] * len(xs)
    for (_, f), vals in zip(h.eqs, _row_values(h.eqs, xs)):
        for k, val in enumerate(vals):
            fits[k] = fits[k] and val == f * den
    keys = []
    for i, ((_, b), vals) in enumerate(zip(h.ineqs, _row_values(h.ineqs, xs))):
        bound = b * den
        for k, val in enumerate(vals):
            fits[k] = fits[k] and val <= bound
        keys.append((any(val > bound for val in vals), -vals.count(bound), i))
    return [i for *_, i in sorted(keys)], fits
