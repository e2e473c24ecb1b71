"""Exact rational arithmetic, linear algebra, and linear programming.

Everything in this package funnels through here: rationals are
`fractions.Fraction` (always canonical: positive denominator, reduced),
`echelon` is the one (fraction-free, integer) Gaussian elimination, and
`lp_solve` is an exact two-phase simplex that returns either an optimal
point, an unbounded flag, or a Farkas-style infeasibility certificate
that can be re-verified by direct substitution. There are no tolerances
anywhere; every comparison is exact. The elimination answers in
integers: `solve_rows` gives a system's solution as numerators over one
denominator and its nullspace as primitive integer vectors, and
`combination` writes a target in the span of some rows as integer
weights of them over one denominator; that is how an LP solved in
affine-hull coordinates (`polytope.LpContext`) maps its infeasibility
certificate back onto the equality rows it eliminated. `right_inverse`
inverts independent rows at columns where they are nonsingular, which
the deletion filter of an empty joint set (`joint._FilterHull`) reads
every step's affine hull off.

A system's rows are int tuples with int rhs (`polytope.HRep`);
Fractions remain at the edges: parsed input, points, LP values and
certificates. `lp_solve` takes an LP in one form, an `IntLp`, whose rows
are already integers, each [a | b] over one positive denominator. An
equality row whose full row depends on the equality rows before it is
dropped: it holds wherever they do, and an inconsistent row is
independent, so the kernel still proves infeasibility. The kernel's
columns (free variables split, slacks, sign flips) are built from the
kept rows, and a point whose columns are missing or negative is
refused. Otherwise the point or certificate is handed back unchecked
(a certificate is 0 on the dropped rows): every caller checks it once,
in integers, in its own coordinates. An LP context
(`polytope.LpContext`) maps the answer back to x and checks it against
the rows the reduced rows came from; the diagnosis of an empty joint
set (`joint._diagnose`) checks its last certificate on the rows it
handed over (`_check_infeasible`).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from credalkit import _backend

ZERO = Fraction(0)
ONE = Fraction(1)

LE = "<="
EQ = "="
GE = ">="


class DimensionError(ValueError):
    """Structurally malformed input (mismatched dimensions, bad senses)."""


class RationalParseError(ValueError):
    """Text does not match the rational grammar."""


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    """Parse the text form: optional sign, integer, optional "/" positive int.

    Accepts "2", "-3/7", "+1/12", with surrounding whitespace. Rejects
    floats, exponents, zero denominators (also "1/00") and a numerator
    or denominator longer than the interpreter's integer-string limit
    (`sys.get_int_max_str_digits`, 4,300 digits by default). Each value
    is converted once: the Fraction is built from the integers of the
    grammar's own match.
    """
    if not isinstance(text, str):
        raise RationalParseError(f"expected a rational string, got {text!r}")
    match = _RATIONAL_RE.fullmatch(text.strip())
    if not match:
        raise RationalParseError(f"not a rational: {text!r}")
    num, den = match.groups()
    try:
        num = int(num)
        den = 1 if den is None else int(den)
    except ValueError:  # int's limit on the digits of a string
        raise RationalParseError(
            "numerator or denominator has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if den == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value) -> str:
    """The grammar's text of an int or a Fraction: its `str`."""
    return str(value)


def qvec(values) -> tuple:
    """Coerce a sequence to a tuple of Fractions.

    An entry that is a Fraction already is kept as it is, so each value
    is converted once; any other entry (an int, a string, a Fraction
    subclass) is coerced by `Fraction`."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


# ---------------------------------------------------------------------------
# Fraction-free elimination


def echelon(rows):
    """Greedy row echelon form of integer rows of one length.

    Rows are taken in input order; a row is kept when it is not in the
    span of the rows kept before it. Returns (chosen, kept): the indices
    of the kept rows, and for each one its pivot column and its
    primitive reduced row. A reduced row has its pivot at its first
    nonzero entry, positive, and is zero at every other kept row's
    pivot column, so the kept rows are the reduced row echelon form of
    the rows up to row scaling (which does not depend on the field, so
    fraction-free elimination keeps the same rows as Fraction
    elimination would). A new row is reduced only by the kept rows
    whose pivot column it touches.
    """
    kept = []  # (pivot column, primitive reduced row)
    chosen = []
    for idx, row in enumerate(rows):
        vec = row
        for col, red in kept:
            f = vec[col]
            if f:
                p = red[col]
                if p == 1:
                    vec = [v - f * w for v, w in zip(vec, red)]
                else:
                    vec = _content_free([p * v - f * w for v, w in zip(vec, red)])
        piv = next((j for j, v in enumerate(vec) if v), None)
        if piv is None:
            continue
        # clear the new pivot column from the kept rows; with p > 0 and
        # vec 0 at their pivots, every pivot entry stays positive
        vec = _content_free([-v for v in vec] if vec[piv] < 0 else vec)
        p = vec[piv]
        for k, (col, red) in enumerate(kept):
            f = red[piv]
            if f:
                red = _content_free([p * v - f * w for v, w in zip(red, vec)])
                kept[k] = (col, red)
        kept.append((piv, vec))
        chosen.append(idx)
        if len(chosen) == len(vec):
            break
    return chosen, kept


def solve_rows(rows, n, reduced=None):
    """The solution set of the integer rows [a | b], read a.x = b, in n
    variables, in integers. `reduced` is `echelon(rows)` when the caller
    has it.

    Returns None when a pivot lands in the rhs column (the system is
    inconsistent), else ((nums, den), nullspace, pivots). x0 = nums / den
    is the solution that is 0 on every free column, over the least
    common denominator of its entries. Each nullspace vector z, one per
    free column F in column order, is the primitive integer vector that
    is positive at F and 0 at the other free columns: a kept row red
    with pivot c is 0 at every other pivot, so z_F = L and z_c =
    -red[F] L / red[c], L the least common multiple of the red[c] /
    gcd(red[c], red[F]) over the rows with red[F] != 0. `pivots` lists
    the pivot columns of the kept rows in row order. The solutions are
    x0 + span(nullspace).
    """
    kept = (reduced or echelon(rows))[1]
    if any(col == n for col, _ in kept):
        return None
    den = lcm(*[red[col] // gcd(red[col], red[n]) for col, red in kept])
    nums = [0] * n
    for col, red in kept:
        nums[col] = red[n] * den // red[col]
    pivots = [col for col, _ in kept]
    taken = set(pivots)
    nullspace = []
    for free in range(n):
        if free in taken:
            continue
        used = [(col, red) for col, red in kept if red[free]]
        scale = lcm(*[red[col] // gcd(red[col], red[free]) for col, red in used])
        vec = [0] * n
        vec[free] = scale
        for col, red in used:
            vec[col] = -red[free] * scale // red[col]
        nullspace.append(tuple(vec))
    return (tuple(nums), den), tuple(nullspace), pivots


def combination(rows, target, pivots=None):
    """Integer weights (nums, den) of the integer rows that sum to
    `target`: sum_i nums[i] * rows[i] = den * target, den > 0, with
    nums[i] = 0 off the rows `echelon` chooses. `pivots` is (chosen,
    columns), the rows `echelon(rows)` chooses and their pivot columns,
    when the caller has them.

    The chosen rows are independent, so their weights are unique. They
    solve the k x k system of the chosen rows restricted to their pivot
    columns (one `solve_rows`), which is nonsingular: there the reduced
    rows, the chosen rows times an invertible matrix, are diagonal with
    positive entries. A target outside the rows' span gets the weights
    that match it at the pivot columns only, so the weighted sum misses
    it elsewhere and the caller's check fails.
    """
    if pivots is None:
        chosen, kept = echelon(rows)
        pivots = chosen, [col for col, _ in kept]
    chosen, columns = pivots
    system = [[*(rows[i][col] for i in chosen), target[col]] for col in columns]
    (weights, den), _, _ = solve_rows(system, len(chosen))
    nums = [0] * len(rows)
    for i, v in zip(chosen, weights):
        nums[i] = v
    return nums, den


def right_inverse(rows, cols):
    """A right inverse of k independent integer rows, as integer columns
    over one denominator (columns, den), den > 0: rows[i] . columns[j] =
    den when i == j, else 0. The rows restricted to the k columns `cols`
    are a nonsingular matrix M, and every column is nonzero only there.

    One `echelon` of the rows [M | I] keeps each of them and gives each
    a reduced row [D | X] = X [M | I], D positive at the row's pivot q
    and 0 elsewhere, so X M = D: row q of M's inverse is X over D's
    pivot entry. A pivot right of M means M is singular, and raises
    RuntimeError.
    """
    k = len(rows)
    if not k:
        return [], 1
    kept = echelon([[*(row[c] for c in cols), *(int(i == j) for j in range(k))]
                    for i, row in enumerate(rows)])[1]
    if len(kept) < k or any(q >= k for q, _ in kept):
        raise RuntimeError("rows are singular at the chosen columns")
    den = lcm(*[red[q] for q, red in kept])
    columns = [[0] * len(rows[0]) for _ in range(k)]
    for q, red in kept:
        scale = den // red[q]
        for j in range(k):
            columns[j][cols[q]] = red[k + j] * scale
    return columns, den


def _content_free(vec):
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*vec)
    return vec if g <= 1 else [v // g for v in vec]


# ---------------------------------------------------------------------------
# Linear programming


@dataclass(frozen=True)
class IntLp:
    """An LP in integers: min/max objective.x subject to its rows.

    Row i is (nums, sense, den): nums = [a | b] are integers, the row
    a.x (sense) b times den > 0. `objective` holds integers, any positive
    multiple of the objective (which moves no pivot). `nonneg[j]` is True
    when x_j >= 0 and False when x_j is free. The caller builds it from
    rows it already holds in integers and checks the answer in its own
    coordinates.
    """

    direction: str
    objective: tuple
    rows: tuple
    nonneg: tuple


@dataclass(frozen=True)
class LpOutcome:
    """Exact LP outcome.

    status "optimal": `solution` is a point. status "infeasible":
    `certificate` holds one multiplier per row, scaled so that the
    combined rhs is -1, with >= rows read in negated, <= form. status
    "unbounded": flags only. `lp_solve` hands back the kernel's answer
    with no `value` and leaves every other check to its caller: a
    certificate is valid when its multipliers are nonnegative on
    inequality rows and the combined row vanishes on free variables and
    is nonnegative on sign-constrained ones (`_check_infeasible`).
    """

    status: str
    value: Optional[Fraction] = None
    solution: Optional[tuple] = None
    certificate: Optional[tuple] = None


def lp_solve(problem: IntLp) -> LpOutcome:
    """Exact simplex with Bland's rule; deterministic for fixed input.

    The kernel's point (its columns folded back, a free variable as the
    positive minus the negative column) or Farkas multipliers come back
    unchecked. Raises RuntimeError when the point or witness does not
    fit the columns or rows the kernel was given."""
    rows = problem.rows
    n = len(problem.objective)
    split = [not flag for flag in problem.nonneg]
    kept = _kept_rows(rows)

    # Column expansion: sign-constrained variables map to one column,
    # free variables split into a positive and a negative part.
    ncols = n + sum(split)
    slack_cols = sum(1 for i in kept if rows[i][1] != EQ)
    width = ncols + slack_cols
    slack_at = ncols
    arows = []
    dens = []
    sigma = []
    for i in kept:
        nums, sense, den = rows[i]
        row = _expand(nums, split)
        row += [0] * slack_cols
        if sense != EQ:
            row[slack_at] = den if sense == LE else -den
            slack_at += 1
        row.append(nums[n])
        if nums[n] < 0:
            row = [-v for v in row]
            sigma.append(-1)
        else:
            sigma.append(1)
        arows.append(row)
        dens.append(den)

    sign = 1 if problem.direction == "min" else -1
    cvec = [sign * v for v in _expand(problem.objective, split)] + [0] * slack_cols

    status, xcols, y = _backend.simplex_solve(len(arows), width, arows, dens, cvec)

    if status == "unbounded":
        return LpOutcome("unbounded")

    if status == "infeasible":
        if len(y) != len(kept):
            raise RuntimeError("kernel returned a witness of the wrong length")
        # back to one entry per problem row, in the rows' own signs
        dual = [ZERO] * len(rows)
        for i, sg, yi in zip(kept, sigma, y):
            dual[i] = sg * yi
        return LpOutcome("infeasible", certificate=_farkas_from_dual(rows, dual))

    if len(xcols) < ncols:
        raise RuntimeError("kernel returned a point of the wrong length")
    if any(v.numerator < 0 for v in xcols[:ncols]):
        raise RuntimeError("kernel returned a negative sign-constrained column")
    solution = []
    cols = iter(xcols)
    for free in split:
        v = next(cols)
        if free:
            neg = next(cols)
            if neg:
                v -= neg
        solution.append(v)
    return LpOutcome("optimal", solution=tuple(solution))


def _kept_rows(rows):
    """Indices of the rows the kernel sees: every inequality row, and
    each equality row independent of the equality rows kept before it."""
    eqs = [i for i, (_nums, sense, _den) in enumerate(rows) if sense == EQ]
    if not eqs:
        return range(len(rows))
    keep = {eqs[k] for k in echelon([rows[i][0] for i in eqs])[0]}
    return [i for i, (_nums, sense, _den) in enumerate(rows) if sense != EQ or i in keep]


def _integer_row(values):
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _expand(nums, split):
    """The kernel columns of a row: a free variable's negative column
    follows its positive one."""
    if not any(split):
        return nums[: len(split)]
    row = []
    for v, free in zip(nums, split):
        row.append(v)
        if free:
            row.append(-v)
    return row


def _farkas_from_dual(rows, dual):
    """Map the phase-1 dual (one entry per row, in the row's own sign)
    onto per-row multipliers, <= normalized.

    Scaled so the combined rhs is exactly -1.
    """
    mult = [yi if sense == GE else -yi for (_nums, sense, _den), yi in zip(rows, dual)]
    gap = ZERO
    for (nums, sense, den), cm in zip(rows, mult):
        if cm:
            gap += cm * Fraction(-nums[-1] if sense == GE else nums[-1], den)
    if gap >= 0:
        raise RuntimeError("kernel returned an invalid infeasibility witness")
    scale = -ONE / gap
    return tuple(cm * scale for cm in mult)


def _check_infeasible(rows, nonneg, certificate):
    """Re-verify a Farkas certificate on integer rows.

    rows[i] = (nums, sense, den) is row i, coefficients then rhs, as
    integers over den (as in `IntLp`; den is 1 for a row of ints), and
    nonneg[j] tells whether x_j >= 0. Multiplier i becomes the integer
    weight cm_i * mden * (rden / den_i), with mden the lcm of the
    multipliers' denominators and rden that of the weighted rows'; the
    combined row is then the true one times mden * rden > 0, so every
    sign condition reads the same.
    """
    n = len(nonneg)
    mden = lcm(*[cm.denominator for cm in certificate])
    weighted = [
        (sense, nums, cm, den)
        for (nums, sense, den), cm in zip(rows, certificate)
        if cm
    ]
    rden = lcm(*[den for *_, den in weighted])
    combined = [0] * (n + 1)
    for sense, nums, cm, den in weighted:
        if sense != EQ and cm < 0:
            raise RuntimeError("negative multiplier on an inequality row")
        w = cm.numerator * (mden // cm.denominator) * (rden // den)
        if sense == GE:
            w = -w
        combined = [s + w * v for s, v in zip(combined, nums)]
    for j in range(n):
        if nonneg[j]:
            if combined[j] < 0:
                raise RuntimeError("combined row negative on a nonneg variable")
        elif combined[j] != 0:
            raise RuntimeError("combined row nonzero on a free variable")
    if combined[n] >= 0:
        raise RuntimeError("combined rhs not violated")

