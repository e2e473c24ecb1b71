"""The exact simplex kernel.

The kernel works on the equality-form problem

    minimize c.x   subject to   a.x = b,  x >= 0,

with b >= 0 entrywise (the caller flips row signs). The caller hands
it integers: each row [a_i | b_i] as numerators over one positive
denominator, and c as integers, which may be any positive multiple of
the objective since scaling c changes no pivot. A column that is
positive in one row and zero in every other row (the slack of a <= row
with rhs >= 0) starts basic in that row, the lowest such column if
there are several; only the remaining rows get an artificial variable.
Phase 1 minimizes the sum of the artificials; phase 2 optimizes c over
the feasible basis. Pivoting uses Bland's rule (lowest eligible index)
in both phases, which guarantees termination.

Arithmetic is fraction-free, in the manner of Bareiss (1968): every
tableau row, the reduced-cost row included, is a list of integers over
one positive common denominator, and the row's content is divided out
after each update to keep the integers small. Every comparison is
exact, so the pivot sequence and the returned rationals are those of a
simplex on Fraction entries (tests/oracles.py keeps one as reference),
without per-entry Fraction arithmetic in the pivot loop. Only the
returned point and dual witness are Fractions.

This file is plain Python. setup.py compiles the same file with Cython
when Cython is installed; kernel_backend() says which of the two loaded.
"""

from fractions import Fraction
from itertools import islice
from math import gcd


def kernel_backend():
    """Name of the loaded kernel: "compiled" (built by Cython) or "pure"."""
    return "pure" if __file__.endswith(".py") else "compiled"


def simplex_solve(m, n, a, dens, c):
    """Solve min c.x over {a.x = b, x >= 0}, b >= 0 entrywise.

    `a` is a list of m integer rows of length n + 1, the n coefficients
    and then the rhs b_i >= 0, each over its positive denominator in
    `dens`; `c` is a list of n integers.

    Returns (status, x, y) with Fraction entries:
      ("optimal", x, None)      x is a basic optimal point, length n
      ("infeasible", None, y)   y has y.a_j <= 0 for every column j and
                                y.b > 0 (an exact infeasibility witness)
      ("unbounded", None, None)
    """
    start = _unit_columns(m, n, a)
    art = [i for i in range(m) if start[i] < 0]
    k = len(art)
    rhs = n + k
    rows = []
    tdens = []
    basis = []
    r = 0
    for i, row in enumerate(a):
        unit = [0] * k
        j = start[i]
        if j < 0:
            # artificial r's entry 1 is written as den/den over the row's den
            j, unit[r], den = n + r, dens[i], dens[i]
            r += 1
        else:
            # the row divided by its entry in column j has a 1 there
            den = row[j]
        nums, den = _primitive([*row[:n], *unit, row[n]], den)
        rows.append(nums)
        tdens.append(den)
        basis.append(j)

    # Phase 1 minimizes the sum of the artificials; artificial columns
    # never re-enter, so the entering index stays below n.
    _price(rows, tdens, basis, [0] * n + [1] * k + [0])
    _bland(rows, tdens, basis, n)
    cost, cden = rows.pop(), tdens.pop()
    if cost[rhs] < 0:
        # Positive phase-1 optimum; the reduced costs give the dual
        # witness: 1 - y_i at the artificial of row i, and -y_i * a_ij at
        # the column j that started basic in row i.
        y = [None] * m
        for r, i in enumerate(art):
            y[i] = Fraction(cden - cost[n + r], cden)
        for i, j in enumerate(start):
            if j >= 0:
                y[i] = Fraction(-cost[j] * dens[i], cden * a[i][j])
        return ("infeasible", None, y)

    # Drive leftover artificials out of the basis (degenerate pivots);
    # rows with no structural entry are redundant and get dropped.
    drop = []
    for i in art:
        if basis[i] >= n:
            row = rows[i]
            piv = next((j for j in range(n) if row[j]), -1)
            if piv < 0:
                drop.append(i)
            else:
                _pivot(rows, tdens, basis, i, piv)
    for i in reversed(drop):
        del rows[i], tdens[i], basis[i]

    # Phase 2 on the structural columns only.
    for i, row in enumerate(rows):
        rows[i], tdens[i] = _primitive(row[:n] + [row[rhs]], tdens[i])
    _price(rows, tdens, basis, [*c, 0])
    if not _bland(rows, tdens, basis, n):
        return ("unbounded", None, None)

    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        x[j] = Fraction(rows[i][n], tdens[i])
    return ("optimal", x, None)


def _unit_columns(m, n, a):
    """Per row, the lowest column positive there and zero in every other
    row, or -1 when there is none."""
    start = [-1] * m
    for j, col in enumerate(islice(zip(*a), n)):
        hits = [i for i, v in enumerate(col) if v]
        if len(hits) == 1 and col[hits[0]] > 0 and start[hits[0]] < 0:
            start[hits[0]] = j
    return start


def _primitive(nums, den):
    """Divide the common content out of the row nums/den (den > 0)."""
    g = gcd(*nums)
    if g == 0:
        return nums, 1
    g = gcd(g, den)
    if g == 1:
        return nums, den
    return [v // g for v in nums], den // g


def _eliminate(nums, den, pnums, pden, f):
    """Subtract (f / den) times the pivot row from the row nums/den.

    The pivot row pnums/pden has value 1 in the pivot column, where
    nums holds f, so the result is 0 there.
    """
    if pden == 1:
        new = [v - f * p if p else v for v, p in zip(nums, pnums)]
    else:
        new = [v * pden - f * p if p else v * pden for v, p in zip(nums, pnums)]
    return _primitive(new, den * pden)


def _price(rows, dens, basis, cost):
    """Append the reduced-cost row of the integer `cost` for the basis."""
    cnum, cden = _primitive(cost, 1)
    for row, den, j in zip(rows, dens, basis):
        if cnum[j]:
            cnum, cden = _eliminate(cnum, cden, row, den, cnum[j])
    rows.append(cnum)
    dens.append(cden)


def _pivot(rows, dens, basis, r, jc):
    """Make column jc basic in row r, updating every other row in `rows`."""
    prow = rows[r]
    p = prow[jc]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    # dividing the row by its pivot value leaves the numerators over p
    prow, pden = _primitive(prow, p)
    rows[r] = prow
    dens[r] = pden
    for i, row in enumerate(rows):
        if i != r and row[jc]:
            rows[i], dens[i] = _eliminate(row, dens[i], prow, pden, row[jc])
    basis[r] = jc


def _bland(rows, dens, basis, n_enter):
    """Pivot until optimal (True) or unbounded (False)."""
    rhs = len(rows[-1]) - 1
    while True:
        cost = rows[-1]
        enter = next((j for j in range(n_enter) if cost[j] < 0), -1)
        if enter < 0:
            return True
        # Ratio test: theta_i = rhs_i / a_i,enter, the row denominator
        # cancels; ties go to the lowest basic index.
        leave = -1
        for i in range(len(basis)):
            row = rows[i]
            aij = row[enter]
            if aij > 0:
                t = row[rhs]
                if leave < 0:
                    leave, best_t, best_a = i, t, aij
                else:
                    lhs = t * best_a
                    ref = best_t * aij
                    if lhs < ref or (lhs == ref and basis[i] < basis[leave]):
                        leave, best_t, best_a = i, t, aij
        if leave < 0:
            return False
        _pivot(rows, dens, basis, leave, enter)
