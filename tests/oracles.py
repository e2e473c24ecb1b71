"""Independent oracles for the test suite.

Nothing here calls the double description machinery, and vertex
enumeration is done combinatorially (tight-row subsets + Gaussian
solves), so these can cross-check both the LP solver and the geometry
kernel without sharing their code paths.

`fraction_simplex_solve` is the reference for the shipped simplex
kernel: the same two-phase Bland simplex from the same starting basis
(unit columns basic, artificials on the other rows) with plain
Fraction entries, one tableau entry at a time, so it shares no
arithmetic with the kernel's integer rows.

`apply` and `matrix_rank` are the dense matrix-vector product and the
rank of a QMatrix, and `index_to_outcomes` / `all_outcome_tuples` spell
out the row-major order of outcome tuples cell by cell.

The `dense_*` builders are the reference for the coordinate maps of
`credalkit.spaces`: each map written out as a 0/1 column-stochastic
matrix, built cell by cell from outcome labels, so pushing a measure is
a matrix-vector product and pulling a row is a row-matrix product.
"""

from fractions import Fraction
from itertools import combinations, product

from credalkit.exactq import DimensionError, QMatrix, dot, solve_linear_system
from credalkit.spaces import alignment_permutation, product_index

ZERO = Fraction(0)
ONE = Fraction(1)


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
            res = solve_linear_system(QMatrix(rows), rhs)
            if res.status != "unique":
                continue
            x = res.solution
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


def apply(m: QMatrix, vec) -> tuple:
    """The matrix-vector product M.vec."""
    return tuple(dot(row, vec) for row in m.rows)


def matrix_rank(m: QMatrix) -> int:
    return solve_linear_system(m, [ZERO] * m.nrows).rank


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


def dense_pushforward(space, alpha) -> QMatrix:
    """Entry [x][w] is 1 iff path w agrees with outcome tuple x on alpha."""
    positions = [space.index_pos(t) for t in alpha]
    return _dense_reading(space, space.n_indices, positions)


def dense_permutation(space, n, perm) -> QMatrix:
    """The shuffle y -> (y[perm[0]], ..., y[perm[n-1]]) on n-tuples."""
    return _dense_reading(space, n, perm)


def dense_marginal(space, n_total, n_keep) -> QMatrix:
    """Sum out the trailing n_total - n_keep coordinates."""
    return _dense_reading(space, n_total, range(n_keep))


def dense_restriction(space, alpha, beta) -> QMatrix:
    """Shuffle beta's coordinates to the front, then sum out the rest."""
    perm = alignment_permutation(alpha, beta)
    return matmul(
        dense_marginal(space, len(alpha), len(beta)),
        dense_permutation(space, len(alpha), perm),
    )


def _dense_reading(space, n, positions) -> QMatrix:
    ncols = space.n_outcomes ** n
    rows = [[ZERO] * ncols for _ in range(space.n_outcomes ** len(positions))]
    for col, y in enumerate(all_outcome_tuples(space, n)):
        rows[product_index(space, [y[p] for p in positions])][col] = ONE
    return QMatrix(rows)


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    out = []
    for row in a.rows:
        acc = [ZERO] * b.ncols
        for k, v in enumerate(row):
            if v:
                acc = [s + v * w for s, w in zip(acc, b.rows[k])]
        out.append(acc)
    return QMatrix(out)


def dense_pull(m: QMatrix, row) -> tuple:
    """The row vector row.M."""
    return tuple(dot(row, col) for col in zip(*m.rows))


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
