"""Finite process spaces and the coordinate maps between their simplices.

A process space fixes an ordered set of index labels (the coordinates of
the process) and an ordered set of outcome labels. Joint distributions
over n coordinates are vectors indexed row-major over outcome tuples,
first coordinate most significant; the same convention drives every
map built here and every serialized measure vector, so nothing can
silently misalign.

The map factories produce the three maps the consistency machinery
needs: the pushforward from the full path space onto a tuple of
coordinates, coordinate permutations, and marginalization of trailing
coordinates. Each sends every source cell to exactly one target cell,
so it is an index map: a tuple of ints whose entry w is the target cell
of source cell w. `push` carries a measure forward by bucket sums, which
keeps probability vectors probability vectors exactly; it reads a point
of a polytope as its integer numerators over the set's denominator
(`polytope.Polytope.xs`), which the image keeps, and a member of a
finite set as its Fractions. `pull` reads
a row on the target through the map, which is how constraint rows and
functionals move back to the source. Maps compose by indexing: g after
f is `tuple(g[x] for x in f)`. The factories keep their `*_matrix`
names; an index map lists, column by column, where the single 1 of a
0/1 column-stochastic matrix sits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from credalkit.exactq import ONE, ZERO, DimensionError, _integer_row, qvec


@dataclass(frozen=True)
class ProcessSpace:
    """Ordered index labels (coordinates) and outcome labels."""

    indices: tuple
    outcomes: tuple

    def __post_init__(self):
        if len(self.outcomes) < 2:
            raise DimensionError("need at least two outcomes")
        if len(self.indices) < 1:
            raise DimensionError("need at least one index")
        if len(set(self.indices)) != len(self.indices):
            raise DimensionError("duplicate index labels")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise DimensionError("duplicate outcome labels")

    @property
    def n_indices(self) -> int:
        return len(self.indices)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def path_count(self) -> int:
        """Size of the full path space: one point per map indices -> outcomes."""
        return self.n_outcomes ** self.n_indices

    def index_pos(self, label) -> int:
        try:
            return self.indices.index(label)
        except ValueError:
            raise DimensionError(f"unknown index label {label!r}") from None

    def outcome_pos(self, label) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise DimensionError(f"unknown outcome label {label!r}") from None

    def full_tuple(self) -> tuple:
        """The canonical tuple enumerating every index in order."""
        return self.indices


def make_space(indices, outcomes) -> ProcessSpace:
    return ProcessSpace(tuple(indices), tuple(outcomes))


def validate_index_tuple(space: ProcessSpace, tup) -> tuple:
    tup = tuple(tup)
    if not tup:
        raise DimensionError("index tuple is empty")
    if len(set(tup)) != len(tup):
        raise DimensionError(f"repeated index in tuple {tup!r}")
    for label in tup:
        space.index_pos(label)
    return tup


def canonical_tuple(space: ProcessSpace, labels) -> tuple:
    """The ascending-order tuple over the given set of index labels."""
    labels = set(labels)
    return tuple(t for t in space.indices if t in labels)


def all_canonical_tuples(space: ProcessSpace):
    """Every nonempty subset of the indices, ascending order, by size."""
    k = space.n_indices
    for n in range(1, k + 1):
        for pos in combinations(range(k), n):
            yield tuple(space.indices[i] for i in pos)


def tuple_covers(alpha, beta) -> bool:
    """Order relation: alpha majorizes beta iff beta's labels all occur."""
    return set(beta) <= set(alpha)


def product_index(space: ProcessSpace, outcomes_seq) -> int:
    """Row-major index of an outcome tuple, first coordinate most significant."""
    m = space.n_outcomes
    idx = 0
    for label in outcomes_seq:
        idx = idx * m + space.outcome_pos(label)
    return idx


@lru_cache(maxsize=None)
def pushforward_matrix(space: ProcessSpace, alpha: tuple) -> tuple:
    """Index map sending a path law to the joint law of alpha.

    A tuple of length m^k: entry w is the cell of the outcome tuple that
    path w takes on alpha's coordinates.
    """
    alpha = validate_index_tuple(space, alpha)
    positions = [space.index_pos(t) for t in alpha]
    return _reading_map(space.n_outcomes, space.n_indices, positions)


@lru_cache(maxsize=None)
def permutation_matrix(space: ProcessSpace, n: int, perm: tuple) -> tuple:
    """Index map of the coordinate shuffle y -> (y[perm[0]], ..., y[perm[n-1]]).

    A bijection of the m^n cells: the mass a law puts on y moves to the
    shuffled tuple.
    """
    if sorted(perm) != list(range(n)):
        raise DimensionError(f"not a permutation of 0..{n - 1}: {perm!r}")
    return _reading_map(space.n_outcomes, n, perm)


@lru_cache(maxsize=None)
def marginal_matrix(space: ProcessSpace, n_total: int, n_keep: int) -> tuple:
    """Index map summing out the trailing n_total - n_keep coordinates."""
    if not 1 <= n_keep <= n_total:
        raise DimensionError(f"bad arities: keep {n_keep} of {n_total}")
    m = space.n_outcomes
    block = m ** (n_total - n_keep)
    return tuple(w // block for w in range(m ** n_total))


def _reading_map(m: int, n: int, positions) -> tuple:
    """Index map of y -> (y[p] for p in positions) on n-tuples of m outcomes."""
    out = []
    for y in product(range(m), repeat=n):
        x = 0
        for p in positions:
            x = x * m + y[p]
        out.append(x)
    return tuple(out)


def push(idx, vec, size: int) -> tuple:
    """Pushforward of a vector along an index map: a bucket sum per cell
    of the nonzero entries, as they are. A point's numerators over a
    denominator give the image's over the same denominator, Fractions
    give Fractions, and a cell that receives none holds the int 0."""
    if len(vec) != len(idx):
        raise DimensionError(f"push: map has {len(idx)} cells, vector {len(vec)}")
    out = [0] * size
    for target, v in zip(idx, vec):
        if v:
            out[target] += v
    return tuple(out)


def pull(idx, row) -> tuple:
    """A row on the target read through an index map: entry w is row[idx[w]]."""
    return tuple(map(row.__getitem__, idx))


def alignment_permutation(alpha: tuple, beta: tuple) -> tuple:
    """Positions rearranging alpha so beta's labels come first, in order.

    Requires every label of beta to occur in alpha; remaining positions
    follow in their original order. Shuffling alpha by the result yields
    a tuple whose first len(beta) entries equal beta.
    """
    if not tuple_covers(alpha, beta):
        raise DimensionError(f"{beta!r} is not part of {alpha!r}")
    head = [alpha.index(b) for b in beta]
    used = set(head)
    tail = [i for i in range(len(alpha)) if i not in used]
    return tuple(head + tail)


def permute_tuple(alpha: tuple, perm: tuple) -> tuple:
    return tuple(alpha[p] for p in perm)


@lru_cache(maxsize=None)
def restriction_matrix(space: ProcessSpace, alpha: tuple, beta: tuple) -> tuple:
    """Index map from the joint law of alpha's coordinates to beta's.

    Defined whenever beta's labels are a subset of alpha's: shuffle
    beta's coordinates to the front, then sum out the rest.
    """
    perm = alignment_permutation(alpha, beta)
    shuffle = permutation_matrix(space, len(alpha), perm)
    margin = marginal_matrix(space, len(alpha), len(beta))
    return tuple(margin[y] for y in shuffle)


# ---------------------------------------------------------------------------
# measure vectors

def validate_measure(vec, dim=None) -> tuple:
    """Check nonnegativity and exact normalization (`measure_numerators`);
    returns the tuple of Fractions."""
    vec = qvec(vec)
    measure_numerators(vec, dim)
    return vec


def measure_numerators(vec, dim=None):
    """A measure's entries as integers over one denominator, (nums, den),
    once nonnegativity and exact normalization are checked on them: the
    numerators over the lcm of the denominators are nonnegative and sum
    to that lcm."""
    vec = qvec(vec)
    if dim is not None and len(vec) != dim:
        raise DimensionError(f"measure has {len(vec)} entries, expected {dim}")
    nums, den = _integer_row(vec)
    if any(v < 0 for v in nums):
        raise DimensionError("measure has a negative entry")
    if sum(nums) != den:
        raise DimensionError("measure entries do not sum to 1")
    return nums, den


def uniform_measure(dim: int) -> tuple:
    return tuple(Fraction(1, dim) for _ in range(dim))


def point_mass(dim: int, at: int) -> tuple:
    if not 0 <= at < dim:
        raise DimensionError(f"point mass index {at} out of range")
    return tuple(ONE if j == at else ZERO for j in range(dim))
