"""Seeded credal families for the benchmark, and the oracle data to check them.

A consistent family is the set of pushforwards of one random base polytope
over the path space; an inconsistent ("clash") family is a consistent one
whose first index's 1-tuple set is replaced by a single point outside that
coordinate's marginal range. The pushforwards are computed here with plain
Fraction arithmetic; the program is used only to keep the extreme points of
each image, so the model files it later reads are in canonical vertex form.
"""

from fractions import Fraction
from itertools import combinations, product

OUTCOMES = ("0", "1")


def simplex_point(rng, dim, max_den):
    """A rational point of the probability simplex, denominator <= max_den."""
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(dim - 1))
    edges = [0] + cuts + [den]
    return tuple(Fraction(b - a, den) for a, b in zip(edges, edges[1:]))


def tuples_of(indices):
    """Every nonempty index subset in ascending position order, by size."""
    out = []
    for size in range(1, len(indices) + 1):
        for pos in combinations(range(len(indices)), size):
            out.append(tuple(indices[i] for i in pos))
    return out


def cells(indices, alpha):
    """For each path, the index of its outcome tuple on `alpha`.

    Laws are indexed row-major over outcome tuples, first coordinate most
    significant, for the path space and for every tuple alike.
    """
    m = len(OUTCOMES)
    pos = [indices.index(t) for t in alpha]
    out = []
    for path in product(range(m), repeat=len(indices)):
        idx = 0
        for p in pos:
            idx = idx * m + path[p]
        out.append(idx)
    return out


def marginal(indices, law, alpha):
    """Joint law of the coordinates in `alpha` (in that order) under `law`."""
    out = [Fraction(0)] * (len(OUTCOMES) ** len(alpha))
    for mass, x in zip(law, cells(indices, alpha)):
        out[x] += mass
    return tuple(out)


class Family:
    """One generated family: its model document and its oracle data.

    `sets` maps each tuple to the generators written to the model file;
    `base` holds the base polytope's points (consistent part); `clash` is
    the replaced tuple, or None for a consistent family.
    """

    def __init__(self, indices, sets, base, clash):
        self.indices = indices
        self.sets = sets
        self.base = base
        self.clash = clash

    def model(self):
        return {
            "Y": list(OUTCOMES),
            "T": list(self.indices),
            "credal_sets": [
                {
                    "tuple": list(alpha),
                    "mode": "polytope-v",
                    "vertices": [[str(v) for v in p] for p in points],
                }
                for alpha, points in self.sets.items()
            ],
        }

    def image(self, alpha):
        """Pushforwards of the base points onto alpha (any label order)."""
        return [marginal(self.indices, p, alpha) for p in self.base]

    def generators(self, alpha):
        """Generators of the prescribed set of alpha as written to the model."""
        key = tuple(t for t in self.indices if t in alpha)
        pts = self.sets[key]
        if key == tuple(alpha):
            return pts
        return [marginal(key, p, alpha) for p in pts]


def _extreme_points(pt, points):
    hull = pt.Polytope.from_points(points, dim=len(points[0]))
    return pt.dd_convert(hull).points


def make_family(pt, rng, indices, n_vertices, max_den, clash):
    """Draw one family over `indices`; `pt` is the program's polytope module.

    With `clash`, families whose first coordinate already spans [0, 1]
    admit no point outside its marginal range and are drawn again.
    """
    dim = len(OUTCOMES) ** len(indices)
    while True:
        base = [simplex_point(rng, dim, max_den) for _ in range(n_vertices)]
        sets = {
            alpha: _extreme_points(pt, [marginal(indices, p, alpha) for p in base])
            for alpha in tuples_of(indices)
        }
        if not clash:
            return Family(indices, sets, base, None)
        first = (indices[0],)
        lo = min(v[0] for v in sets[first])
        hi = max(v[0] for v in sets[first])
        if lo == 0 and hi == 1:
            continue
        q = (hi + 1) / 2 if hi < 1 else lo / 2
        sets[first] = ((q, 1 - q),)
        return Family(indices, sets, base, first)


def index_labels(rng, count):
    """Distinct index labels drawn from the run seed.

    Labels only name coordinates; their position in T fixes every order the
    program uses, so relabelling leaves the LP work unchanged.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    labels = []
    while len(labels) < count:
        label = "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        if label not in labels:
            labels.append(label)
    return tuple(labels)


def relabel(family, labels):
    """The same family with its index labels replaced, in position order."""
    rename = dict(zip(family.indices, labels))
    sets = {tuple(rename[t] for t in alpha): pts for alpha, pts in family.sets.items()}
    clash = None if family.clash is None else tuple(rename[t] for t in family.clash)
    return Family(tuple(labels), sets, family.base, clash)
