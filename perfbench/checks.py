"""Independent checks of every benchmark operation's output.

Nothing here calls the program: reports and output files are parsed back
from their JSON text and every claim in them is re-derived by direct
Fraction arithmetic against the generated family (its base points and the
generators written to the model file). A failed check raises CheckFailed.
"""

from fractions import Fraction

from families import OUTCOMES, cells, marginal, tuples_of


class CheckFailed(Exception):
    """An operation's output disagrees with the oracle."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def fractions(values):
    return tuple(Fraction(v) for v in values)


def oracle_bound(family, alpha, f, bound):
    """Exact lower/upper expectation of f over the prescribed set of alpha.

    Consistent tuples use the base points' pushforwards; the clash tuple
    uses its replacement point.
    """
    if family.clash is not None and set(alpha) == set(family.clash):
        points = family.generators(alpha)
    else:
        points = family.image(alpha)
    values = [dot(f, p) for p in points]
    return min(values) if bound == "lower" else max(values)


def check_expect(stdout, family, alpha, f, bound):
    value = Fraction(stdout.strip())
    expected = oracle_bound(family, alpha, f, bound)
    require(value == expected, f"expect {alpha} {bound}: {value} != {expected}")


def _separated_generators(family, rec):
    alpha, beta = tuple(rec["alpha"]), tuple(rec["beta"])
    if rec["direction"] == "restriction within supplied set":
        return family.generators(beta)
    if rec["direction"] == "supplied set within restriction":
        return [marginal(alpha, v, beta) for v in family.generators(alpha)]
    raise CheckFailed(f"unexpected failing record {rec['direction']!r}")


def check_failing_records(family, records):
    """Every failing record carries a separation that re-verifies exactly."""
    failing = [r for r in records if r["status"] == "fail"]
    for rec in failing:
        cert = rec["certificate"]
        require(cert is not None and cert["type"] == "separation",
                "failing record without a separation certificate")
        g = fractions(cert["functional"])
        gap = Fraction(cert["gap"])
        point = fractions(cert["point"])
        require(gap > 0, "certificate gap is not positive")
        require(point == fractions(rec["witness"]), "certificate point is not the witness")
        for v in _separated_generators(family, rec):
            require(dot(g, point) - dot(g, v) >= gap, "certificate does not separate")
        clash = set(family.clash)
        require(set(rec["alpha"]) == clash or set(rec["beta"]) == clash,
                "failing record does not involve the perturbed tuple")
    return failing


def check_consistency(family, section):
    if family.clash is None:
        require(section["passed"], "consistent family reported inconsistent")
        require(all(r["status"] != "fail" for r in section["records"]),
                "consistent family has failing records")
    else:
        require(not section["passed"], "clash family reported consistent")
        require(check_failing_records(family, section["records"]),
                "clash family has no failing record")


def _row_valid(family, coeffs, sense, rhs, origin):
    """Whether a path-space row is implied by the simplex or by its origin's set."""
    dim = len(coeffs)
    if origin == "simplex":
        if sense == "=":
            return coeffs == (Fraction(1),) * dim and rhs == 1
        nonzero = [c for c in coeffs if c != 0]
        return rhs == 0 and nonzero == [Fraction(-1)]
    alpha = tuple(origin)
    # the row must read c = g . M_alpha for a functional g on the alpha-space
    g = {}
    for j, x in enumerate(cells(family.indices, alpha)):
        if g.setdefault(x, coeffs[j]) != coeffs[j]:
            return False
    gvec = tuple(g[x] for x in range(len(OUTCOMES) ** len(alpha)))
    values = [dot(gvec, v) for v in family.generators(alpha)]
    if sense == "=":
        return all(v == rhs for v in values)
    return max(values) <= rhs


def _doc_rows(rows):
    return [
        (fractions(r["coeffs"]), r["sense"], Fraction(r["rhs"]), r["origin"])
        for r in rows
    ]


def check_build_output(family, doc):
    """The annotated H-rep of `credalkit build`, consistent or empty."""
    rows = _doc_rows(doc["rows"])
    for coeffs, sense, rhs, origin in rows:
        require(_row_valid(family, coeffs, sense, rhs, origin),
                f"row with origin {origin} is not implied by its set")
    if family.clash is None:
        require(doc["empty"] is False, "consistent family built an empty joint set")
        for p in family.base:
            for coeffs, sense, rhs, _ in rows:
                lhs = dot(coeffs, p)
                require(lhs == rhs if sense == "=" else lhs <= rhs,
                        "a base point violates a joint-set row")
        return
    require(doc["empty"] is True, "clash family built a nonempty joint set")
    check_farkas(family, doc["farkas"], doc["offending_tuples"])


def check_farkas(family, farkas, offending):
    """The core's multipliers prove infeasibility by exact substitution."""
    core = _doc_rows(farkas["rows"])
    mults = fractions(farkas["multipliers"])
    require(len(core) == len(mults), "one multiplier per core row expected")
    dim = len(core[0][0])
    combined = [Fraction(0)] * dim
    combined_rhs = Fraction(0)
    named = []
    for (coeffs, sense, rhs, origin), mu in zip(core, mults):
        require(_row_valid(family, coeffs, sense, rhs, origin),
                f"core row with origin {origin} is not implied by its set")
        require(sense == "=" or mu >= 0, "negative multiplier on an inequality")
        for j in range(dim):
            combined[j] += mu * coeffs[j]
        combined_rhs += mu * rhs
        if mu != 0 and origin != "simplex" and origin not in named:
            named.append(origin)
    require(all(c == 0 for c in combined), "combined core row is not zero")
    require(combined_rhs < 0, "combined core rhs is not negative")
    require(named == offending, "offending tuples differ from the certificate")
    require(list(family.clash) in offending, "perturbed tuple not named")


def check_verify_report(family, doc, functionals):
    """`credalkit verify` report: consistent families pass everything and
    their emitted vertices push forward onto every prescribed set; clash
    families fail consistency with valid certificates and an empty joint."""
    check_consistency(family, doc["consistency"])
    joint = doc["joint"]
    if family.clash is not None:
        require(not doc["representation"]["passed"], "clash family represented")
        require(joint["empty"] is True, "clash family has a nonempty joint set")
        require(list(family.clash) in joint["offending_tuples"],
                "perturbed tuple not named")
        return
    require(doc["representation"]["passed"], "representation check failed")
    require(doc["properties"]["passed"], "property suite failed")
    vertices = [fractions(v) for v in joint["vertices"]]
    require(vertices, "no vertices emitted")
    for v in vertices:
        require(all(x >= 0 for x in v) and sum(v) == 1, "vertex outside the simplex")
    for alpha, f in zip(tuples_of(family.indices), functionals):
        got = max(dot(f, marginal(family.indices, v, alpha)) for v in vertices)
        require(got == oracle_bound(family, alpha, f, "upper"),
                f"joint vertices do not reach the prescribed set of {alpha}")


def check_represent_report(family, report):
    """Library representation report: both directions of every tuple pass."""
    require(family.clash is None, "representation step runs on consistent families")
    require(len(report.records) == 2 * len(family.sets), "a tuple was not checked")
    require(report.passed, "representation check failed")
