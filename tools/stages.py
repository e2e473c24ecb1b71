#!/usr/bin/env python3
"""Stage wall times and LP counts on fixed seeded families.

    python3 tools/stages.py CHECKOUT OUT.json [--cap SECONDS] [--sizes 3,4,5]
                            [--kernel]

Imports credalkit from CHECKOUT/src and the family generator from
CHECKOUT/perfbench, so the same script measures any checkout: run it once
per checkout, one after the other, and compare the two files.

Families: perfbench/families.py `make_family`, family seed 7, MAX_DEN 12,
|Y| = 2, labels t0.., at each |T| of --sizes (default 3,4,5) with the
base point counts of BASE_POINTS: |T| = 3 (4, 8 base points), 4 (2, 6),
5 (2, 4, 6, 8), 6 (2, 8) and 7 (2); any other |T| gets 2. All are
consistent. Each family's model (`family.model()`) is written to a file
in a temporary directory. Stages are library calls:
- parse: `modelio.load_model` on that file, the median seconds of
  PARSE_REPEATS loads (one takes milliseconds); the other stages run on
  the collection it reads;
- validate: both consistency checks, joined into one report;
- feasibility: `polytope._decide_empty` on a fresh copy of the build's
  system, which is how a joint set read back from a build file decides
  that it is nonempty;
- build: `joint.build_joint`;
- verify: `joint.verify_representation`;
- suite: `joint.property_suite` given verify's and validate's reports,
  as CLI `verify` runs it.
Then, at each |T| of --sizes, the clash families of CLASH_SEEDS (the
clash-t4 workload's family and check seeds), drawn as perfbench/run.py
draws them: one `randint` for the base point count (2), then
`make_family(..., clash=True)`, so P is empty. They record validate,
feasibility (empty), build, and "diagnose": the build's
`joint._diagnose` call, its seconds, LPs, eliminations, rule-3 steps
and core rows. A step is one subsystem the deletion filter decides:
a `joint._FilterHull.decide` call, or, in a checkout without
`_FilterHull`, a `polytope._feasible_point` call inside the diagnosis.
Then the
families of ENLARGED with V_T enlarged by a path point mass (P strictly
inside pre(V_T), so the build converts P's own rows; feasibility, build
and verify only), and the emptiness check of two H-rep sets in
dimension 16 (the simplex rows plus random cuts, so the affine hull has
dimension 15), one nonempty and one empty.

LPs are `lp_solve` calls. The build also records "redundancy_lps", the
LPs inside `remove_redundant_ineqs`, which reads the kept rows off P's
vertices and so runs none, and the rows it takes in and keeps (null
when P is empty and it does not run). Each stage also records "dd",
its double description runs (`polytope._points_from_hrep` and
`_hrep_from_points` calls), "dd_s", the seconds spent in them, and
"elim", its eliminations: the `exactq.echelon` runs, counted by
rebinding it in `exactq` (which `solve_rows`, `combination`,
`right_inverse` and the LP wrapper call) and in `polytope` and `joint`
where they import it. With --kernel each
stage also records "kernel_s", the seconds spent in the simplex kernel
(`_backend.simplex_solve`). Each family gets at most --cap seconds
(default 300, by SIGALRM); a stage cut by the cap is recorded as
{"capped": cap} and the family's later stages are skipped.
"""

import argparse
import json
import os
import random
import signal
import statistics
import sys
import tempfile
import time


BASE_POINTS = {3: (4, 8), 4: (2, 6), 5: (2, 4, 6, 8), 6: (2, 8), 7: (2,)}

PARSE_REPEATS = 9

# family seeds of the clash families, each with 2 base points
CLASH_SEEDS = (2, 3)

# (|T|, base points) of the families whose V_T is enlarged, whatever --sizes
ENLARGED = ((3, 8), (4, 6), (5, 4), (5, 8), (6, 8))


class Capped(Exception):
    """A family ran past its time cap."""


def _on_alarm(signum, frame):
    raise Capped()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("out")
    parser.add_argument("--cap", type=int, default=300)
    parser.add_argument("--sizes", default="3,4,5",
                        help="comma-separated |T| values of the consistent families")
    parser.add_argument("--kernel", action="store_true",
                        help="also record the kernel's seconds per stage")
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    sys.path.insert(0, os.path.join(args.checkout, "src"))
    sys.path.insert(0, os.path.join(args.checkout, "perfbench"))
    import families as fam
    from credalkit import _backend, credal, exactq, joint, modelio, polytope
    from credalkit.credal import CredalCollection, credal_set_from_vertices
    from credalkit.exactq import ONE, ZERO
    from credalkit.spaces import point_mass

    counts = {"lps": 0, "redundancy": 0, "rows_in": None, "rows_kept": None,
              "kernel_s": 0.0, "dd": 0, "dd_s": 0.0, "elim": 0}
    depth = [0]

    def counting(fn):
        def wrapped(*a, **k):
            counts["lps"] += 1
            counts["redundancy"] += depth[0] > 0
            return fn(*a, **k)
        return wrapped

    for mod in (polytope, credal, joint):
        mod.lp_solve = counting(mod.lp_solve)
    real_rr = polytope.remove_redundant_ineqs

    def rr(*a, **k):
        depth[0] += 1
        try:
            keep = real_rr(*a, **k)
        finally:
            depth[0] -= 1
        counts["rows_in"], counts["rows_kept"] = len(a[1]), len(keep)
        return keep

    polytope.remove_redundant_ineqs = rr

    def counted_echelon(fn):
        def wrapped(*a, **k):
            counts["elim"] += 1
            return fn(*a, **k)
        return wrapped

    for mod in (exactq, polytope, joint):
        if hasattr(mod, "echelon"):
            mod.echelon = counted_echelon(mod.echelon)

    def counted_step(fn):
        def wrapped(*a, **k):
            counts["steps"] += 1
            return fn(*a, **k)
        return wrapped

    if hasattr(joint, "_FilterHull"):
        joint._FilterHull.decide = counted_step(joint._FilterHull.decide)
    else:
        polytope._feasible_point = counted_step(polytope._feasible_point)
    counts["steps"] = 0
    real_diagnose = joint._diagnose
    diagnosed = {}

    def timed_diagnose(*a, **k):
        lps, elim, steps = counts["lps"], counts["elim"], counts["steps"]
        t = time.perf_counter()
        result = real_diagnose(*a, **k)
        diagnosed.update(s=round(time.perf_counter() - t, 4),
                         lps=counts["lps"] - lps, elim=counts["elim"] - elim,
                         steps=counts["steps"] - steps, core_rows=len(result.rows))
        return result

    joint._diagnose = timed_diagnose

    def timed_dd(fn):
        def wrapped(*a, **k):
            counts["dd"] += 1
            t = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                counts["dd_s"] += time.perf_counter() - t
        return wrapped

    for name in ("_points_from_hrep", "_hrep_from_points"):
        setattr(polytope, name, timed_dd(getattr(polytope, name)))

    if args.kernel:
        real_kernel = _backend.simplex_solve

        def timed_kernel(*a):
            t = time.perf_counter()
            try:
                return real_kernel(*a)
            finally:
                counts["kernel_s"] += time.perf_counter() - t

        _backend.simplex_solve = timed_kernel

    def stage(fn):
        counts.update(lps=0, redundancy=0, rows_in=None, rows_kept=None,
                      kernel_s=0.0, dd=0, dd_s=0.0, elim=0)
        t = time.perf_counter()
        result = fn()
        rec = {"s": round(time.perf_counter() - t, 3), "lps": counts["lps"],
               "dd": counts["dd"], "dd_s": round(counts["dd_s"], 3),
               "elim": counts["elim"]}
        if args.kernel:
            rec["kernel_s"] = round(counts["kernel_s"], 3)
        return result, rec

    def build_stage(rec, coll):
        model, rec["build"] = stage(lambda: joint.build_joint(coll))
        rec["build"].update(redundancy_lps=counts["redundancy"],
                            rows_in=counts["rows_in"], rows_kept=counts["rows_kept"])
        return model

    def validate_stage(rec, coll):
        report, rec["validate"] = stage(lambda: credal.ConsistencyReport(
            credal.check_permutation_consistency(coll).records
            + credal.check_marginal_consistency(coll).records))
        return report

    def feasibility_stage(rec, coll):
        reps = joint.representative_tuples(coll)
        body = joint._system_polytope(coll.space.path_count, *joint._assemble(coll, reps))
        _, rec["feasibility"] = stage(lambda: polytope._decide_empty(body))
        rec["feasibility"]["empty"] = body.is_empty()

    def family_model(n, k):
        indices = tuple(f"t{i}" for i in range(n))
        return fam.make_family(polytope, random.Random(7), indices, k, 12, False).model()

    def family_coll(n, k):
        return modelio.parse_model(family_model(n, k))[1]

    def parse_stage(rec, path):
        times = []
        for _ in range(PARSE_REPEATS):
            t = time.perf_counter()
            _, coll, _ = modelio.load_model(path)
            times.append(time.perf_counter() - t)
        rec["parse"] = {"s": round(statistics.median(times), 5)}
        return coll

    def capped(rec, stages, fn):
        """Run the family's `stages` under the cap; the stage it cuts is
        the first of them that `rec` lacks."""
        signal.alarm(args.cap)
        try:
            fn()
        except Capped:
            missing = next(s for s in stages if s not in rec)
            rec[missing] = {"capped": args.cap}
        finally:
            signal.alarm(0)
        rows.append(rec)
        print(json.dumps(rec), flush=True)

    signal.signal(signal.SIGALRM, _on_alarm)
    rows = []
    models = tempfile.TemporaryDirectory()
    for n in sizes:
        for k in BASE_POINTS.get(n, (2,)):
            path = os.path.join(models.name, f"T{n}-{k}.json")
            with open(path, "w") as fh:
                json.dump(family_model(n, k), fh, indent=1)
            rec = {"T": n, "base_points": k}

            def run(rec=rec, path=path):
                coll = parse_stage(rec, path)
                consistency = validate_stage(rec, coll)
                feasibility_stage(rec, coll)
                model = build_stage(rec, coll)
                report, rec["verify"] = stage(
                    lambda: joint.verify_representation(coll, model))
                suite, rec["suite"] = stage(
                    lambda: joint.property_suite(coll, model, report, consistency))
                rec["passed"] = report.passed and suite.passed

            capped(rec, ("parse", "validate", "feasibility", "build", "verify", "suite"),
                   run)
    models.cleanup()

    for n in sizes:
        for seed in CLASH_SEEDS:
            frng = random.Random(seed)
            indices = tuple(f"t{i}" for i in range(n))
            family = fam.make_family(polytope, frng, indices, frng.randint(2, 2), 12, True)
            coll = modelio.parse_model(family.model())[1]
            rec = {"T": n, "base_points": 2, "clash_seed": seed}

            def run(rec=rec, coll=coll):
                validate_stage(rec, coll)
                feasibility_stage(rec, coll)
                diagnosed.clear()
                build_stage(rec, coll)
                rec["diagnose"] = dict(diagnosed)

            capped(rec, ("validate", "feasibility", "build", "diagnose"), run)

    # V_T enlarged by the first path point mass it does not hold, so that
    # P lies strictly inside pre(V_T)
    for n, k in ENLARGED:
        coll = family_coll(n, k)
        full = max(coll.sets, key=len)
        body = polytope.dd_convert(coll.sets[full].body)
        extra = next(point_mass(body.dim, j) for j in range(body.dim)
                     if point_mass(body.dim, j) not in body.points)
        sets = dict(coll.sets)
        sets[full] = credal_set_from_vertices(coll.space, full, (*body.points, extra))
        coll = CredalCollection(coll.space, sets)
        rec = {"T": n, "base_points": k, "enlarged_full_tuple": True}

        def run(rec=rec, coll=coll):
            feasibility_stage(rec, coll)
            model = build_stage(rec, coll)
            _, rec["verify"] = stage(lambda: joint.verify_representation(coll, model))

        capped(rec, ("feasibility", "build", "verify"), run)

    # H-rep sets in dimension 16: rows a.x <= a.p + s through a random
    # point p of the simplex, with s >= 0, and for the empty one lower
    # bounds that no law on the simplex meets
    rng = random.Random(7)
    dim = 16
    p = [ZERO] * dim
    for _ in range(12):
        p[rng.randrange(dim)] += ONE / 12
    simplex = polytope.Polytope.simplex(dim).hrep
    for empty in (False, True):
        cuts = []
        for _ in range(12):
            a = [rng.randint(-3, 3) for _ in range(dim)]
            b = sum(x * v for x, v in zip(a, p)) + rng.randint(0, 2) * ONE / 24
            cuts.append((tuple(ONE * v for v in a), b))
        if empty:  # x_j >= 1/8 for nine coordinates: more than the unit mass
            cuts += [(tuple(-ONE * (i == j) for i in range(dim)), -ONE / 8)
                     for j in range(9)]
        h = polytope.Polytope.from_hrep(dim, [*simplex.ineqs, *cuts], simplex.eqs)
        rec = {"hrep_dim": dim, "cuts": len(cuts)}

        def run(rec=rec, h=h):
            _, rec["feasibility"] = stage(lambda: polytope._decide_empty(h))
            rec["feasibility"]["empty"] = h.is_empty()

        capped(rec, ("feasibility",), run)

    with open(args.out, "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
