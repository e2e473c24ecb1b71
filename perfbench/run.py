#!/usr/bin/env python3
"""credalkit benchmark: seeded workloads run as a single-client closed loop.

    python3 perfbench/run.py --workload pipeline-t3 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`. One client runs each operation in this process only
after the previous one has finished, starting each from its model file as
the CLI does (the `spaces` map caches are cleared before every operation,
as in a fresh CLI process). A pass runs every operation of the workload
once (short ones several times, see MIN_SAMPLE_S). After the first pass,
operations go on in order until the next one would run past --seconds (by
its time in the pass before), and each operation's time is the median of
all its timings in the run.

Workloads (|Y| = 2; families come from the workload's family seed):
  pipeline-t3  consistent |T|=3 families: validate, build, verify
               --emit-vertices, expect over prescribed sets and --joint
  joint-t4     consistent |T|=4 family: validate, build, the representation
               check on the built joint set (library call; the CLI verify
               property suite alone takes minutes here), expect
  clash-t4     inconsistent |T|=4 family (first 1-tuple replaced by a point
               outside its marginal range): validate, build, verify, expect

--seed draws what may vary between runs without changing the LP work: the
index labels, the order of families and queries, and the expectation
functionals. The families themselves are fixed per workload, because their
cost differs up to tenfold between random draws; --family-seeds replaces
them, and `--family-seeds check` selects the workload's second set of seeds,
kept for checking a claim on inputs it was not tuned on.

--trace 0 prints the end-to-end metrics: setup_s (import, family drawing,
input files; median of SETUP_REPEATS), wall_s (the operation times summed
over a pass; output checks are not timed), validate_s / build_s / verify_s /
expect_s (the same sum over each kind of operation) and peak_rss_mb. Every
time is in seconds at a reference host speed: the host's speed is sampled
all through the run and each timing is scaled by it (hostspeed.py), because
on a shared host the raw times of one unchanged run drift by half or more.
--trace 1 alternates untraced and traced passes, timing every operation
once, and prints the per-layer metrics; spans of the last traced pass go to
.perfbench/spans-<workload>-<seed>.json. Every run
appends a record (kernel, Python version, metrics, failures) to
.perfbench/results.jsonl, which perfbench/compare.py reads. The line before
the last one repeats that record; the last line is the result JSON.
"""

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

import checks  # noqa: E402  (benchmark modules live beside this file)
import families as fam  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import MAP_BUILDERS, Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 7
OP_CAP_S = 90
# Short operations are timed repeatedly within a pass, so that a burst of
# host load cannot dominate their median (trace runs time each once, so that
# their counts repeat exactly).
MIN_SAMPLE_S = 0.3
MAX_REPEATS = 15

# expect queries by index position: (positions, bound, over the joint set)
T3_QUERIES = (
    ((0,), "upper", False), ((0, 1), "lower", False), ((2, 1), "upper", False),
    ((0, 2), "lower", True),
)
# every tuple once, plus three permuted ones
T4_QUERIES = tuple(
    (positions, ("lower", "upper")[k % 2], False)
    for k, positions in enumerate(
        [p for size in range(1, 5) for p in combinations(range(4), size)]
        + [(1, 0), (3, 2, 0), (2, 3, 1, 0)]
    )
)

# Family seeds were chosen among the first seeds scanned so that a pass
# (every operation once) fits the 35 s run at least twice on the pure kernel.
WORKLOADS = {
    "pipeline-t3": dict(indices=3, vertices=(4, 8), clash=False,
                        verify="cli", queries=T3_QUERIES,
                        family_seeds=(4, 7), check_seeds=(3, 5)),
    "joint-t4": dict(indices=4, vertices=(2, 2), clash=False,
                     verify="library", queries=T4_QUERIES,
                     family_seeds=(7,), check_seeds=(13,)),
    "clash-t4": dict(indices=4, vertices=(2, 2), clash=True,
                     verify="cli", queries=T4_QUERIES,
                     family_seeds=(2,), check_seeds=(3,)),
}
MAX_DEN = 12
KINDS = ("validate", "build", "verify", "expect")


class OpTimeout(Exception):
    """An operation ran past the per-operation cap."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_CAP_S} s")


def import_program():
    """Import credalkit afresh from the checkout's src/ (part of set-up)."""
    for name in [n for n in sys.modules if n == "credalkit" or n.startswith("credalkit.")]:
        del sys.modules[name]
    mods = {
        name: importlib.import_module(f"credalkit.{name}")
        for name in ("_backend", "exactq", "spaces", "polytope", "credal",
                     "joint", "modelio", "cli")
    }
    if not mods["cli"].__file__.startswith(SRC + os.sep):
        raise ImportError(f"credalkit imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def run_cli(ck, argv):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ck["cli"].main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue()


def load_joint(ck, space, path):
    """The JointModel described by a `credalkit build` output file."""
    doc = read_json(path)
    ineqs, eqs, ineq_origins, eq_origins = [], [], [], []
    for row in doc["rows"]:
        entry = (tuple(Fraction(v) for v in row["coeffs"]), Fraction(row["rhs"]))
        origin = row["origin"] if row["origin"] == "simplex" else tuple(row["origin"])
        if row["sense"] == "=":
            eqs.append(entry)
            eq_origins.append(origin)
        else:
            ineqs.append(entry)
            ineq_origins.append(origin)
    pt, jt = ck["polytope"], ck["joint"]
    hrep = pt.HRep(doc["dimension"], tuple(ineqs), tuple(eqs))
    body = pt.Polytope(doc["dimension"], hrep=hrep, empty=doc["empty"])
    return jt.JointModel(space, "polytope", body, tuple(ineq_origins),
                         tuple(eq_origins), (), None)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def random_functional(rng, size):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size))


def family_ops(ck, spec, family, tag, workdir, rng):
    """The operations of one family, as (kind, run, check) triples."""
    model = os.path.join(workdir, f"{tag}.json")
    built = os.path.join(workdir, f"{tag}-joint.json")
    want = 0 if family.clash is None else 1
    with open(model, "w") as fh:
        json.dump(family.model(), fh, indent=1)

    def exit_and(code, check):
        def checked(result):
            checks.require(result[0] == code, f"exit code {result[0]}, expected {code}")
            check(result[1])
        return checked

    ops = [
        ("validate", lambda: run_cli(ck, ["validate", model]),
         exit_and(want, lambda out: checks.check_consistency(
             family, json.loads(out)["consistency"]))),
        ("build", lambda: run_cli(ck, ["build", model, "-o", built]),
         exit_and(want, lambda out: checks.check_build_output(family, read_json(built)))),
    ]
    if spec["verify"] == "cli":
        functionals = [
            random_functional(rng, len(fam.OUTCOMES) ** len(a))
            for a in fam.tuples_of(family.indices)
        ]
        ops.append(("verify", lambda: run_cli(ck, ["verify", model, "--emit-vertices"]),
                    exit_and(want, lambda out: checks.check_verify_report(
                        family, json.loads(out), functionals))))
    else:
        def represent():
            _, coll, _ = ck["modelio"].load_model(model)
            return ck["joint"].verify_representation(
                coll, load_joint(ck, coll.space, built))
        ops.append(("verify", represent,
                    lambda report: checks.check_represent_report(family, report)))

    queries = []
    for k, (positions, bound, joint) in enumerate(spec["queries"]):
        alpha = tuple(family.indices[p] for p in positions)
        f = random_functional(rng, len(fam.OUTCOMES) ** len(alpha))
        ffile = os.path.join(workdir, f"{tag}-f{k}.json")
        with open(ffile, "w") as fh:
            json.dump([str(v) for v in f], fh)
        argv = ["expect", model, "--tuple", ",".join(alpha),
                "--function-file", ffile, "--bound", bound] + (["--joint"] if joint else [])
        queries.append(("expect", lambda argv=argv: run_cli(ck, argv),
                        exit_and(0, lambda out, alpha=alpha, f=f, bound=bound:
                                 checks.check_expect(out, family, alpha, f, bound))))
    rng.shuffle(queries)
    return ops + queries


def setup(spec, seed, family_seeds, workdir):
    """Import the program, draw the families, write every input file."""
    ck = import_program()
    rng = random.Random(seed)
    drawn = []
    for family_seed in family_seeds:
        frng = random.Random(family_seed)
        labels = tuple(fam.index_labels(rng, spec["indices"]))
        generic = tuple(f"t{i}" for i in range(spec["indices"]))
        family = fam.make_family(ck["polytope"], frng, generic,
                                 frng.randint(*spec["vertices"]), MAX_DEN, spec["clash"])
        drawn.append(fam.relabel(family, labels))
    order = list(range(len(drawn)))
    rng.shuffle(order)
    ops = []
    for i in order:
        ops += family_ops(ck, spec, drawn[i], f"family{i}", workdir, rng)
    return ck, ops


class Pass:
    def __init__(self):
        self.samples = []  # per operation, the (start, end) of each timing in this pass
        self.wall_s = 0.0
        self.span_wall_s = 0.0
        self.attempted = 0
        self.failures = []
        self.hits = 0
        self.misses = 0
        self.layers = None


def run_pass(ops, map_fns, tracer=None, min_sample_s=0.0, deadline=None, previous=None):
    """Run every operation once, or repeatedly until it has taken
    `min_sample_s` (at most MAX_REPEATS times); output checks are timed out
    of wall_s. With a deadline, the pass stops before an operation that took
    longer in the `previous` pass than the time left."""
    p = Pass()
    check_s = 0.0
    start = time.perf_counter()
    span_start = tracer.clock() if tracer else 0.0
    for i, (kind, run, check) in enumerate(ops):
        if deadline is not None:
            before = previous.samples[i] if i < len(previous.samples) else ()
            if time.perf_counter() + sum(b - a for a, b in before) > deadline:
                break
        times = []
        p.samples.append(times)
        while True:
            for fn in map_fns:
                fn.cache_clear()
            close = tracer.op_span(kind) if tracer else None
            error = None
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            try:
                result = run()
            except Exception as exc:  # any escape is a failed operation
                error = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append((t0, time.perf_counter()))
            if close:
                close()
            for fn in map_fns:
                info = fn.cache_info()
                p.hits += info.hits
                p.misses += info.misses
            t1 = time.perf_counter()
            if error is None:
                try:
                    check(result)
                except Exception as exc:
                    error = exc
            check_s += time.perf_counter() - t1
            p.attempted += 1
            if error is not None:
                p.failures.append(f"{kind}: {type(error).__name__}: {error}")
                break
            if sum(b - a for a, b in times) >= min_sample_s or len(times) >= MAX_REPEATS:
                break
        if isinstance(error, OpTimeout):
            break  # leave the rest of the run's time to the exit deadline
    p.wall_s = time.perf_counter() - start - check_s
    if tracer:
        p.span_wall_s = tracer.clock() - span_start - check_s
    return p


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--family-seeds",
                        help="comma-separated seeds replacing the workload's family "
                        "seeds, or 'check' for its check seeds")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "credalkit")):
        print(f"error: no credalkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = WORKLOADS[args.workload]
    family_seeds = spec["family_seeds"]
    if args.family_seeds == "check":
        family_seeds = spec["check_seeds"]
    elif args.family_seeds:
        family_seeds = tuple(int(s) for s in args.family_seeds.split(","))
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return measure(args, spec, family_seeds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, spec, family_seeds, workdir):
    """Set up SETUP_REPEATS times, then run passes until --seconds is spent."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ck, ops = setup(spec, args.seed, family_seeds, workdir)
        setups.append((t0, time.perf_counter()))
    map_fns = [getattr(ck["spaces"], name) for name in MAP_BUILDERS]
    tracer = Tracer(ck) if args.trace else None

    untraced, traced = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while not tracer:
        # after the first pass, time as many operations as fit the run
        untraced.append(run_pass(
            ops, map_fns, min_sample_s=MIN_SAMPLE_S,
            deadline=deadline if untraced else None,
            previous=untraced[-1] if untraced else None))
        if len(untraced[-1].samples) < len(ops) or time.perf_counter() > deadline:
            break
    while tracer:
        t0 = time.perf_counter()
        untraced.append(run_pass(ops, map_fns))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(ops, map_fns, tracer))
        finally:
            tracer.uninstall()
        traced[-1].layers = layer_metrics(
            tracer.spans, tracer.info, traced[-1].hits, traced[-1].misses)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    return ck, ops, setups, untraced, traced, tracer


def measure(args, spec, family_seeds, workdir):
    # Untraced runs sample the host's speed throughout (see hostspeed.py);
    # traced runs do not, so that probes do not land in the spans.
    speed = None if args.trace else HostSpeed()
    if speed:
        speed.start()
    try:
        ck, ops, setups, untraced, traced, tracer = run_workload(
            args, spec, family_seeds, workdir)
    finally:
        if speed:
            speed.stop()
    runs = untraced + traced
    attempted = sum(p.attempted for p in runs)
    failures = [f for p in runs for f in p.failures]
    os.makedirs(OUT, exist_ok=True)
    if tracer:
        metrics = traced_metrics(untraced, traced)
        with open(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = end_to_end(speed, setups, untraced, [kind for kind, _, _ in ops])
    kernel = ck["_backend"].kernel_backend()
    record = {
        "workload": args.workload, "seed": args.seed, "family_seeds": list(family_seeds),
        "trace": args.trace, "kernel": kernel, "python": platform.python_version(),
        "passes": len(untraced), "pass_wall_s": [p.wall_s for p in untraced],
        "setup_runs_s": [b - a for a, b in setups],
        "host_speed": speed.summary() if speed else None,
        "map_caches": "cleared before every operation",
        "fail_ratio": len(failures) / attempted, "failures": failures[:10],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(speed, setups, passes, kinds):
    """Medians over set-up repeats, and over every timing of each operation,
    each timing taken as seconds at reference host speed.

    An operation's time is the median of all its timings in the run; wall_s
    sums them over the pass, the `<kind>_s` metrics over each kind.
    """
    med = statistics.median
    op_s = []
    for i in range(len(kinds)):
        # a pass cut short by a timed-out operation has no later timings
        times = [speed.scaled_s(a, b)
                 for p in passes if i < len(p.samples) for a, b in p.samples[i]]
        op_s.append(med(times) if times else 0.0)
    setup_s = med([speed.scaled_s(a, b) for a, b in setups])
    metrics = {"setup_s": (setup_s, "s"), "wall_s": (sum(op_s), "s")}
    for kind in KINDS:
        metrics[f"{kind}_s"] = (sum(t for t, k in zip(op_s, kinds) if k == kind), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def traced_metrics(untraced, traced):
    """Per-layer metrics: medians over traced passes, plus tracing cost."""
    names = traced[0].layers
    metrics = {
        name: (statistics.median([p.layers[name][0] for p in traced]), unit)
        for name, (_, unit) in names.items()
        if name != "trace.self_total_s"
    }
    wall = statistics.median([p.wall_s for p in traced])
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - statistics.median([p.wall_s for p in untraced]), "s")
    metrics["trace.unaccounted_s"] = (statistics.median(
        [p.span_wall_s - p.layers["trace.self_total_s"][0] for p in traced]), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
