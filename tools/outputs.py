#!/usr/bin/env python3
"""Every CLI output on the benchmark workloads' families, for diffing checkouts.

    python3 tools/outputs.py CHECKOUT OUTDIR

Imports credalkit from CHECKOUT/src, and the workloads (WORKLOADS,
MAX_DEN, `random_functional`) and the family generator from
CHECKOUT/perfbench, which it reads and does not change (no bytecode is
written there). For each workload and each of its family and check
seeds, the family is drawn as the benchmark draws it, with labels t0..,
and written to OUTDIR/<workload>-<seed>/model.json. Then the CLI runs in
this process, in that directory:
- validate, as text and with --json;
- build -o joint.json (the build file is kept);
- verify --json --emit-vertices;
- expect for each of the workload's queries, without and with --joint,
  each functional drawn from random.Random(seed).
Then the |T| = 5 families of LARGE, drawn as tools/stages.py draws them
(family seed 7 with 4 base points; the clash families of seeds 2 and 3,
each with one `randint` for its 2 base points), go to
OUTDIR/<name>-t5-<seed>, with validate (text and --json), build and
verify only: their many dependent equality rows exercise the relations
of the empty-set diagnosis. Two |T| = 4 families in the other input
modes get the same four commands:
- OUTDIR/finite-t4-7: the joint-t4 family (seed 7, 2 base points) with
  each tuple's set the finite set of the base points' pushforwards;
- OUTDIR/supplied-t4-2: the clash-t4 family (seed 2) under the supplied
  permutation policy, every permuted tuple given, so validate has
  failing records and permutation records.
Each command's stdout, stderr and exit code go to <name>.out, <name>.err
and <name>.code beside the model. Every path handed to the CLI is
relative to that directory, so the outputs of two checkouts are the same
iff `diff -r OUTDIR1 OUTDIR2` prints nothing.
"""

import argparse
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations

# (directory prefix, family seed, clash) of the |T| = 5 families
LARGE = (("family", 7, False), ("clash", 2, True), ("clash", 3, True))


def run_cli(cli, argv, name):
    """Run `credalkit argv` in-process; write its stdout, stderr and exit
    code to name.out, name.err and name.code in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    for suffix, text in (("out", out.getvalue()), ("err", err.getvalue()),
                         ("code", f"{code}\n")):
        with open(f"{name}.{suffix}", "w") as fh:
            fh.write(text)


def model_outputs(cli, doc):
    """The model file and its validate, build and verify outputs, written
    to the current directory."""
    with open("model.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    run_cli(cli, ["validate", "model.json"], "validate")
    run_cli(cli, ["validate", "model.json", "--json"], "validate-json")
    run_cli(cli, ["build", "model.json", "-o", "joint.json"], "build")
    run_cli(cli, ["verify", "model.json", "--json", "--emit-vertices"], "verify")


def family_outputs(cli, run, fam, spec, family, seed):
    """Every CLI output of one family, written to the current directory."""
    model_outputs(cli, family.model())
    rng = random.Random(seed)
    for k, (positions, bound, _) in enumerate(spec["queries"]):
        alpha = [family.indices[p] for p in positions]
        f = run.random_functional(rng, len(fam.OUTCOMES) ** len(alpha))
        ffile = f"f{k}.json"
        with open(ffile, "w") as fh:
            json.dump([str(v) for v in f], fh)
        argv = ["expect", "model.json", "--tuple", ",".join(alpha),
                "--function-file", ffile, "--bound", bound]
        run_cli(cli, argv, f"expect{k}")
        run_cli(cli, argv + ["--joint"], f"expect{k}-joint")


def rationals(points):
    return [[str(v) for v in p] for p in points]


def finite_model(family):
    """The family's model with each tuple's set the finite set of the
    base points' pushforwards."""
    doc = family.model()
    for entry in doc["credal_sets"]:
        del entry["vertices"]
        entry.update(mode="finite", members=rationals(family.image(entry["tuple"])))
    return doc


def supplied_model(family):
    """The family's model under the supplied permutation policy, with
    every permuted tuple of each tuple given by its generators."""
    doc = family.model()
    doc["credal_sets"] = [
        {"tuple": list(shuffled), "mode": "polytope-v",
         "vertices": rationals(family.generators(shuffled))}
        for alpha in family.sets for shuffled in permutations(alpha)
    ]
    doc["options"] = {"permutations": "supplied"}
    return doc


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("outdir")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    checkout = os.path.abspath(args.checkout)
    sys.path.insert(0, os.path.join(checkout, "src"))
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import families as fam
    import run
    from credalkit import cli, polytope

    if not cli.__file__.startswith(os.path.join(checkout, "src") + os.sep):
        raise ImportError(f"credalkit imported from {cli.__file__}, not {checkout}")
    home = os.getcwd()

    def write(name, write_outputs):
        where = os.path.join(args.outdir, name)
        os.makedirs(where, exist_ok=True)
        os.chdir(where)
        try:
            write_outputs()
        finally:
            os.chdir(home)
        print(f"{name}: {where}", file=sys.stderr)

    for name, spec in run.WORKLOADS.items():
        for seed in (*spec["family_seeds"], *spec["check_seeds"]):
            frng = random.Random(seed)
            labels = tuple(f"t{i}" for i in range(spec["indices"]))
            family = fam.make_family(polytope, frng, labels,
                                     frng.randint(*spec["vertices"]),
                                     run.MAX_DEN, spec["clash"])
            write(f"{name}-{seed}",
                  lambda: family_outputs(cli, run, fam, spec, family, seed))
    labels = tuple(f"t{i}" for i in range(5))
    for prefix, seed, clash in LARGE:
        frng = random.Random(seed)
        family = fam.make_family(polytope, frng, labels,
                                 frng.randint(2, 2) if clash else 4, run.MAX_DEN, clash)
        write(f"{prefix}-t5-{seed}", lambda: model_outputs(cli, family.model()))
    labels = tuple(f"t{i}" for i in range(4))
    for prefix, seed, clash, model in (("finite", 7, False, finite_model),
                                       ("supplied", 2, True, supplied_model)):
        frng = random.Random(seed)
        family = fam.make_family(polytope, frng, labels, frng.randint(2, 2),
                                 run.MAX_DEN, clash)
        write(f"{prefix}-t4-{seed}", lambda: model_outputs(cli, model(family)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
