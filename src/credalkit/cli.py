"""Command-line front end.

Subcommands: validate (consistency checks), build (joint-set H-rep with
provenance), verify (full pipeline), expect (lower/upper expectation
queries), extend (uniform-split measure extension).

Exit codes: 0 pass, 1 mathematical failure (inconsistent family, empty
joint set, representation mismatch), 2 input error, 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from credalkit import __version__
from credalkit import credal as cr
from credalkit import joint as jt
from credalkit import modelio as io
from credalkit import spaces as sp
from credalkit._backend import kernel_backend
from credalkit.exactq import (
    DimensionError,
    RationalParseError,
    format_rational,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit_report(args, doc):
    text = io.dump_json(doc)
    if getattr(args, "report", None):
        io.write_atomic(args.report, text)
    if getattr(args, "json", False) or not getattr(args, "report", None):
        sys.stdout.write(text)


def _summary(label, passed):
    print(f"{label}: {'PASS' if passed else 'FAIL'}", file=sys.stderr)


def cmd_validate(args):
    _, coll, _ = io.load_model(args.model)
    digest = io.input_digest(args.model)
    c1 = cr.check_permutation_consistency(coll)
    c2 = cr.check_marginal_consistency(coll)
    report = cr.ConsistencyReport(c1.records + c2.records)
    doc = io.report_document(digest, consistency=io.consistency_dict(report))
    _emit_report(args, doc)
    _summary("permutation consistency", c1.passed)
    _summary("marginal consistency", c2.passed)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_build(args):
    _, coll, options = io.load_model(args.model)
    digest = io.input_digest(args.model)
    model = jt.build_joint(coll, cell_cap=options["finite_cap"])
    doc = io.joint_hrep_document(model, digest)
    io.write_atomic(args.output, io.dump_json(doc))
    if model.is_empty():
        _report_empty(model)
        return EXIT_FAIL
    print(f"joint set written to {args.output}", file=sys.stderr)
    return EXIT_PASS


def _report_empty(model):
    """The stderr line for an empty joint set, naming the offending
    tuples of its diagnosis."""
    if model.mode == cr.POLYTOPE and model.diagnosis is not None:
        tuples = model.diagnosis.offending_tuples
    elif model.diagnosis:
        # finite mode: the tuples named by any dead selection
        tuples = [tuple(t) for t in io._offending_tuples(model.diagnosis)]
    else:
        tuples = None
    if tuples is None:
        print("joint set is empty", file=sys.stderr)
    else:
        named = ", ".join(str(t) for t in tuples)
        print(f"joint set is empty; offending tuples: {named}", file=sys.stderr)


def _singleton_note(model):
    """The note for a joint set P that is one point: P has one vertex
    (the build hands P's vertices to the joint set)."""
    if model.mode == cr.POLYTOPE and not model.is_empty() and len(model.body.xs) == 1:
        return "joint set is a single measure"
    return None


def cmd_verify(args):
    _, coll, options = io.load_model(args.model)
    digest = io.input_digest(args.model)
    # built first: a model that mixes finite and polytope sets has no
    # joint set (ModeError) and needs no consistency check
    model = jt.build_joint(coll, cell_cap=options["finite_cap"])
    c1 = cr.check_permutation_consistency(coll)
    c2 = cr.check_marginal_consistency(coll)
    consistency = cr.ConsistencyReport(c1.records + c2.records)
    representation = jt.verify_representation(coll, model)

    properties = None
    notes = []
    note = _singleton_note(model)
    if note:
        notes.append(note)
    if model.mode == cr.POLYTOPE and consistency.passed and not model.is_empty():
        properties = jt.property_suite(coll, model, representation, consistency)

    vertices = None
    if args.emit_vertices and model.mode == cr.POLYTOPE and not model.is_empty():
        verts = model.body.points  # P's sorted vertices, carried from the build
        if len(verts) <= args.vertex_limit:
            vertices = verts
        else:
            notes.append(
                f"vertex list withheld: {len(verts)} vertices exceed the "
                f"limit of {args.vertex_limit}"
            )

    doc = io.report_document(
        digest,
        consistency=io.consistency_dict(consistency),
        representation=io.representation_dict(representation),
        properties=None if properties is None else io.properties_dict(properties),
        joint=io.joint_summary(model, vertices=vertices),
        notes=notes,
    )
    _emit_report(args, doc)
    _summary("consistency", consistency.passed)
    _summary("representation", representation.passed)
    if properties is not None:
        _summary("structural properties", properties.passed)
    return EXIT_PASS if representation.passed else EXIT_FAIL


def cmd_expect(args):
    space, coll, options = io.load_model(args.model)
    alpha = sp.validate_index_tuple(space, _tuple_labels(space, args.tuple))
    f = io._rational_vector(io.read_json(args.function_file), "function")
    expected = space.n_outcomes ** len(alpha)
    if len(f) != expected:
        raise io.ModelFormatError(
            f"function: has {len(f)} entries, tuple {args.tuple!r} "
            f"needs {expected}"
        )
    if args.joint:
        model = jt.build_joint(coll, cell_cap=options["finite_cap"])
        if model.is_empty():
            _report_empty(model)
            return EXIT_FAIL
        cset = jt.pushforward_joint(model, alpha)
    else:
        cset = coll.credal_set(alpha)
    if args.bound == "lower":
        value = cr.lower_expectation(cset, f)
    else:
        value = cr.upper_expectation(cset, f)
    print(format_rational(value))
    return EXIT_PASS


def _tuple_labels(space, text):
    """The index labels named by `--tuple`, matched by io.label_text."""
    labels = []
    for piece in text.split(","):
        found = [t for t in space.indices if io.label_text(t) == piece]
        if len(found) != 1:
            which = "no index label" if not found else "more than one index label"
            raise DimensionError(f"--tuple: {piece!r} names {which}")
        labels.append(found[0])
    return tuple(labels)


def cmd_extend(args):
    size, atoms, masses = io.parse_partition(io.read_json(args.partition_file))
    measure = cr.extend_measure(size, atoms, masses)
    print(json.dumps(io.rat_list(measure)))
    return EXIT_PASS


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="credalkit",
        description="Exact consistency checking and joint-set construction "
        "for families of credal sets.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"credalkit {__version__} (kernel: {kernel_backend()})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run both consistency checks")
    p.add_argument("model")
    p.add_argument("--report", help="write the JSON report to this file")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report to stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="build the joint set over the path space")
    p.add_argument("model")
    p.add_argument("--output", "-o", required=True,
                   help="file for the annotated H-rep of the joint set")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "verify",
        help="full pipeline: consistency, joint set, representation, properties",
    )
    p.add_argument("model")
    p.add_argument("--report", help="write the JSON report to this file")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report to stdout")
    p.add_argument("--emit-vertices", action="store_true",
                   help="include the joint set's vertices in the report")
    p.add_argument("--vertex-limit", type=_nonnegative_int, default=500,
                   help="withhold the vertex list beyond this count")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expect", help="lower/upper expectation of a functional")
    p.add_argument("model")
    p.add_argument("--tuple", required=True,
                   help="comma-separated index labels, e.g. a,b")
    p.add_argument("--function-file", required=True,
                   help="JSON list of rationals, one per product-space index")
    p.add_argument("--bound", choices=("lower", "upper"), default="lower")
    p.add_argument("--joint", action="store_true",
                   help="bound over the joint set's pushforward instead")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("extend", help="uniform-split extension of a partition measure")
    p.add_argument("partition_file")
    p.set_defaults(func=cmd_extend)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (io.ModelFormatError, RationalParseError, DimensionError,
            jt.ModeError) as exc:
        # jt.ModeError: a model mixing finite and polytope sets has no joint set
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except OSError as exc:
        # a missing file, a directory, or one we may not read
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except jt.ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_RESOURCE
    except jt.EmptyJointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    main()
