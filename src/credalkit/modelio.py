"""Model and report documents.

Models and reports are JSON with every rational carried as a string in
the exact text form (optional sign, integer, optional "/" positive
integer); floats never appear. Report serialization is deterministic:
fixed key order, records in canonical tuple order, so identical inputs
produce byte-identical reports apart from the tool version field.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from credalkit import __version__
from credalkit import credal as cr
from credalkit import joint as jt
from credalkit import polytope as pt
from credalkit import spaces as sp
from credalkit._backend import kernel_backend
from credalkit.exactq import (
    EQ,
    GE,
    LE,
    DimensionError,
    RationalParseError,
    format_rational,
    parse_rational,
)


class ModelFormatError(ValueError):
    """Input document violates the model schema; message names the field."""


def _fail(path, message):
    raise ModelFormatError(f"{path}: {message}")


def _need(obj, key, kind, path):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if key not in obj:
        _fail(path, f"missing field {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        _fail(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _labels(obj, key, path):
    """A list of labels; each must be a JSON scalar, as labels are hashed."""
    values = _need(obj, key, list, path)
    for k, label in enumerate(values):
        if isinstance(label, (list, dict)):
            _fail(f"{path}.{key}[{k}]", "expected a scalar label")
    return values


def _rational(text, path):
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        _fail(path, str(exc))


def _rational_vector(values, path):
    """A list of rational strings as a tuple of Fractions; an entry's
    path is formatted only for the entry that fails."""
    if not isinstance(values, list):
        _fail(path, "expected a list of rational strings")
    out = []
    for i, text in enumerate(values):
        try:
            out.append(parse_rational(text))
        except RationalParseError as exc:
            _fail(f"{path}[{i}]", str(exc))
    return tuple(out)


def read_json(path):
    """The JSON document in the file at path, read as UTF-8; a file that
    is not raises ModelFormatError "<path>: not valid JSON (...)"."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc


def load_model(path):
    """Parse a model file into (space, collection, options)."""
    return parse_model(read_json(path))


def parse_model(doc):
    outcomes = _labels(doc, "Y", "model")
    indices = _labels(doc, "T", "model")
    try:
        space = sp.make_space(indices, outcomes)
    except DimensionError as exc:
        _fail("model.Y/T", str(exc))
    entries = _need(doc, "credal_sets", list, "model")
    if not entries:
        _fail("model.credal_sets", "at least one credal set is required")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        _fail("model.options", "expected an object")
    policy = options.get("permutations", cr.SYNTHESIZED)
    if policy not in (cr.SYNTHESIZED, cr.SUPPLIED):
        _fail("model.options.permutations", f"unknown policy {policy!r}")
    cap = options.get("finite_cap", jt.DEFAULT_CELL_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        _fail("model.options.finite_cap", "expected a positive integer")

    sets = {}
    for i, entry in enumerate(entries):
        path = f"model.credal_sets[{i}]"
        tup = tuple(_labels(entry, "tuple", path))
        mode = _need(entry, "mode", str, path)
        try:
            if mode == "polytope-v":
                vertices = _need(entry, "vertices", list, path)
                cset = cr.credal_set_from_vertices(
                    space,
                    tup,
                    [_rational_vector(v, f"{path}.vertices[{k}]")
                     for k, v in enumerate(vertices)],
                )
            elif mode == "polytope-h":
                rows = _need(entry, "hrep", list, path)
                ineqs = []
                eqs = []
                for k, row in enumerate(rows):
                    rpath = f"{path}.hrep[{k}]"
                    coeffs = _rational_vector(
                        _need(row, "coeffs", list, rpath), f"{rpath}.coeffs"
                    )
                    sense = _need(row, "sense", str, rpath)
                    rhs = _rational(_need(row, "rhs", str, rpath), f"{rpath}.rhs")
                    if sense == LE:
                        ineqs.append((coeffs, rhs))
                    elif sense == GE:
                        ineqs.append((tuple(-c for c in coeffs), -rhs))
                    elif sense == EQ:
                        eqs.append((coeffs, rhs))
                    else:
                        _fail(f"{rpath}.sense", f"unknown sense {sense!r}")
                cset = cr.credal_set_from_hrep(space, tup, ineqs, eqs)
            elif mode == "finite":
                members = _need(entry, "members", list, path)
                cset = cr.credal_set_from_members(
                    space,
                    tup,
                    [_rational_vector(v, f"{path}.members[{k}]")
                     for k, v in enumerate(members)],
                )
            else:
                _fail(f"{path}.mode", f"unknown mode {mode!r}")
        except DimensionError as exc:
            _fail(path, str(exc))
        if cset.index_tuple in sets:
            _fail(path, f"duplicate tuple {tup!r}")
        sets[cset.index_tuple] = cset

    try:
        coll = cr.CredalCollection(space, sets, policy)
    except DimensionError as exc:
        _fail("model", str(exc))
    return space, coll, {"finite_cap": cap}


def parse_partition(doc):
    """Parse an `extend` document into (size, atoms, masses)."""
    if not isinstance(doc, dict):
        _fail("partition", "expected an object")
    size = doc.get("size")
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        _fail("partition.size", "expected a positive integer")
    atoms = doc.get("atoms")
    if not isinstance(atoms, list):
        _fail("partition.atoms", "expected a list of lists")
    for k, atom in enumerate(atoms):
        if not isinstance(atom, list):
            _fail(f"partition.atoms[{k}]", "expected a list of integers")
        for i, point in enumerate(atom):
            if isinstance(point, bool) or not isinstance(point, int):
                _fail(f"partition.atoms[{k}][{i}]", "expected an integer")
    masses = _rational_vector(doc.get("masses", []), "partition.masses")
    return size, atoms, masses


def input_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# serialization of values, certificates, reports

def rat_list(values):
    return [format_rational(v) for v in values]


def serialize_certificate(cert):
    if cert is None:
        return None
    if isinstance(cert, pt.SeparationCertificate):
        return {
            "type": "separation",
            "functional": rat_list(cert.functional),
            "gap": format_rational(cert.gap),
            "point": rat_list(cert.point),
        }
    if isinstance(cert, cr.FiniteSeparation):
        return {
            "type": "finite-separation",
            "point": rat_list(cert.point),
            "members": [rat_list(m) for m in cert.members],
            "parts": [
                {"functional": rat_list(f), "gap": format_rational(g)}
                for f, g in cert.parts
            ],
        }
    raise TypeError(f"unknown certificate {cert!r}")


def parse_certificate(obj):
    if obj is None:
        return None
    kind = obj.get("type")
    if kind == "separation":
        return pt.SeparationCertificate(
            tuple(parse_rational(v) for v in obj["functional"]),
            parse_rational(obj["gap"]),
            tuple(parse_rational(v) for v in obj["point"]),
        )
    if kind == "finite-separation":
        return cr.FiniteSeparation(
            tuple(parse_rational(v) for v in obj["point"]),
            tuple(tuple(parse_rational(v) for v in m) for m in obj["members"]),
            tuple(
                (
                    tuple(parse_rational(v) for v in part["functional"]),
                    parse_rational(part["gap"]),
                )
                for part in obj["parts"]
            ),
        )
    raise ModelFormatError(f"unknown certificate type {kind!r}")


def _record_dict(rec):
    return {
        "condition": rec.condition,
        "alpha": list(rec.alpha),
        "beta": list(rec.beta),
        "direction": rec.direction,
        "status": rec.status,
        "witness": None if rec.witness is None else rat_list(rec.witness),
        "certificate": serialize_certificate(rec.certificate),
        "note": rec.note,
    }


def consistency_dict(report: cr.ConsistencyReport):
    return {
        "passed": report.passed,
        "records": [_record_dict(r) for r in report.records],
    }


def representation_dict(report: jt.RepresentationReport):
    return {
        "passed": report.passed,
        "records": [
            {
                "tuple": list(r.alpha),
                "direction": r.direction,
                "status": r.status,
                "witness": None if r.witness is None else rat_list(r.witness),
                "certificate": serialize_certificate(r.certificate),
                "lifted_functional": None
                if r.lifted_functional is None
                else rat_list(r.lifted_functional),
                "note": r.note,
            }
            for r in report.records
        ],
    }


def properties_dict(report: jt.PropertyReport):
    return {
        "passed": report.passed,
        "records": [
            {
                "property": r.name,
                "alpha": list(r.alpha),
                "beta": list(r.beta),
                "status": r.status,
                "note": r.note,
            }
            for r in report.records
        ],
    }


def _origin_json(origin):
    return origin if origin == jt.SIMPLEX_ORIGIN else list(origin)


def joint_summary(model: jt.JointModel, vertices=None):
    if model.mode == cr.POLYTOPE:
        out = {
            "mode": "polytope",
            "dimension": model.dim,
            "constraint_count": len(model.body.hrep.ineqs)
            + len(model.body.hrep.eqs),
            "empty": model.is_empty(),
        }
        if model.diagnosis is not None:
            out["offending_tuples"] = [
                list(t) for t in model.diagnosis.offending_tuples
            ]
        if vertices is not None:
            out["vertices"] = [rat_list(v) for v in vertices]
        return out
    out = {
        "mode": "finite",
        "dimension": model.dim,
        "cells": len(model.cells),
        "empty": model.is_empty(),
        "points": [rat_list(c.point) for c in model.cells],
    }
    if model.diagnosis:
        out["offending_tuples"] = _offending_tuples(model.diagnosis)
    return out


def label_text(label) -> str:
    """A label as typed: a string is its own text, any other label its JSON."""
    return label if isinstance(label, str) else json.dumps(label)


def _offending_tuples(diagnoses):
    """The offending tuples of finite-mode selections, each once, sorted.

    Tuples compare label by label on the text, strings before other
    labels of the same text, so all-string tuples keep plain string order.
    """
    found = {tuple(t) for d in diagnoses for t in d.diagnosis.offending_tuples}

    def key(tup):
        return tuple((label_text(t), not isinstance(t, str)) for t in tup)

    return [list(t) for t in sorted(found, key=key)]


def report_document(digest, consistency=None, representation=None,
                    properties=None, joint=None, notes=()):
    doc = {
        "tool": "credalkit",
        "tool_version": __version__,
        "kernel": kernel_backend(),
        "input_digest": digest,
        "consistency": consistency,
        "representation": representation,
        "properties": properties,
        "joint": joint,
        "notes": list(notes),
    }
    return doc


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def joint_hrep_document(model: jt.JointModel, digest):
    """The built joint set as an annotated H-rep document."""
    doc = {
        "tool": "credalkit",
        "tool_version": __version__,
        "input_digest": digest,
        "dimension": model.dim,
        "empty": model.is_empty(),
    }
    if model.mode == cr.POLYTOPE:
        rows = []
        h = model.body.hrep
        for (coeffs, rhs), origin in zip(h.ineqs, model.ineq_origins):
            rows.append(
                {
                    "coeffs": rat_list(coeffs),
                    "sense": LE,
                    "rhs": format_rational(rhs),
                    "origin": _origin_json(origin),
                }
            )
        for (coeffs, rhs), origin in zip(h.eqs, model.eq_origins):
            rows.append(
                {
                    "coeffs": rat_list(coeffs),
                    "sense": EQ,
                    "rhs": format_rational(rhs),
                    "origin": _origin_json(origin),
                }
            )
        doc["mode"] = "polytope"
        doc["rows"] = rows
        if model.diagnosis is not None:
            doc["offending_tuples"] = [
                list(t) for t in model.diagnosis.offending_tuples
            ]
            doc["farkas"] = {
                "rows": [
                    {
                        "coeffs": rat_list(coeffs),
                        "sense": sense,
                        "rhs": format_rational(rhs),
                        "origin": _origin_json(origin),
                    }
                    for coeffs, sense, rhs, origin in model.diagnosis.rows
                ],
                "multipliers": rat_list(model.diagnosis.multipliers),
            }
    else:
        doc["mode"] = "finite"
        doc["cells"] = [
            {
                "selection": [
                    {"tuple": list(t), "member": rat_list(v)}
                    for t, v in cell.selection
                ],
                "point": rat_list(cell.point),
            }
            for cell in model.cells
        ]
        if model.diagnosis:
            doc["offending_tuples"] = _offending_tuples(model.diagnosis)
    return doc
