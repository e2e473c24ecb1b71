"""Acceptance suite: the exit criteria, one test per criterion.

Every check is exact (tolerance zero). Each test prints a single
pass/fail line; run with `pytest tests/test_acceptance.py -s` to see
them. Criterion 1 also enforces the < 60 s wall-clock budget for the
validate/build/verify pipeline over the generated instances.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

import credalkit.polytope as pt
from credalkit.cli import main as cli_main
from credalkit.credal import (
    ConsistencyReport,
    CredalCollection,
    check_marginal_consistency,
    check_permutation_consistency,
    credal_set_from_members,
    credal_set_from_vertices,
    lower_expectation,
    upper_expectation,
    verify_witness_certificate,
)
from credalkit.exactq import dot
from credalkit.joint import (
    build_joint,
    preimage_set,
    property_suite,
    pushforward_joint,
    representative_tuples,
    verify_representation,
)
from credalkit.modelio import load_model, parse_certificate
from credalkit.spaces import (
    all_canonical_tuples,
    make_space,
    uniform_measure,
)
from gen import collection_to_model, generated_instance, random_simplex_point
from oracles import apply, brute_force_vertices, dense_pushforward, equals

# separation certificates produced while the suite runs, re-verified in
# criterion 8: pairs (certificate, comparison credal set or polytope)
CERTIFICATES = []


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{name}]: FAIL", flush=True)
        raise
    print(f"criterion {number} [{name}]: PASS", flush=True)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


class Pipeline:
    """Generated instances with their full validated/built/verified state."""

    def __init__(self, tmp_dir):
        rng = random.Random(20240811)
        self.entries = []
        elapsed = 0.0
        count_t2, count_t3 = 12, 8
        for i in range(count_t2 + count_t3):
            n_indices = 2 if i < count_t2 else 3
            space, coll, base = generated_instance(rng, n_indices)
            model_path = str(tmp_dir / f"instance_{i}.json")
            with open(model_path, "w") as fh:
                json.dump(collection_to_model(coll), fh, indent=1)

            start = time.perf_counter()
            code, _, _ = run_cli("validate", model_path)
            joint = build_joint(coll)
            contains_base = all(
                pt.contains_point(joint.body, v) for v in base.points
            )
            report = verify_representation(coll, joint)
            elapsed += time.perf_counter() - start

            self.entries.append(
                {
                    "space": space,
                    "coll": coll,
                    "base": base,
                    "model_path": model_path,
                    "validate_exit": code,
                    "joint": joint,
                    "contains_base": contains_base,
                    "representation": report,
                }
            )
        self.elapsed = elapsed


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return Pipeline(tmp_path_factory.mktemp("instances"))


def test_criterion_1_round_trip(pipeline):
    with criterion(1, "generated-instance round trip"):
        assert len(pipeline.entries) >= 20
        for entry in pipeline.entries:
            assert entry["validate_exit"] == 0
            assert entry["contains_base"]
            assert entry["representation"].passed
        assert pipeline.elapsed < 60.0, f"pipeline took {pipeline.elapsed:.1f}s"


def test_criterion_2_full_tuple_shortcut(pipeline):
    with criterion(2, "finite-index shortcut"):
        for entry in pipeline.entries:
            coll = entry["coll"]
            gamma = entry["space"].full_tuple()
            assert equals(entry["joint"].body, preimage_set(coll, gamma))


def test_criterion_3_structural_properties(pipeline):
    with criterion(3, "preimage property suite"):
        strict_seen = 0
        for entry in pipeline.entries:
            coll = entry["coll"]
            consistency = ConsistencyReport(check_permutation_consistency(coll).records
                                            + check_marginal_consistency(coll).records)
            report = property_suite(
                coll, entry["joint"], entry["representation"], consistency
            )
            assert report.passed
            strict_seen += sum(
                1
                for r in report.records
                if r.name == "covering tuple has smaller preimage"
                and r.note == "strict"
            )
        assert strict_seen >= 1


def test_emitted_vertices_are_dd_vertices(pipeline):
    """`verify --emit-vertices` reads the joint body's vertices straight
    from its H-rep; they are the vertices `dd_convert` gives."""
    for entry in pipeline.entries:
        body = entry["joint"].body
        fresh = [pt.Polytope(body.dim, hrep=body.hrep) for _ in range(2)]
        assert fresh[0].points == pt.dd_convert(fresh[1]).points


def test_criterion_4_necessity_direction(pipeline, tmp_path):
    with criterion(4, "shrunk set fails with verifiable witness"):
        mutated = None
        for entry in pipeline.entries:
            coll = entry["coll"]
            for tup in coll.supplied_tuples():
                if len(tup) == coll.space.n_indices:
                    continue  # shrink a proper-subset tuple
                body = coll.sets[tup].body
                if len(body.points) >= 2:
                    mutated = (entry, tup)
                    break
            if mutated:
                break
        assert mutated is not None
        entry, tup = mutated

        doc = json.load(open(entry["model_path"]))
        for item in doc["credal_sets"]:
            if tuple(item["tuple"]) == tup:
                item["vertices"] = item["vertices"][1:]  # drop one extreme point
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))

        code, out, _ = run_cli("validate", str(path))
        assert code == 1
        report = json.loads(out)
        _, mutated_coll, _ = load_model(str(path))
        verified = 0
        for rec in report["consistency"]["records"]:
            if rec["status"] != "fail" or not rec["certificate"]:
                continue
            if rec["direction"] != "restriction within supplied set":
                continue
            cert = parse_certificate(rec["certificate"])
            target = mutated_coll.sets[tuple(rec["beta"])]
            assert verify_witness_certificate(cert, target)
            # the gap holds at every vertex of the comparison set
            for v in target.body.points:
                assert (
                    dot(cert.functional, cert.point) - dot(cert.functional, v)
                    >= cert.gap
                )
            CERTIFICATES.append((cert, target.body))
            verified += 1
        assert verified >= 1


def test_criterion_5_classical_degeneration():
    with criterion(5, "all-singleton family degenerates classically"):
        space = make_space(("a", "b", "c"), ("0", "1"))
        marginals = {t: uniform_measure(2) for t in space.indices}
        sets = {}
        for tup in all_canonical_tuples(space):
            dim = 2 ** len(tup)
            # product of the singleton marginals over the tuple
            product_measure = []
            for idx in range(dim):
                outs = []
                rest = idx
                for _ in range(len(tup)):
                    rest, r = divmod(rest, 2)
                    outs.append(r)
                outs.reverse()
                mass = F(1)
                for t, o in zip(tup, outs):
                    mass *= marginals[t][o]
                product_measure.append(mass)
            sets[tup] = credal_set_from_vertices(
                space, tup, [tuple(product_measure)]
            )
        coll = CredalCollection(space, sets)
        joint = build_joint(coll)
        points = pt.dd_convert(joint.body).points
        # the unique joint law is the classical product construction
        expected = []
        for idx in range(space.path_count):
            outs = []
            rest = idx
            for _ in range(3):
                rest, r = divmod(rest, 2)
                outs.append(r)
            outs.reverse()
            mass = F(1)
            for t, o in zip(space.indices, outs):
                mass *= marginals[t][o]
            expected.append(mass)
        assert points == (tuple(expected),)
        for tup, cset in sets.items():
            image = pushforward_joint(joint, tup)
            assert pt.dd_convert(image.body).points == cset.body.points


def test_criterion_6_inconsistency_diagnosis(tmp_path):
    with criterion(6, "empty joint set diagnosed with provenance"):
        doc = {
            "Y": ["0", "1"],
            "T": ["a", "b"],
            "credal_sets": [
                {"tuple": ["a"], "mode": "polytope-v", "vertices": [["1", "0"]]},
                {"tuple": ["b"], "mode": "polytope-h", "hrep": []},
                {
                    "tuple": ["a", "b"],
                    "mode": "polytope-v",
                    "vertices": [["0", "0", "0", "1"]],
                },
            ],
        }
        model = tmp_path / "conflict.json"
        model.write_text(json.dumps(doc))
        out_path = tmp_path / "joint.json"
        code, _, _ = run_cli("build", str(model), "-o", str(out_path))
        assert code == 1
        built = json.loads(out_path.read_text())
        assert built["empty"] is True
        assert sorted(map(tuple, built["offending_tuples"])) == [
            ("a",),
            ("a", "b"),
        ]
        # the emitted Farkas combination re-verifies exactly
        rows = built["farkas"]["rows"]
        mults = [F(m) for m in built["farkas"]["multipliers"]]
        dim = built["dimension"]
        combined = [F(0)] * dim
        combined_rhs = F(0)
        for row, mult in zip(rows, mults):
            flip = -1 if row["sense"] == ">=" else 1
            for j, c in enumerate(row["coeffs"]):
                combined[j] += mult * flip * F(c)
            combined_rhs += mult * flip * F(row["rhs"])
        assert all(c >= 0 for c in combined)
        assert combined_rhs < 0


def test_criterion_7_expectation_oracle_equivalence():
    with criterion(7, "expectation bounds match vertex enumeration"):
        rng = random.Random(77)
        space = make_space(("a", "b"), ("0", "1"))
        pairs = 0
        for _ in range(60):
            dim = rng.choice([2, 4])
            tup = ("a",) if dim == 2 else ("a", "b")
            points = [
                random_simplex_point(rng, dim)
                for _ in range(rng.randint(1, 6))
            ]
            cset = credal_set_from_vertices(space, tup, points)
            f = tuple(
                F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)
            )
            assert lower_expectation(cset, f) == min(dot(f, v) for v in points)
            assert upper_expectation(cset, f) == max(dot(f, v) for v in points)
            pairs += 1
        assert pairs >= 50


def test_criterion_8_geometry_round_trips():
    with criterion(8, "double-description round trips and certificates"):
        rng = random.Random(88)
        done = 0
        while done < 30:
            dim = rng.randint(2, 5)
            ineqs = []
            for j in range(dim):
                unit = [F(0)] * dim
                unit[j] = F(1)
                ineqs.append((tuple(unit), F(1)))
                ineqs.append((tuple(-u for u in unit), F(1)))
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                if all(c == 0 for c in coeffs):
                    continue
                ineqs.append((coeffs, F(rng.randint(0, 3), rng.randint(1, 2))))
            p = pt.Polytope.from_hrep(dim, ineqs)
            if p.is_empty():
                continue
            q = pt.dd_convert(p)
            assert equals(p, q)
            if dim <= 4:
                assert list(q.points) == brute_force_vertices(dim, ineqs)
            # produce and register a separation certificate
            outside = tuple(v + F(2) for v in q.points[0])
            if not pt.contains_point(p, outside):
                cert = pt.separate(q, outside)
                CERTIFICATES.append((cert, q))
            done += 1
        assert CERTIFICATES
        for cert, target in CERTIFICATES:
            if isinstance(target, pt.Polytope):
                assert pt.verify_separation(cert, target)
            else:
                assert verify_witness_certificate(cert, target)


def test_criterion_9_finite_mode_cells():
    with criterion(9, "finite-mode cell enumeration"):
        space = make_space(("a", "b"), ("0", "1"))
        mu1 = (F(1, 2), F(1, 4), F(1, 8), F(1, 8))
        mu2 = (F(1, 4), F(1, 4), F(1, 4), F(1, 4))
        sets = {}
        for tup in all_canonical_tuples(space):
            m = dense_pushforward(space, tup)
            sets[tup] = credal_set_from_members(
                space, tup, [apply(m, mu1), apply(m, mu2)]
            )
        coll = CredalCollection(space, sets)
        joint = build_joint(coll, cell_cap=10000)
        assert joint.mode == "finite"
        assert {c.point for c in joint.cells} == {mu1, mu2}

        # oracle: exhaustive selection enumeration
        from itertools import product as iproduct

        reps = representative_tuples(coll)
        mats = {t: dense_pushforward(space, t) for t in reps}
        expected_cells = set()
        for choice in iproduct(*(coll.sets[t].members() for t in reps)):
            sel = dict(zip(reps, choice))
            full = sel[("a", "b")]
            if all(apply(mats[t], full) == v for t, v in sel.items()):
                expected_cells.add(full)
        assert {c.point for c in joint.cells} == expected_cells

        for tup in reps:
            image = pushforward_joint(joint, tup)
            expected = sorted({apply(mats[tup], p) for p in expected_cells})
            assert list(image.members()) == expected

        rep = verify_representation(coll, joint)
        assert rep.passed
