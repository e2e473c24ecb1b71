import json
import random
import subprocess
import sys

import pytest

import credalkit.credal as cr
import credalkit.joint as jt
import credalkit.polytope as pt
from credalkit.cli import main
from gen import collection_to_model, generated_instance, supplied_variants

MODULE = [sys.executable, "-m", "credalkit.cli"]


def run_cli(*args):
    return subprocess.run(
        MODULE + list(args), capture_output=True, text=True
    )


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def full_simplex_model():
    return {
        "Y": ["0", "1"],
        "T": ["a", "b"],
        "credal_sets": [
            {"tuple": ["a"], "mode": "polytope-h", "hrep": []},
            {"tuple": ["b"], "mode": "polytope-h", "hrep": []},
            {"tuple": ["a", "b"], "mode": "polytope-h", "hrep": []},
        ],
    }


def delta_conflict_model():
    return {
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


def segment_model():
    # first marginal confined to [1/3, 2/3]; the joint set carries the
    # matching constraint so the family is consistent
    return {
        "Y": ["0", "1"],
        "T": ["a", "b"],
        "credal_sets": [
            {
                "tuple": ["a"],
                "mode": "polytope-h",
                "hrep": [
                    {"coeffs": ["1", "0"], "sense": ">=", "rhs": "1/3"},
                    {"coeffs": ["1", "0"], "sense": "<=", "rhs": "2/3"},
                ],
            },
            {"tuple": ["b"], "mode": "polytope-h", "hrep": []},
            {
                "tuple": ["a", "b"],
                "mode": "polytope-h",
                "hrep": [
                    {"coeffs": ["1", "1", "0", "0"], "sense": ">=", "rhs": "1/3"},
                    {"coeffs": ["1", "1", "0", "0"], "sense": "<=", "rhs": "2/3"},
                ],
            },
        ],
    }


class TestValidate:
    def test_full_simplex_exit_zero(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        res = run_cli("validate", model)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["consistency"]["passed"] is True

    def test_conflict_exit_one_with_witness(self, tmp_path):
        model = write(tmp_path, "m.json", delta_conflict_model())
        res = run_cli("validate", model)
        assert res.returncode == 1
        report = json.loads(res.stdout)
        failures = [
            r
            for r in report["consistency"]["records"]
            if r["status"] == "fail"
        ]
        assert failures and failures[0]["witness"] is not None
        assert failures[0]["certificate"]["type"] == "separation"

    def test_zero_denominator_exit_two(self, tmp_path):
        doc = full_simplex_model()
        doc["credal_sets"][0] = {
            "tuple": ["a"],
            "mode": "polytope-v",
            "vertices": [["1/0", "0"]],
        }
        model = write(tmp_path, "m.json", doc)
        res = run_cli("validate", model)
        assert res.returncode == 2
        assert "1/0" in res.stderr

    @pytest.mark.parametrize("text, message", [
        ("1/00", "zero denominator"),
        ("1" * 5000 + "/3", "digits"),
    ], ids=["zero-denominator", "over-long-numerator"])
    def test_unreadable_rational_exit_two(self, tmp_path, text, message):
        """A zero denominator written with more digits than one, or a
        numerator past int's digit limit, is an input error naming the
        field, not a traceback."""
        doc = full_simplex_model()
        doc["credal_sets"][0] = {
            "tuple": ["a"],
            "mode": "polytope-v",
            "vertices": [["1", "0"], ["0", text]],
        }
        res = run_cli("validate", write(tmp_path, "m.json", doc))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "model.credal_sets[0].vertices[1][1]" in res.stderr
        assert message in res.stderr

    def test_array_label_exit_two(self, tmp_path):
        doc = {
            "Y": ["0", "1"],
            "T": [["a"], "b"],
            "credal_sets": [
                {"tuple": ["b"], "mode": "polytope-v", "vertices": [["1/2", "1/2"]]}
            ],
        }
        model = write(tmp_path, "m.json", doc)
        res = run_cli("validate", model)
        assert res.returncode == 2
        assert "model.T[0]" in res.stderr

    def test_missing_file_exit_two(self):
        res = run_cli("validate", "/nonexistent/model.json")
        assert res.returncode == 2

    def test_report_determinism(self, tmp_path):
        model = write(tmp_path, "m.json", segment_model())
        a = run_cli("validate", model, "--json").stdout
        b = run_cli("validate", model, "--json").stdout
        assert a == b

    def test_witness_reverifies_from_report(self, tmp_path):
        from credalkit.credal import verify_witness_certificate
        from credalkit.modelio import load_model, parse_certificate

        model = write(tmp_path, "m.json", delta_conflict_model())
        res = run_cli("validate", model)
        report = json.loads(res.stdout)
        _, coll, _ = load_model(model)
        checked = 0
        for rec in report["consistency"]["records"]:
            if rec["status"] != "fail" or rec["certificate"] is None:
                continue
            cert = parse_certificate(rec["certificate"])
            if rec["direction"] == "restriction within supplied set":
                target = coll.sets[tuple(rec["beta"])]
                assert verify_witness_certificate(cert, target)
                checked += 1
        assert checked


class TestBuild:
    def test_full_model_writes_simplex_rows(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        out = str(tmp_path / "joint.json")
        res = run_cli("build", model, "-o", out)
        assert res.returncode == 0
        doc = json.loads(open(out).read())
        assert doc["empty"] is False
        assert doc["dimension"] == 4
        origins = {json.dumps(r["origin"]) for r in doc["rows"]}
        assert origins == {json.dumps("simplex")}

    def test_singleton_model_pins_measure(self, tmp_path):
        doc = full_simplex_model()
        doc["credal_sets"][2] = {
            "tuple": ["a", "b"],
            "mode": "polytope-v",
            "vertices": [["1/4", "1/4", "1/4", "1/4"]],
        }
        doc["credal_sets"][0] = {
            "tuple": ["a"],
            "mode": "polytope-v",
            "vertices": [["1/2", "1/2"]],
        }
        doc["credal_sets"][1] = {
            "tuple": ["b"],
            "mode": "polytope-v",
            "vertices": [["1/2", "1/2"]],
        }
        model = write(tmp_path, "m.json", doc)
        out = str(tmp_path / "joint.json")
        res = run_cli("build", model, "-o", out)
        assert res.returncode == 0
        built = json.loads(open(out).read())
        eq_rows = [r for r in built["rows"] if r["sense"] == "="]
        assert len(eq_rows) >= 4  # the unique measure is pinned by equalities

    def test_inconsistent_model_diagnosed(self, tmp_path):
        model = write(tmp_path, "m.json", delta_conflict_model())
        out = str(tmp_path / "joint.json")
        res = run_cli("build", model, "-o", out)
        assert res.returncode == 1
        doc = json.loads(open(out).read())
        assert doc["empty"] is True
        assert sorted(map(tuple, doc["offending_tuples"])) == [
            ("a",),
            ("a", "b"),
        ]
        assert doc["farkas"]["multipliers"]
        assert res.stderr == (
            "joint set is empty; offending tuples: ('a',), ('a', 'b')\n"
        )

    def test_finite_mode_cells_written(self, tmp_path):
        doc = {
            "Y": ["0", "1"],
            "T": ["a", "b"],
            "credal_sets": [
                {"tuple": ["a"], "mode": "finite",
                 "members": [["3/4", "1/4"], ["1/2", "1/2"]]},
                {"tuple": ["b"], "mode": "finite",
                 "members": [["5/8", "3/8"], ["1/2", "1/2"]]},
                {"tuple": ["a", "b"], "mode": "finite",
                 "members": [
                     ["1/2", "1/4", "1/8", "1/8"],
                     ["1/4", "1/4", "1/4", "1/4"],
                 ]},
            ],
        }
        model = write(tmp_path, "m.json", doc)
        out = str(tmp_path / "joint.json")
        res = run_cli("build", model, "-o", out)
        assert res.returncode == 0
        built = json.loads(open(out).read())
        assert built["mode"] == "finite"
        points = {tuple(c["point"]) for c in built["cells"]}
        assert points == {
            ("1/2", "1/4", "1/8", "1/8"),
            ("1/4", "1/4", "1/4", "1/4"),
        }


    def test_finite_empty_joint_mixed_labels(self, tmp_path):
        # index labels 1 and "b": the offending tuples cannot be sorted as
        # plain tuples, yet both commands report them
        doc = {
            "Y": ["0", "1"],
            "T": [1, "b"],
            "credal_sets": [
                {"tuple": [1], "mode": "finite", "members": [["1", "0"]]},
                {"tuple": ["b"], "mode": "finite", "members": [["0", "1"]]},
                {"tuple": [1, "b"], "mode": "finite",
                 "members": [["1", "0", "0", "0"]]},
            ],
        }
        model = write(tmp_path, "m.json", doc)
        out = str(tmp_path / "joint.json")
        res = run_cli("build", model, "-o", out)
        assert res.returncode == 1, res.stderr
        built = json.loads(open(out).read())
        res = run_cli("verify", model, "--json")
        assert res.returncode == 1, res.stderr
        report = json.loads(res.stdout)
        for listed in (built["offending_tuples"],
                       report["joint"]["offending_tuples"]):
            assert listed and [1, "b"] in listed
            assert all(t in ([1], ["b"], [1, "b"]) for t in listed)

    def test_finite_empty_joint_names_tuples(self, tmp_path):
        # the stderr line names the tuples the build file lists, as the
        # polytope path does
        doc = {
            "Y": ["0", "1"],
            "T": ["a", "b"],
            "credal_sets": [
                {"tuple": ["a"], "mode": "finite",
                 "members": [["1", "0"], ["1/2", "1/2"]]},
                {"tuple": ["b"], "mode": "finite",
                 "members": [["1", "0"], ["0", "1"]]},
                {"tuple": ["a", "b"], "mode": "finite",
                 "members": [["0", "0", "0", "1"], ["1/2", "0", "0", "1/2"]]},
            ],
        }
        model = write(tmp_path, "m.json", doc)
        out = str(tmp_path / "joint.json")
        res = run_cli("build", model, "-o", out)
        assert res.returncode == 1, res.stderr
        built = json.loads(open(out).read())
        assert built["offending_tuples"]
        named = ", ".join(str(tuple(t)) for t in built["offending_tuples"])
        assert res.stderr == f"joint set is empty; offending tuples: {named}\n"


class TestVerify:
    def test_full_pipeline_pass(self, tmp_path):
        model = write(tmp_path, "m.json", segment_model())
        res = run_cli("verify", model, "--json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["representation"]["passed"] is True
        assert report["properties"]["passed"] is True

    def test_supplied_shuffles_read_off_validate(self, tmp_path):
        """With every permuted variant supplied, each permutation record
        of the suite reads validate's permutation records of its pair."""
        coll = supplied_variants(generated_instance(random.Random(812), 3)[1])
        model = write(tmp_path, "m.json", collection_to_model(coll))
        res = run_cli("verify", model, "--json")
        assert res.returncode == 0, res.stderr
        records = json.loads(res.stdout)["properties"]["records"]
        shuffled = [r["status"] for r in records
                    if r["property"] == "permutation-invariant preimage"]
        assert shuffled == ["pass"] * 8

    def test_uniform_joint_full_marginal_fails(self, tmp_path):
        doc = full_simplex_model()
        doc["credal_sets"][2] = {
            "tuple": ["a", "b"],
            "mode": "polytope-v",
            "vertices": [["1/4", "1/4", "1/4", "1/4"]],
        }
        model = write(tmp_path, "m.json", doc)
        res = run_cli("verify", model, "--json")
        assert res.returncode == 1
        report = json.loads(res.stdout)
        recs = [
            r
            for r in report["representation"]["records"]
            if r["status"] == "fail"
        ]
        assert recs
        assert recs[0]["witness"] is not None

    def test_singleton_note_and_vertices(self, tmp_path):
        doc = {
            "Y": ["0", "1"],
            "T": ["a", "b", "c"],
            "credal_sets": [],
        }
        import itertools

        for n in (1, 2, 3):
            for tup in itertools.combinations(("a", "b", "c"), n):
                dim = 2 ** len(tup)
                doc["credal_sets"].append(
                    {
                        "tuple": list(tup),
                        "mode": "polytope-v",
                        "vertices": [[f"1/{dim}"] * dim],
                    }
                )
        model = write(tmp_path, "m.json", doc)
        res = run_cli("verify", model, "--json", "--emit-vertices")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert "joint set is a single measure" in report["notes"]
        assert report["joint"]["vertices"] == [["1/8"] * 8]

    @staticmethod
    def pinned_by_inequalities(bound):
        # (a) caps p(0) at `bound`, (a,b) is the segment from
        # [1/2,0,1/2,0] to [1,0,0,0]: with bound 1/2 only its first end
        # is left, though no equality row says so
        return {
            "Y": ["0", "1"],
            "T": ["a", "b"],
            "credal_sets": [
                {
                    "tuple": ["a"],
                    "mode": "polytope-h",
                    "hrep": [{"coeffs": ["1", "0"], "sense": "<=", "rhs": bound}],
                },
                {"tuple": ["b"], "mode": "polytope-h", "hrep": []},
                {
                    "tuple": ["a", "b"],
                    "mode": "polytope-v",
                    "vertices": [["1/2", "0", "1/2", "0"], ["1", "0", "0", "0"]],
                },
            ],
        }

    def test_singleton_note_from_inequalities(self, tmp_path):
        model = write(tmp_path, "m.json", self.pinned_by_inequalities("1/2"))
        res = run_cli("verify", model, "--json", "--emit-vertices")
        report = json.loads(res.stdout)
        assert report["joint"]["vertices"] == [["1/2", "0", "1/2", "0"]]
        assert report["notes"] == ["joint set is a single measure"]

    def test_no_singleton_note_for_a_segment(self, tmp_path):
        model = write(tmp_path, "m.json", self.pinned_by_inequalities("3/4"))
        res = run_cli("verify", model, "--json", "--emit-vertices")
        report = json.loads(res.stdout)
        assert report["joint"]["vertices"] == [
            ["1/2", "0", "1/2", "0"], ["3/4", "0", "1/4", "0"]
        ]
        assert report["notes"] == []

    def test_negative_vertex_limit_rejected(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        res = run_cli("verify", model, "--emit-vertices", "--vertex-limit", "-1")
        assert res.returncode == 2
        assert "--vertex-limit" in res.stderr and not res.stdout
        res = run_cli("verify", model, "--json", "--emit-vertices", "--vertex-limit", "0")
        assert res.returncode == 0
        assert json.loads(res.stdout)["notes"] == [
            "vertex list withheld: 4 vertices exceed the limit of 0"
        ]

    def test_report_written_atomically(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        out = str(tmp_path / "report.json")
        res = run_cli("verify", model, "--report", out)
        assert res.returncode == 0
        report = json.loads(open(out).read())
        assert report["joint"]["empty"] is False


class TestExpect:
    def test_bounds_over_full_simplex(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0"]')
        low = run_cli("expect", model, "--tuple", "a", "--function-file", fpath)
        assert low.returncode == 0 and low.stdout.strip() == "0"
        up = run_cli(
            "expect", model, "--tuple", "a", "--function-file", fpath,
            "--bound", "upper",
        )
        assert up.stdout.strip() == "1"

    def test_constant_functional(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["3/7", "3/7"]')
        res = run_cli("expect", model, "--tuple", "b", "--function-file", fpath)
        assert res.stdout.strip() == "3/7"

    def test_segment_upper(self, tmp_path):
        model = write(tmp_path, "m.json", segment_model())
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0"]')
        res = run_cli(
            "expect", model, "--tuple", "a", "--function-file", fpath,
            "--bound", "upper",
        )
        assert res.stdout.strip() == "2/3"

    def test_joint_flag(self, tmp_path):
        model = write(tmp_path, "m.json", segment_model())
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0"]')
        res = run_cli(
            "expect", model, "--tuple", "a", "--function-file", fpath,
            "--bound", "upper", "--joint",
        )
        assert res.returncode == 0
        assert res.stdout.strip() == "2/3"

    def test_joint_flag_empty_names_tuples(self, tmp_path):
        # the same stderr line as build on the same model
        model = write(tmp_path, "m.json", delta_conflict_model())
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0"]')
        res = run_cli(
            "expect", model, "--tuple", "a", "--function-file", fpath, "--joint",
        )
        built = run_cli("build", model, "-o", str(tmp_path / "joint.json"))
        assert res.returncode == built.returncode == 1
        assert res.stdout == ""
        assert res.stderr == built.stderr == (
            "joint set is empty; offending tuples: ('a',), ('a', 'b')\n"
        )

    def test_wrong_length_exit_two(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0", "0"]')
        res = run_cli("expect", model, "--tuple", "a", "--function-file", fpath)
        assert res.returncode == 2

    def test_zero_denominator_in_function_exit_two(self, tmp_path):
        model = write(tmp_path, "m.json", full_simplex_model())
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "2/000"]')
        res = run_cli("expect", model, "--tuple", "a", "--function-file", fpath)
        assert res.returncode == 2
        assert "function[1]: zero denominator" in res.stderr

    def test_non_string_index_labels(self, tmp_path):
        doc = full_simplex_model()
        doc["T"] = [1, "b"]
        doc["credal_sets"][0]["tuple"] = [1]
        doc["credal_sets"][2]["tuple"] = [1, "b"]
        model = write(tmp_path, "m.json", doc)
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0"]')
        res = run_cli("expect", model, "--tuple", "1", "--function-file", fpath,
                      "--bound", "upper")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "1"
        open(fpath, "w").write('["1", "0", "0", "0"]')
        res = run_cli("expect", model, "--tuple", "b,1", "--function-file", fpath,
                      "--bound", "upper", "--joint")
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "1"

    def test_tuple_piece_errors_exit_two(self, tmp_path):
        doc = full_simplex_model()
        doc["T"] = [1, "1"]
        doc["credal_sets"][0]["tuple"] = [1]
        doc["credal_sets"][1]["tuple"] = ["1"]
        doc["credal_sets"][2]["tuple"] = [1, "1"]
        model = write(tmp_path, "m.json", doc)
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0"]')
        res = run_cli("expect", model, "--tuple", "1", "--function-file", fpath)
        assert res.returncode == 2
        assert "'1'" in res.stderr and "more than one" in res.stderr
        res = run_cli("expect", model, "--tuple", "2", "--function-file", fpath)
        assert res.returncode == 2
        assert "'2'" in res.stderr

    def test_unanswerable_tuple_exit_two(self, tmp_path):
        """A tuple the model cannot answer is an input error: a shuffle
        the supplied policy was not given (--joint answers it from the
        joint set), or a tuple whose index set has no set at all."""
        doc = full_simplex_model()
        doc["options"] = {"permutations": "supplied"}
        model = write(tmp_path, "m.json", doc)
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0", "0", "0"]')
        res = run_cli("expect", model, "--tuple", "b,a", "--function-file", fpath)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == (
            "error: no credal set for ('b', 'a') under the 'supplied' "
            "permutation policy\n"
        )
        res = run_cli("expect", model, "--tuple", "b,a", "--function-file", fpath,
                      "--bound", "upper", "--joint")
        assert res.returncode == 0 and res.stdout.strip() == "1"
        doc = full_simplex_model()
        doc["T"].append("c")
        model = write(tmp_path, "m3.json", doc)
        res = run_cli("expect", model, "--tuple", "c,a", "--function-file", fpath)
        assert res.returncode == 2 and res.stderr == (
            "error: no credal set for ('c', 'a') under the 'synthesized' "
            "permutation policy\n"
        )

    def test_joint_flag_finite_mode(self, tmp_path):
        doc = {
            "Y": ["0", "1"],
            "T": ["a", "b"],
            "credal_sets": [
                {"tuple": ["a"], "mode": "finite",
                 "members": [["3/4", "1/4"], ["1/2", "1/2"]]},
                {"tuple": ["b"], "mode": "finite",
                 "members": [["5/8", "3/8"], ["1/2", "1/2"]]},
                {"tuple": ["a", "b"], "mode": "finite",
                 "members": [
                     ["1/2", "1/4", "1/8", "1/8"],
                     ["1/4", "1/4", "1/4", "1/4"],
                 ]},
            ],
        }
        model = write(tmp_path, "m.json", doc)
        fpath = str(tmp_path / "f.json")
        open(fpath, "w").write('["1", "0"]')
        res = run_cli(
            "expect", model, "--tuple", "a", "--function-file", fpath,
            "--bound", "upper", "--joint",
        )
        assert res.returncode == 0
        assert res.stdout.strip() == "3/4"


class TestExtend:
    def test_uniform_split(self, tmp_path):
        p = tmp_path / "part.json"
        p.write_text(
            json.dumps({"size": 3, "atoms": [[0, 1], [2]], "masses": ["1/2", "1/2"]})
        )
        res = run_cli("extend", str(p))
        assert res.returncode == 0
        assert json.loads(res.stdout) == ["1/4", "1/4", "1/2"]

    def test_invalid_partition_exit_two(self, tmp_path):
        p = tmp_path / "part.json"
        p.write_text(
            json.dumps({"size": 3, "atoms": [[0, 1]], "masses": ["1"]})
        )
        res = run_cli("extend", str(p))
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([3, [[0, 1], [2]]], "partition:"),
            ({"size": 2, "atoms": [0, 1], "masses": ["1/2", "1/2"]},
             "partition.atoms[0]:"),
            ({"size": 2, "atoms": [[0], ["x"]], "masses": ["1/2", "1/2"]},
             "partition.atoms[1][0]:"),
            ({"size": 2, "atoms": [[0], [1.5]], "masses": ["1/2", "1/2"]},
             "partition.atoms[1][0]:"),
            ({"size": 2, "atoms": [[0], [True]], "masses": ["1/2", "1/2"]},
             "partition.atoms[1][0]:"),
            ({"size": True, "atoms": [[0]], "masses": ["1"]}, "partition.size:"),
        ],
        ids=["array", "flat-atoms", "string-point", "float-point", "bool-point",
             "bool-size"],
    )
    def test_malformed_partition_named(self, tmp_path, doc, field):
        p = write(tmp_path, "part.json", doc)
        res = run_cli("extend", p)
        assert res.returncode == 2
        assert res.stderr.startswith(f"error: {field}")
        assert "Traceback" not in res.stderr


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["validate", "{dir}"],
            ["build", "{dir}", "-o", "{dir}/out.json"],
            ["verify", "{dir}"],
            ["expect", "{dir}", "--tuple", "a", "--function-file", "{dir}"],
            ["expect", "{model}", "--tuple", "a", "--function-file", "{dir}"],
            ["extend", "{dir}"],
        ],
        ids=["validate", "build", "verify", "expect-model", "expect-function",
             "extend"],
    )
    def test_directory_exit_two(self, tmp_path, args):
        model = write(tmp_path, "m.json", full_simplex_model())
        res = run_cli(*[a.format(dir=tmp_path, model=model) for a in args])
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("raw", [b'{"Y": [', b'["\xff"]'], ids=["json", "utf-8"])
    @pytest.mark.parametrize(
        "args",
        [
            ["validate", "{bad}"],
            ["expect", "{model}", "--tuple", "a", "--function-file", "{bad}"],
            ["extend", "{bad}"],
        ],
        ids=["model", "function", "partition"],
    )
    def test_invalid_json_exit_two(self, tmp_path, capsys, args, raw):
        """A model, function or partition file that is not JSON, or not
        UTF-8, exits 2 with one line naming the file."""
        model = write(tmp_path, "m.json", full_simplex_model())
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        with pytest.raises(SystemExit) as done:
            main([a.format(bad=bad, model=model) for a in args])
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON (")
        assert err.count("\n") == 1


class TestResourceCap:
    def test_finite_cap_exit_three(self, tmp_path):
        doc = {
            "Y": ["0", "1"],
            "T": ["a", "b"],
            "credal_sets": [
                {
                    "tuple": ["a"],
                    "mode": "finite",
                    "members": [["1", "0"], ["0", "1"], ["1/2", "1/2"]],
                },
                {
                    "tuple": ["b"],
                    "mode": "finite",
                    "members": [["1", "0"], ["0", "1"], ["1/2", "1/2"]],
                },
                {
                    "tuple": ["a", "b"],
                    "mode": "finite",
                    "members": [
                        ["1", "0", "0", "0"],
                        ["0", "1", "0", "0"],
                        ["0", "0", "1", "0"],
                    ],
                },
            ],
            "options": {"finite_cap": 8},
        }
        model = write(tmp_path, "m.json", doc)
        out = str(tmp_path / "joint.json")
        res = run_cli("build", model, "-o", out)
        assert res.returncode == 3
        assert "cap" in res.stderr


    def test_double_description_cap_exit_three(self, tmp_path, monkeypatch, capsys):
        # the (a, b) simplex's vertex enumeration starts from 4 rays
        model = write(tmp_path, "m.json", full_simplex_model())
        monkeypatch.setattr(pt, "RAY_CAP", 3)
        with pytest.raises(SystemExit) as done:
            main(["validate", model])
        assert done.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: vertex enumeration: ") and "3 rays" in err


def test_verify_checks_the_representation_once(tmp_path, monkeypatch):
    """The property suite reuses the representation report of `verify`."""
    _, coll, _ = generated_instance(random.Random(31), 3)
    model = write(tmp_path, "m.json", collection_to_model(coll))
    calls = []
    real = jt.verify_representation
    monkeypatch.setattr(
        jt, "verify_representation",
        lambda *args: calls.append(args) or real(*args),
    )
    with pytest.raises(SystemExit) as done:
        main(["verify", model, "--report", str(tmp_path / "report.json")])
    assert done.value.code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["properties"]["passed"] and report["representation"]["passed"]
    assert len(calls) == 1


class TestMixedModes:
    """A model that mixes finite and polytope sets has no joint set: the
    commands that build one exit 2 with an error line."""

    MODEL = {
        "Y": ["0", "1"],
        "T": ["a", "b"],
        "credal_sets": [
            {"tuple": ["a"], "mode": "finite", "members": [["1/2", "1/2"]]},
            {"tuple": ["b"], "mode": "polytope-h", "hrep": []},
            {"tuple": ["a", "b"], "mode": "polytope-h", "hrep": []},
        ],
    }
    ERROR = (
        "error: joint construction needs all sets in one mode; mix of "
        "finite and polytope sets is not supported\n"
    )

    @pytest.mark.parametrize(
        "args",
        [
            ["build", "{model}", "-o", "{dir}/joint.json"],
            ["verify", "{model}"],
            ["expect", "{model}", "--tuple", "a", "--function-file", "{f}",
             "--joint"],
        ],
        ids=["build", "verify", "expect-joint"],
    )
    def test_joint_set_needs_one_mode_exit_two(self, tmp_path, args):
        model = write(tmp_path, "m.json", self.MODEL)
        f = write(tmp_path, "f.json", ["1", "0"])
        res = run_cli(*[a.format(dir=tmp_path, model=model, f=f) for a in args])
        assert res.returncode == 2
        assert res.stderr == self.ERROR

    def test_verify_stops_before_any_check(self, tmp_path, monkeypatch, capsys):
        """verify finds the mode mix before it decides a record."""
        model = write(tmp_path, "m.json", self.MODEL)

        def refuse(coll):
            raise AssertionError("a consistency check ran")

        monkeypatch.setattr(cr, "check_permutation_consistency", refuse)
        monkeypatch.setattr(cr, "check_marginal_consistency", refuse)
        with pytest.raises(SystemExit) as done:
            main(["verify", model])
        assert done.value.code == 2
        assert capsys.readouterr().err == self.ERROR
