import json

import pytest

from credalkit.modelio import (
    ModelFormatError,
    dump_json,
    parse_certificate,
    parse_model,
    serialize_certificate,
)


def base_doc():
    return {
        "Y": ["0", "1"],
        "T": ["a", "b"],
        "credal_sets": [
            {"tuple": ["a"], "mode": "polytope-h", "hrep": []},
            {"tuple": ["b"], "mode": "polytope-h", "hrep": []},
            {"tuple": ["a", "b"], "mode": "polytope-h", "hrep": []},
        ],
    }


class TestParseModel:
    def test_minimal_document(self):
        space, coll, options = parse_model(base_doc())
        assert space.n_indices == 2
        assert coll.policy == "synthesized"
        assert options["finite_cap"] == 10000

    def test_duplicate_tuple_named(self):
        doc = base_doc()
        doc["credal_sets"].append(
            {"tuple": ["a"], "mode": "polytope-h", "hrep": []}
        )
        with pytest.raises(ModelFormatError, match=r"credal_sets\[3\]"):
            parse_model(doc)

    def test_unknown_mode_named(self):
        doc = base_doc()
        doc["credal_sets"][0]["mode"] = "spheres"
        with pytest.raises(ModelFormatError, match="mode"):
            parse_model(doc)

    def test_unknown_sense(self):
        doc = base_doc()
        doc["credal_sets"][0]["hrep"] = [
            {"coeffs": ["1", "0"], "sense": "<", "rhs": "1"}
        ]
        with pytest.raises(ModelFormatError, match="sense"):
            parse_model(doc)

    def test_supplied_policy_allows_permuted_tuples(self):
        doc = base_doc()
        doc["options"] = {"permutations": "supplied"}
        doc["credal_sets"].append(
            {"tuple": ["b", "a"], "mode": "polytope-h", "hrep": []}
        )
        _, coll, _ = parse_model(doc)
        assert ("b", "a") in coll.sets

    def test_synthesized_policy_rejects_permuted_tuples(self):
        doc = base_doc()
        doc["credal_sets"].append(
            {"tuple": ["b", "a"], "mode": "polytope-h", "hrep": []}
        )
        with pytest.raises(ModelFormatError, match="canonical"):
            parse_model(doc)

    def test_empty_polytope_h_rejected(self):
        doc = base_doc()
        doc["credal_sets"][0]["hrep"] = [
            {"coeffs": ["1", "0"], "sense": ">=", "rhs": "2"}
        ]
        with pytest.raises(ModelFormatError, match="empty"):
            parse_model(doc)

    def test_bad_measure_vector_in_members(self):
        doc = base_doc()
        doc["credal_sets"][0] = {
            "tuple": ["a"],
            "mode": "finite",
            "members": [["1/2", "1/3"]],
        }
        with pytest.raises(ModelFormatError, match="sum"):
            parse_model(doc)

    @pytest.mark.parametrize("vertices, field, message", [
        ([["1/2", "0.5"]], r"credal_sets\[0\]\.vertices\[0\]\[1\]", "not a rational"),
        ([["1", "0"], ["1/0", "1"]], r"vertices\[1\]\[0\]", "zero denominator"),
        ([["1/00", "1"]], r"vertices\[0\]\[0\]", "zero denominator"),
        ([["1" * 5000 + "/2", "1"]], r"vertices\[0\]\[0\]", "digits"),
        ([["1", "0"], ["0", "1" * 5000]], r"vertices\[1\]\[1\]", "digits"),
        ([["3/2", "-1/2"]], r"credal_sets\[0\]", "negative"),
        ([["1/2", "1/3"]], r"credal_sets\[0\]", "sum"),
        ([["1/2", "1/2", "0"]], r"credal_sets\[0\]", "3 entries, expected 2"),
        ([], r"credal_sets\[0\]", "nonempty"),
        ([[1, 0]], r"vertices\[0\]\[0\]", "expected a rational string"),
    ], ids=["grammar", "zero-denominator", "zero-denominator-digits",
            "long-numerator", "long-entry", "negative-entry", "sum", "dimension",
            "empty-set", "not-a-string"])
    def test_vertex_checks_named(self, vertices, field, message):
        """Each input check on a polytope-v set still refuses its input,
        naming the field."""
        doc = base_doc()
        doc["credal_sets"][0] = {"tuple": ["a"], "mode": "polytope-v",
                                 "vertices": vertices}
        with pytest.raises(ModelFormatError, match=field) as info:
            parse_model(doc)
        assert message in str(info.value)

    def test_bad_cap(self):
        for cap in (0, True):
            doc = base_doc()
            doc["options"] = {"finite_cap": cap}
            with pytest.raises(ModelFormatError, match="finite_cap"):
                parse_model(doc)

    def test_unhashable_labels_named(self):
        for key, pos, label in (("T", 0, ["a"]), ("Y", 1, {"x": "1"})):
            doc = base_doc()
            doc[key][pos] = label
            with pytest.raises(ModelFormatError, match=rf"model\.{key}\[{pos}\]"):
                parse_model(doc)
        doc = base_doc()
        doc["credal_sets"][2]["tuple"] = ["a", ["b"]]
        with pytest.raises(ModelFormatError, match=r"credal_sets\[2\]\.tuple\[1\]"):
            parse_model(doc)

    def test_scalar_labels_accepted(self):
        doc = base_doc()
        doc["Y"] = [0, None]
        doc["T"] = [1, "b"]
        for entry in doc["credal_sets"]:
            entry["tuple"] = [1 if t == "a" else t for t in entry["tuple"]]
        space, coll, _ = parse_model(doc)
        assert space.indices == (1, "b")
        assert (1, "b") in coll.sets


class TestCertificates:
    def test_separation_round_trip(self):
        import credalkit.polytope as pt

        p = pt.Polytope.simplex(2)
        cert = pt.separate(p, (2, -1))
        doc = serialize_certificate(cert)
        back = parse_certificate(json.loads(dump_json(doc)))
        assert back == cert
        assert pt.verify_separation(back, p)

    def test_finite_separation_round_trip(self):
        from fractions import Fraction as F

        from credalkit.credal import (
            closedness_witness,
            credal_set_from_members,
            verify_finite_separation,
        )
        from credalkit.spaces import make_space, point_mass, uniform_measure

        space = make_space(("a", "b"), ("0", "1"))
        cset = credal_set_from_members(
            space, ("a",), [point_mass(2, 0), point_mass(2, 1)]
        )
        cert = closedness_witness(cset, uniform_measure(2))
        back = parse_certificate(json.loads(dump_json(serialize_certificate(cert))))
        assert back == cert
        assert verify_finite_separation(back)
        assert back.gap == F(1, 2)

    def test_dump_is_deterministic(self):
        doc = {"b": 1, "a": [{"y": 2, "x": 3}]}
        assert dump_json(doc) == dump_json(json.loads(dump_json(doc)))
