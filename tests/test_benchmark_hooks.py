"""The benchmark's hooks into the program still resolve.

perfbench/layers.py names the functions it wraps for tracing and the
lru_cache'd coordinate-map builders whose caches perfbench/run.py clears
before every operation, and reads the kernel's first two arguments and
its Fraction results. A rename or a contract change in the program would
break the benchmark without failing anything else, so this checks them,
and that the layers it wraps see every LP.
"""

import importlib
import inspect
import json
import os
import random
import types
from fractions import Fraction

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def load_layers():
    # executed from its source text, so nothing is written next to it
    with open(LAYERS) as fh:
        code = compile(fh.read(), LAYERS, "exec")
    module = types.ModuleType("perfbench_layers")
    exec(code, module.__dict__)
    return module


def test_wrapped_functions_resolve():
    layers = load_layers()
    for _, module, names in layers.WRAPPED:
        mod = importlib.import_module(f"credalkit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"credalkit.{module}.{name}"


def test_map_builders_are_cached():
    layers = load_layers()
    spaces = importlib.import_module("credalkit.spaces")
    for name in layers.MAP_BUILDERS:
        fn = getattr(spaces, name)
        fn.cache_clear()
        assert fn.cache_info().currsize == 0


def test_kernel_info_reads_shape_and_fractions():
    layers = load_layers()
    backend = importlib.import_module("credalkit._backend")
    params = list(inspect.signature(backend.simplex_solve).parameters)
    assert params[:2] == ["m", "n"]
    cases = [
        # the row [1, 2 | 3] over 2 is x0/2 + x1 = 3/2: optimal at (0, 3/2)
        ((1, 2, [[1, 2, 3]], [2], [1, 1]), "optimal", 2),
        # x0 + x1 = 1 and x0 + x1 = 2: infeasible, y = (-1, 1)
        ((2, 2, [[1, 1, 1], [1, 1, 2]], [1, 1], [0, 0]), "infeasible", 1),
    ]
    for args, status, bits in cases:
        result = backend.simplex_solve(*args)
        assert result[0] == status
        values = result[1] if status == "optimal" else result[2]
        assert all(type(v) is Fraction for v in values)
        info = layers._kernel_info(args, result)
        assert info == {"cells": args[0] * args[1], "bits": bits}


def traced(layers, work):
    """Run `work` with every WRAPPED function wrapped; returns its result
    and the tracer's spans and span info."""
    modules = {
        module: importlib.import_module(f"credalkit.{module}")
        for _, module, _ in layers.WRAPPED
    }
    tracer = layers.Tracer(modules)
    tracer.install()
    try:
        result = work()
    finally:
        tracer.uninstall()
    return result, tracer.spans, tracer.info


def ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield p
        p = spans[p][3]


def test_every_kernel_call_is_an_lp_span():
    """A build and the representation check on the joint set it returns,
    reloaded from its H-rep the way perfbench/run.py reads a build file,
    a maximization over that reloaded set, which runs in its LP context,
    and a build with V_T enlarged by a point mass: every kernel call
    sits below a traced `lp_solve` span, so the lp layer counts every LP
    (LP-context ones included), and the redundancy span sees the
    inequality rows and returns kept indices."""
    layers = load_layers()
    gen = importlib.import_module("gen")
    pt = importlib.import_module("credalkit.polytope")
    jt = importlib.import_module("credalkit.joint")
    # |T| = 3: at |T| = 2 this family's enlarged V_T leaves P = pre(V_T)
    _, coll, _ = gen.generated_instance(random.Random(5), 3)
    enlarged = gen.enlarged_full_tuple(coll)

    def work():
        model = jt.build_joint(coll)
        h = model.body.hrep
        body = pt.Polytope(model.dim, hrep=pt.HRep(model.dim, h.ineqs, h.eqs),
                           empty=False)
        reloaded = jt.JointModel(coll.space, "polytope", body, model.ineq_origins,
                                 model.eq_origins, (), None)
        report = jt.verify_representation(coll, reloaded)
        status, _, _ = pt._maximize(body, (1,) + (0,) * (model.dim - 1))
        assert status == "optimal"
        jt.build_joint(enlarged)
        return model, report

    (model, report), spans, info = traced(layers, work)
    assert report.passed
    layer_of = [name.split(".")[0] for name, *_ in spans]
    kernel = [i for i, layer in enumerate(layer_of) if layer == "kernel"]
    assert kernel
    for i in kernel:
        p = spans[i][3]
        while p >= 0 and layer_of[p] != "lp":
            p = spans[p][3]
        assert p >= 0, "a kernel call outside every traced lp_solve"
    redundancy = [i for i, layer in enumerate(layer_of) if layer == "redundancy"]
    assert len(redundancy) == 2
    rows = info[redundancy[0]]
    assert rows["rows_kept"] == len(model.body.hrep.ineqs) < rows["rows_in"]


def test_diagnosis_lps_are_traced(monkeypatch):
    """A build on an inconsistent collection: `_diagnose` keeps the
    arguments and result perfbench/layers.py reads, and every kernel call
    inside its span sits below a traced `lp_solve` span that is itself
    inside it, so `diagnosis.lps` counts each LP the filter runs. The
    build decides once, before the span, that the whole system is empty
    (`polytope._feasible_point`), and the filter's last LP, over the
    core, runs inside it."""
    layers = load_layers()
    gen = importlib.import_module("gen")
    jt = importlib.import_module("credalkit.joint")
    pt = importlib.import_module("credalkit.polytope")
    assert list(inspect.signature(jt._diagnose).parameters) == [
        "dim", "ineqs", "eqs", "certificate",
    ]
    space, coll = gen.clash_instance(random.Random(5), 3)
    dim = space.path_count
    ineqs, eqs = jt._assemble(coll, jt.representative_tuples(coll))
    everything = (tuple(row for row, _ in ineqs), tuple(row for row, _ in eqs))

    events = []
    real_feasible, real_diagnose = pt._feasible_point, jt._diagnose

    def deciding(h, candidate=None):
        whole = (h.ineqs, h.eqs) == everything
        events.append("whole system" if whole else "subsystem")
        return real_feasible(h, candidate)

    def diagnosing(*args):
        events.append("diagnosis")
        return real_diagnose(*args)

    monkeypatch.setattr(pt, "_feasible_point", deciding)
    monkeypatch.setattr(jt, "_diagnose", diagnosing)
    model, spans, info = traced(layers, lambda: jt.build_joint(coll))
    assert model.is_empty()
    assert isinstance(model.diagnosis, jt.InfeasibilityDiagnosis)
    assert events.count("whole system") == 1 and events.count("diagnosis") == 1
    assert events.index("whole system") < events.index("diagnosis")
    layer_of = [name.split(".")[0] for name, *_ in spans]
    diagnosis = [i for i, layer in enumerate(layer_of) if layer == "diagnosis"]
    assert len(diagnosis) == 1
    root = diagnosis[0]
    assert info[root] == {"core_rows": len(model.diagnosis.rows)}

    inside = {"kernel": 0, "lp": 0}
    for i, layer in enumerate(layer_of):
        if layer != "kernel":
            continue
        above = list(ancestors(spans, i))
        lp = next((p for p in above if layer_of[p] == "lp"), None)
        assert lp is not None, "a kernel call outside every traced lp_solve"
        if root in above:
            assert root in ancestors(spans, lp), (
                "an LP of the diagnosis traced outside it"
            )
            inside["kernel"] += 1
    lps = [i for i, layer in enumerate(layer_of) if layer == "lp"]
    filter_lps = [i for i in lps if root in ancestors(spans, i)]
    inside["lp"] = len(filter_lps)
    assert inside["kernel"] == inside["lp"]
    # the last LP: over the core rows, every variable free
    assert info[filter_lps[-1]] == {
        "status": "infeasible", "rows": len(model.diagnosis.rows), "cols": dim,
    }


def test_verify_spans_one_representation_check(tmp_path):
    """CLI `verify` on a consistent |T|=3 collection: one
    `verify_representation` span, no `is_subset` span inside the property
    suite (it reads its covering and permutation records off the
    consistency report verify hands it, and computes only the "strict"
    notes, off support functions), and no LP at all (the representation check reads the
    joint set's vertices). Then `is_subset` calls whose q rows p already
    carries hold with no LP below their spans, while one whose q has a
    row p does not carry runs LPs."""
    layers = load_layers()
    gen = importlib.import_module("gen")
    cli = importlib.import_module("credalkit.cli")
    jt = importlib.import_module("credalkit.joint")
    pt = importlib.import_module("credalkit.polytope")
    _, coll, _ = gen.generated_instance(random.Random(31), 3)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(gen.collection_to_model(coll)))
    # q is p's own rows, or the path simplex, whose rows every preimage
    # carries; their feasibility LPs run before the trace. The last q
    # caps the first path cell at half of p's largest mass there.
    p = jt.preimage_set(coll, coll.space.full_tuple())
    top = max(v[0] for v in pt.dd_convert(p).points)
    cut = pt.Polytope.from_hrep(p.dim, [*p.hrep.ineqs, ((1,) + (0,) * (p.dim - 1), top / 2)],
                                p.hrep.eqs)
    qs = [pt.Polytope(p.dim, hrep=p.hrep), pt.Polytope.simplex(p.dim), cut]
    assert not any(s.is_empty() for s in (p, *qs))

    def verify():
        try:
            cli.main(["verify", str(model), "--report", str(tmp_path / "r.json")])
        except SystemExit as exc:
            assert exc.code == 0

    _, spans, _ = traced(layers, verify)
    layer_of = [name.split(".")[0] for name, *_ in spans]
    assert layer_of.count("represent") == 1
    subset = [i for i, layer in enumerate(layer_of) if layer == "is_subset"]
    in_suite = [
        i for i in subset
        if "properties" in (layer_of[a] for a in ancestors(spans, i))
    ]
    records = json.loads((tmp_path / "r.json").read_text())["properties"]["records"]
    assert any(r["property"] == "covering tuple has smaller preimage" for r in records)
    assert in_suite == []
    assert "lp" not in layer_of and "kernel" not in layer_of

    answers, spans, _ = traced(layers, lambda: [pt.is_subset(p, q)[0] for q in qs])
    assert answers == [True, True, False]
    layer_of = [name.split(".")[0] for name, *_ in spans]
    subset = [i for i, layer in enumerate(layer_of) if layer == "is_subset"]
    lps = [i for i, layer in enumerate(layer_of) if layer == "lp"]
    assert lps and all(subset[-1] in ancestors(spans, i) for i in lps)


def test_redundancy_runs_no_lp():
    """A build decides its rows in the `redundancy` span, reading them off
    P's vertices, with no LP anywhere in the build: on a consistent
    family, where P is the hull of V_T's vertices pulled back, and with
    V_T enlarged by a point mass, where P lies strictly inside that hull
    and its vertices come from its own rows. Both spans see every row
    and return kept indices."""
    layers = load_layers()
    gen = importlib.import_module("gen")
    jt = importlib.import_module("credalkit.joint")
    _, coll, _ = gen.generated_instance(random.Random(5), 3)
    for c in (coll, gen.enlarged_full_tuple(coll)):
        model, spans, info = traced(layers, lambda: jt.build_joint(c))
        layer_of = [name.split(".")[0] for name, *_ in spans]
        redundancy = [i for i, layer in enumerate(layer_of) if layer == "redundancy"]
        assert len(redundancy) == 1
        assert "lp" not in layer_of and "kernel" not in layer_of
        rows = info[redundancy[0]]
        assert rows["rows_kept"] == len(model.body.hrep.ineqs) < rows["rows_in"]


FAMILIES = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "families.py")


def load_families():
    # executed from its source text, so nothing is written next to it
    with open(FAMILIES) as fh:
        code = compile(fh.read(), FAMILIES, "exec")
    module = types.ModuleType("perfbench_families")
    exec(code, module.__dict__)
    return module


def is_fraction_tuple(x):
    return type(x) is tuple and all(type(v) is Fraction for v in x)


def test_family_generator_reads_fraction_vertices():
    """perfbench/families.py hands `Polytope.from_points` Fraction points,
    reads `dd_convert(hull).points` and does Fraction arithmetic on them
    (the clash point (hi + 1) / 2): the vertices it gets are Fraction
    tuples, for a consistent family and for the clash-t4 family, drawn
    as perfbench/run.py draws it."""
    fam = load_families()
    pt = importlib.import_module("credalkit.polytope")
    labels = ("t0", "t1", "t2", "t3")
    consistent = fam.make_family(pt, random.Random(7), labels[:3], 4, 12, False)
    frng = random.Random(2)
    clash = fam.make_family(pt, frng, labels, frng.randint(2, 2), 12, True)
    for family in (consistent, clash):
        assert family.sets and all(
            points and all(is_fraction_tuple(p) for p in points)
            for points in family.sets.values()
        )
    (q, rest), = clash.sets[clash.clash]
    assert type(q) is Fraction and rest == 1 - q


def test_clash_records_carry_fraction_points():
    """The failing consistency records of the clash-t4 family carry a
    Fraction-tuple witness and a separation certificate whose point is
    that witness, a Fraction tuple too, as the reports format them."""
    fam = load_families()
    pt = importlib.import_module("credalkit.polytope")
    cr = importlib.import_module("credalkit.credal")
    io = importlib.import_module("credalkit.modelio")
    frng = random.Random(2)
    labels = ("t0", "t1", "t2", "t3")
    family = fam.make_family(pt, frng, labels, frng.randint(2, 2), 12, True)
    _, coll, _ = io.parse_model(family.model())
    failing = cr.check_marginal_consistency(coll).failures()
    assert failing
    for rec in failing:
        assert is_fraction_tuple(rec.witness)
        assert isinstance(rec.certificate, pt.SeparationCertificate)
        assert is_fraction_tuple(rec.certificate.point)
        assert rec.certificate.point == rec.witness
        assert type(rec.certificate.gap) is Fraction


def test_joint_summary_formats_vertices():
    """`joint_summary(..., vertices=...)` writes each vertex of the joint
    set as its rational strings, the form `verify --emit-vertices`
    prints: for the pushforwards of a triangle of path laws, the joint
    set is the triangle, and its vertices come out sorted."""
    gen = importlib.import_module("gen")
    pt = importlib.import_module("credalkit.polytope")
    jt = importlib.import_module("credalkit.joint")
    io = importlib.import_module("credalkit.modelio")
    sp = importlib.import_module("credalkit.spaces")
    space = sp.make_space(("a", "b"), ("0", "1"))
    points = [
        (Fraction(1, 2), 0, 0, Fraction(1, 2)),
        (1, 0, 0, 0),
        (0, Fraction(1, 3), Fraction(2, 3), 0),
    ]
    coll = gen.pushforward_collection(space, pt.Polytope.from_points(points))
    model = jt.build_joint(coll)
    summary = io.joint_summary(model, vertices=model.body.points)
    assert summary["vertices"] == [
        ["0", "1/3", "2/3", "0"], ["1/2", "0", "0", "1/2"], ["1", "0", "0", "0"],
    ]
    assert all(is_fraction_tuple(v) for v in model.body.points)
    assert json.loads(io.dump_json(summary))["vertices"] == summary["vertices"]
