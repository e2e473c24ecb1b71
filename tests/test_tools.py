"""Smoke tests of tools/outputs.py, the script whose output directories of
two checkouts are compared with `diff -r`, and of tools/stages.py, which
records stage times and LP counts."""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# the family and check seeds of each workload in perfbench/run.py, the
# |T| = 5 families of tools/outputs.py LARGE, then its all-finite and
# supplied-policy |T| = 4 families
SEED_DIRS = {
    "pipeline-t3-4": 0, "pipeline-t3-7": 0, "pipeline-t3-3": 0, "pipeline-t3-5": 0,
    "joint-t4-7": 0, "joint-t4-13": 0,
    "clash-t4-2": 1, "clash-t4-3": 1,
    "family-t5-7": 0, "clash-t5-2": 1, "clash-t5-3": 1,
    "finite-t4-7": 0, "supplied-t4-2": 1,
}


def test_outputs_on_the_working_checkout(tmp_path):
    """One directory per seed; validate, build and verify exit 0 on the
    consistent families and 1 on the clash families; every verify report
    is JSON. The all-finite family's sets are finite, and the
    supplied-policy family lists permuted tuples."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "outputs.py"), ROOT, str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    assert {p.name for p in tmp_path.iterdir()} == set(SEED_DIRS)
    for name, code in SEED_DIRS.items():
        where = tmp_path / name
        for command in ("validate", "validate-json", "build", "verify"):
            assert (where / f"{command}.code").read_text() == f"{code}\n", (name, command)
        json.loads((where / "verify.out").read_text())
    modes = {s["mode"] for s in json.loads(
        (tmp_path / "finite-t4-7" / "model.json").read_text())["credal_sets"]}
    assert modes == {"finite"}
    supplied = json.loads((tmp_path / "supplied-t4-2" / "model.json").read_text())
    assert supplied["options"] == {"permutations": "supplied"}
    assert ["t1", "t0"] in [s["tuple"] for s in supplied["credal_sets"]]


def test_stages_on_the_working_checkout(tmp_path):
    """At |T| = 3 every consistent family's model file is parsed in
    recorded time, every consistent family passes with no LP in the
    representation check or the property suite, the representation
    check's double description runs are recorded, and the
    enlarged-full-tuple records (the representation check with no LP
    there too), the clash records (an empty P, and its diagnosis's
    seconds, LPs, eliminations and core rows, inside the build's) and
    the H-rep records are written. Every stage counts its eliminations;
    the diagnosis also counts its rule-3 steps, each with at most one LP,
    and runs at most three eliminations however many steps it takes."""
    out = tmp_path / "stages.json"
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "stages.py"), ROOT, str(out),
         "--sizes", "3", "--cap", "120"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    rows = json.loads(out.read_text())
    consistent = [r for r in rows if "T" in r
                  and "enlarged_full_tuple" not in r and "clash_seed" not in r]
    assert [r["base_points"] for r in consistent] == [4, 8]
    for r in consistent:
        assert list(r)[2] == "parse" and r["parse"]["s"] > 0, r
        assert r["passed"] is True, r
        assert r["suite"]["lps"] == 0, r
        assert r["verify"]["lps"] == 0 and r["verify"]["dd"] > 0, r
    enlarged = [r for r in rows if r.get("enlarged_full_tuple")]
    assert [(r["T"], r["base_points"]) for r in enlarged] == [
        (3, 8), (4, 6), (5, 4), (5, 8), (6, 8)]
    assert all(r["build"]["lps"] == 0 for r in enlarged)
    assert all("build" in r and "capped" not in r["build"] for r in enlarged)
    assert all(r["verify"]["lps"] == 0 for r in enlarged)
    clash = [r for r in rows if "clash_seed" in r]
    assert [(r["T"], r["clash_seed"]) for r in clash] == [(3, 2), (3, 3)]
    for r in clash:
        assert r["feasibility"]["empty"] is True, r
        diagnose = r["diagnose"]
        assert diagnose["core_rows"] > 0 and diagnose["lps"] > 0, r
        assert diagnose["lps"] <= r["build"]["lps"] and diagnose["s"] <= r["build"]["s"] + 1e-3, r
        assert 0 < diagnose["elim"] <= min(3, r["build"]["elim"]), r
        assert type(diagnose["steps"]) is int and diagnose["lps"] <= diagnose["steps"] + 1, r
    stages = [v for r in rows for v in r.values() if isinstance(v, dict) and "lps" in v]
    assert stages and all(type(v["elim"]) is int for v in stages)
    assert all(r["build"]["elim"] > 0 for r in consistent + clash)
    assert [r["feasibility"]["empty"] for r in rows if "hrep_dim" in r] == [False, True]
