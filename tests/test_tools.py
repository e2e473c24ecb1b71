"""Smoke test of tools/outputs.py, the script whose output directories of
two checkouts are compared with `diff -r`."""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# the family and check seeds of each workload in perfbench/run.py
SEED_DIRS = {
    "pipeline-t3-4": 0, "pipeline-t3-7": 0, "pipeline-t3-3": 0, "pipeline-t3-5": 0,
    "joint-t4-7": 0, "joint-t4-13": 0,
    "clash-t4-2": 1, "clash-t4-3": 1,
}


def test_outputs_on_the_working_checkout(tmp_path):
    """One directory per seed; validate, build and verify exit 0 on the
    consistent families and 1 on the clash families; every verify report
    is JSON."""
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
