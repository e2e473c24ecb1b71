#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by perfbench/run.py (.perfbench/results.jsonl
of one commit). Runs made with different simplex kernels or Python versions
are not comparable, and the script refuses them. For every workload (with
its family seeds) and metric it prints each side's median, quartile spread
(as a share of the median) and the change of the median.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    setups = {(r["kernel"], r["python"]) for r in base + new}
    if len(setups) != 1:
        print(f"refusing to compare runs of different kernels/Pythons: {sorted(setups)}",
              file=sys.stderr)
        return 2
    table = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for r in records:
            workload = f"{r['workload']}{r['family_seeds']}".replace(" ", "")
            for name, value in r["metrics"].items():
                table[(workload, name)][side].append(value)
    print(f"{'workload':<18} {'metric':<28} {'base':>12} {'spread':>7} "
          f"{'new':>12} {'spread':>7} {'change':>8}")
    for (workload, name), (a, b) in sorted(table.items()):
        if not a or not b:
            continue
        ma, sa = summary(a)
        mb, sb = summary(b)
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(f"{workload:<18} {name:<28} {ma:>12.6g} {sa:>7.1%} "
              f"{mb:>12.6g} {sb:>7.1%} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
