#!/usr/bin/env python3
"""Compare two sets of saved benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the .json files run.py writes to .bench_out/.  For
every workload, trace mode and metric it prints the median and the
quartile spread of each side and the change of the medians.  Runs made on
different kernel backends are not comparable, so any mix of backends is
refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not runs:
        sys.exit(f"compare: no results in {directory}")
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = [load(d) for d in sys.argv[1:]]
    backends = {r["provenance"]["backend"] for runs in sides for r in runs}
    if len(backends) > 1:
        print(f"compare: refusing to compare backends {sorted(backends)}",
              file=sys.stderr)
        sys.exit(2)
    table = defaultdict(lambda: ([], []))
    for side, runs in enumerate(sides):
        for r in runs:
            for name, m in r["metrics"].items():
                table[(r["workload"], r["trace"], name, m["unit"])][side].append(
                    m["value"])
    print(f"backend {backends.pop()}")
    for (workload, trace, name, unit), (base, new) in sorted(table.items()):
        if not base or not new:
            continue
        (bm, bs), (nm, ns) = summary(base), summary(new)
        change = (nm - bm) / abs(bm) if bm else float("nan")
        print(f"{workload:6} t{trace} {name:34} {bm:12.6g} ±{bs:5.3f}  "
              f"{nm:12.6g} ±{ns:5.3f}  {change:+7.3f} {unit}")


if __name__ == "__main__":
    main()
