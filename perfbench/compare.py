#!/usr/bin/env python3
"""Compare two sets of saved benchmark records, metric by metric.

    python3 perfbench/run.py --workload all --seed 1 --out base-1.json
    ...
    python3 perfbench/compare.py base-1.json base-2.json -- new-1.json new-2.json

Each side is one or more files written by ``run.py --out``.  For every
workload, trace mode and metric, it prints the median of each side, the
change as a share of the first side's median and, for end-to-end metrics,
the bound from BENCHMARK.json.  It refuses to compare results whose
``USING_NUMBA`` differ: the numba and numpy kernel paths are different
programs.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Incomparable(ValueError):
    pass


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.extend(json.load(f))
    return records


def medians(records):
    values = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = (r["workload"], r["trace"], name)
            values.setdefault(key, []).append(m["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(base, new):
    """Rows (workload, trace, metric, base median, new median, change)."""
    numba = {r["env"]["USING_NUMBA"] for r in base + new}
    if len(numba) > 1:
        raise Incomparable("USING_NUMBA differs between the results")
    b, n = medians(base), medians(new)
    rows = []
    for key in sorted(b.keys() & n.keys()):
        change = (n[key] - b[key]) / b[key] if b[key] else None
        rows.append((*key, b[key], n[key], change))
    return rows


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    try:
        rows = compare(load(argv[:split]), load(argv[split + 1:]))
    except Incomparable as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for workload, trace, name, old, new, change in rows:
        shown = "n/a" if change is None else f"{change:+.2%}"
        bound = bounds.get(name) if not trace else None
        note = f"  bound {bound:.0%}" if bound is not None else ""
        print(f"{workload:<11} {name:<44} {old:>14.6f} {new:>14.6f}"
              f" {shown:>8}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
