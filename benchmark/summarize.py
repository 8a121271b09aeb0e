"""Summarise run records: per workload and metric, the median, quartiles and
quartile spread (as a share of the median) across runs.

    python3 benchmark/summarize.py [RECORD.json ...]   # default: benchmark/out/*.json

The quartiles are Python's statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        paths = sorted(p for p in OUT.glob("*-trace[01].json"))
    groups = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        groups[(record["workload"], record["trace"])].append(record)
    for (workload, trace), records in sorted(groups.items()):
        bad = [r["seed"] for r in records if not r["correct"]]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in records})
        print(f"{workload} trace={trace}: {len(records)} runs, seeds "
              f"{sorted(r['seed'] for r in records)}, failed {shares}"
              + (f", INCORRECT on seeds {bad}" if bad else ""))
        for name, entry in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:36s} {med:14.6g} {entry['unit']:12s} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
