"""Summarize run records: median, quartiles and spread per workload and metric.

    python3 perfbench/summarize.py [record.json ...]  > summary.json

With no arguments it reads every record in perfbench/results/.  The
spread is the distance between the first and third quartile of the runs'
values, as a share of their median; it is what BENCHMARK.json's bounds
are compared with.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def summarize(paths) -> dict:
    runs: dict = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        key = f"{record['workload']} trace={record['trace']}"
        runs.setdefault(key, []).append(record)
    out = {}
    for key, records in sorted(runs.items()):
        metrics = {}
        for name in records[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            metrics[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "unit": records[0]["result"]["metrics"][name]["unit"],
            }
        out[key] = {
            "runs": len(records),
            "seeds": sorted(r["host"]["seed"] for r in records),
            "failed_ops": sum(r["result"]["failed"] for r in records),
            "attempted_ops": sum(r["result"]["attempted"] for r in records),
            "metrics": metrics,
        }
    return out


def main(argv) -> int:
    paths = argv or sorted(str(p) for p in RESULTS.glob("*.json"))
    if not paths:
        print("no run records found", file=sys.stderr)
        return 1
    print(json.dumps(summarize(paths), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
