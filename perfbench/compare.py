"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py --base .bench_out/old/result-*.json \
                                 --new .bench_out/result-*.json

Results are grouped by workload and mode (traced or not); each metric's
median is compared, and end-to-end metrics are judged against the bounds in
BENCHMARK.json. Results made with another scalar backend or Python version
are not comparable: the script says so and exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    groups = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        key = (record["workload"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def stamp(record):
    env = record["environment"]
    return env["backend"], env["python"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    stamps = {stamp(r) for g in (base, new) for rs in g.values() for r in rs}
    if len(stamps) > 1:
        print("not comparable: results differ in scalar backend or Python version: "
              + "; ".join(f"{b} on Python {p}" for b, p in sorted(stamps)))
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'}): "
              f"{len(base[key])} base runs, {len(new[key])} new runs")
        names = base[key][0]["metrics"].keys()
        for name in names:
            b = statistics.median(r["metrics"][name]["value"] for r in base[key])
            n = statistics.median(r["metrics"][name]["value"] for r in new[key])
            change = (n - b) / b if b else 0.0
            verdict = ""
            if name in bounds:
                worse = -change if bounds[name]["better"] == "higher" else change
                if worse > bounds[name]["bound"]:
                    verdict = "  REGRESSION"
                    regressions += 1
            unit = base[key][0]["metrics"][name]["unit"]
            print(f"  {name:28s} {b:12.6g} -> {n:12.6g} {unit:6s} {100 * change:+7.2f}%{verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
