#!/usr/bin/env python3
"""Hash the reports of the first problems of a benchmark workload.

    python3 scripts/report_hashes.py --src src --workload pair-family --seed 1 --count 6
    python3 scripts/report_hashes.py --src src --workload small-mix --seed 1,2,3 --count 170

Generates the seeded problem pool with ``perfbench/workloads.py``, solves the
first ``--count`` problems with the qdist package found under ``--src`` (the
``src`` directory of any checkout) as ``qdist distance`` does, and prints one
line per problem: its index, its kind and the sha1 of its ``report_json``
output (or of the error it raised). With several comma-separated seeds, each
seed's lines end in a ``digest seed <seed>`` line over that seed. The last
line is a sha1 over every problem line, so two checkouts give byte-identical
reports exactly when their last lines agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory that holds the qdist package")
    ap.add_argument("--workload", required=True, choices=("small-mix", "pair-family"))
    ap.add_argument("--seed", required=True, type=lambda text: [int(x) for x in text.split(",")],
                    help="a seed, or comma-separated seeds")
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(PERFBENCH))
    import workloads
    from qdist import cli

    if Path(cli.__file__).resolve().parent != src / "qdist":
        raise SystemExit(f"imported qdist from {cli.__file__}, not from {src}")

    digest = hashlib.sha1()
    for seed in args.seed:
        seed_digest = hashlib.sha1()
        for i, problem in enumerate(workloads.generate(args.workload, seed)[: args.count]):
            try:
                text = json.dumps(cli.cmd_distance(cli.ProblemFile(problem)), indent=2)
            except Exception as exc:  # an error is part of the output being compared
                text = f"error:{type(exc).__name__}:{getattr(exc, 'code', '')}:{exc}"
            line = f"{i} {problem['kind']} {hashlib.sha1(text.encode()).hexdigest()}"
            digest.update(line.encode() + b"\n")
            seed_digest.update(line.encode() + b"\n")
            print(line, flush=True)
        if len(args.seed) > 1:
            print(f"digest seed {seed} {seed_digest.hexdigest()}")
    print(f"digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
