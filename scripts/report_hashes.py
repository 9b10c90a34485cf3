#!/usr/bin/env python3
"""Hash what the CLI prints for the first problems of a benchmark workload.

    python3 scripts/report_hashes.py --src src --workload pair-family --seed 1 --count 6
    python3 scripts/report_hashes.py --src src --workload small-mix --seed 1,2,3 --count 170

Generates the seeded problem pool with ``perfbench/workloads.py`` and runs
``qdist distance``, ``qdist intersect`` and ``qdist poly`` on each of the
first ``--count`` problems through ``cli.main``, with the qdist package found
under ``--src`` (the ``src`` directory of any checkout). It prints one line
per problem: its index, its kind and, per command, the sha1 of the exit code
with everything the command wrote to its output file and to stderr. With
several comma-separated seeds, each seed's lines end in a ``digest seed
<seed>`` line over that seed. The last line is a sha1 over every problem
line, so two checkouts answer all three commands byte-identically exactly
when their last lines agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
COMMANDS = ("distance", "intersect", "poly")


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
    with tempfile.TemporaryDirectory() as tmp:
        problem_path, out_path = Path(tmp) / "problem.json", Path(tmp) / "out.json"
        for seed in args.seed:
            seed_digest = hashlib.sha1()
            for i, problem in enumerate(workloads.generate(args.workload, seed)[: args.count]):
                problem_path.write_text(json.dumps(problem))
                hashes = []
                for command in COMMANDS:
                    out_path.unlink(missing_ok=True)
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = cli.main([command, "--input", str(problem_path),
                                         "--out", str(out_path)])
                    out = out_path.read_text() if out_path.exists() else ""
                    text = f"{code}\n{out}\n{err.getvalue()}"
                    hashes.append(f"{command}={hashlib.sha1(text.encode()).hexdigest()}")
                line = f"{i} {problem['kind']} {' '.join(hashes)}"
                digest.update(line.encode() + b"\n")
                seed_digest.update(line.encode() + b"\n")
                print(line, flush=True)
            if len(args.seed) > 1:
                print(f"digest seed {seed} {seed_digest.hexdigest()}")
    print(f"digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
