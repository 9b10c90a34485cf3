#!/usr/bin/env python3
"""Time two qdist source trees against each other, interleaved, in one process.

    python3 scripts/ab_time.py --a ../parent/src --b src --workload pair-family --seed 1 --count 30

Loads the qdist package under ``--a`` as ``qdist_a`` and the one under
``--b`` as ``qdist_b``, generates the seeded problem pool with
``perfbench/workloads.py`` and solves each of its first ``--count`` problems
with both, as ``perfbench/run.py`` does one operation: parse, solve at 128
bits, render. The tree that goes first alternates from problem to problem,
so drift in the machine's speed falls on both alike. If the two trees render
any problem differently (or fail it differently) the script stops before it
reports a time. It prints the seconds per kind for each tree and the ratio
a/b, which is the speed-up of b over a.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tree(src: Path, name: str):
    """The qdist package under ``src``, imported as ``name`` with its cli."""
    init = src / "qdist" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"qdist sources not found under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def timed(operation, problem):
    """(rendered report or error name, seconds) for one operation."""
    t0 = time.perf_counter()
    try:
        result = json.dumps(operation(problem))
    except Exception as exc:  # a failure must match too, and is timed
        result = f"error:{type(exc).__name__}:{getattr(exc, 'code', '')}"
    return result, time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="src directory of the first tree")
    ap.add_argument("--b", required=True, help="src directory of the second tree")
    ap.add_argument("--workload", required=True, choices=("small-mix", "pair-family"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, required=True, help="problems from the start of the pool")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(PERFBENCH))
    import run
    import workloads

    trees = [load_tree(Path(args.a).resolve(), "qdist_a"),
             load_tree(Path(args.b).resolve(), "qdist_b")]
    operations = [run.make_operation(tree) for tree in trees]
    for operation in operations:
        operation(run.WARMUP)

    seconds = defaultdict(lambda: [0.0, 0.0])
    counts = defaultdict(int)
    for i, problem in enumerate(workloads.generate(args.workload, args.seed)[: args.count]):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = [None, None]
        for k in order:
            results[k], spent = timed(operations[k], problem)
            seconds[problem["kind"]][k] += spent
        if results[0] != results[1]:
            raise SystemExit(f"problem {i} ({problem['kind']}): the trees' reports differ")
        counts[problem["kind"]] += 1

    print(f"{'kind':26} {'count':>5} {'a_s':>9} {'b_s':>9} {'a/b':>6}")
    total = [0.0, 0.0]
    for kind in sorted(seconds):
        a, b = seconds[kind]
        total[0] += a
        total[1] += b
        print(f"{kind:26} {counts[kind]:5d} {a:9.3f} {b:9.3f} {a / b:6.3f}")
    print(f"{'all':26} {sum(counts.values()):5d} {total[0]:9.3f} {total[1]:9.3f} "
          f"{total[0] / total[1]:6.3f}")


if __name__ == "__main__":
    main()
