#!/usr/bin/env python3
"""Time two qdist source trees against each other, interleaved, in one process.

    python3 scripts/ab_time.py --a ../parent/src --b src --workload pair-family --seed 1 --count 30
    python3 scripts/ab_time.py --a ../parent/src --b src --workload pair-family --seed 1 --count 30 --passes 10

Loads the qdist package under ``--a`` as ``qdist_a`` and the one under
``--b`` as ``qdist_b``, generates the seeded problem pool with
``perfbench/workloads.py`` and solves each of its first ``--count`` problems
with both, as ``perfbench/run.py`` does one operation: parse, solve at 128
bits, render. The tree that goes first alternates from problem to problem,
so drift in the machine's speed falls on both alike. If the two trees render
any problem differently (or fail it differently) the script stops before it
reports a time. It prints the seconds per kind for each tree, summed over
the passes, with the ratio a/b, which is the speed-up of b over a, and each
tree's median (p50) and 90th percentile (p90) milliseconds per problem.
With ``--passes N`` the interleaved pass over the problems runs N times;
the script then prints every pass's totals and ratio, and how many passes
tree b won.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
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
    ap.add_argument("--passes", type=int, default=1, help="interleaved passes over the problems")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    sys.path.insert(0, str(PERFBENCH))
    import run
    import workloads

    trees = [load_tree(Path(args.a).resolve(), "qdist_a"),
             load_tree(Path(args.b).resolve(), "qdist_b")]
    operations = [run.make_operation(tree) for tree in trees]
    for operation in operations:
        operation(run.WARMUP)

    problems = workloads.generate(args.workload, args.seed)[: args.count]
    seconds = defaultdict(lambda: [0.0, 0.0])  # summed over the passes
    counts = Counter(problem["kind"] for problem in problems)
    per_problem = ([], [])  # every pass's seconds per problem, for each tree
    passes = []
    for _ in range(args.passes):
        total = [0.0, 0.0]
        for i, problem in enumerate(problems):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = [None, None]
            for k in order:
                results[k], spent = timed(operations[k], problem)
                seconds[problem["kind"]][k] += spent
                per_problem[k].append(spent)
                total[k] += spent
            if results[0] != results[1]:
                raise SystemExit(f"problem {i} ({problem['kind']}): the trees' reports differ")
        passes.append(total)

    print(f"{'kind':26} {'count':>5} {'a_s':>9} {'b_s':>9} {'a/b':>6}")
    for kind in sorted(seconds):
        a, b = seconds[kind]
        print(f"{kind:26} {counts[kind]:5d} {a:9.3f} {b:9.3f} {a / b:6.3f}")
    a, b = (sum(t[k] for t in passes) for k in (0, 1))
    print(f"{'all':26} {sum(counts.values()):5d} {a:9.3f} {b:9.3f} {a / b:6.3f}")
    for name, times in zip("ab", per_problem):
        ms = sorted(1e3 * t for t in times)
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[-1]
        print(f"tree {name}: per-problem p50 {statistics.median(ms):.1f} ms, p90 {p90:.1f} ms")
    if args.passes > 1:
        for n, (a, b) in enumerate(passes, 1):
            print(f"pass {n:3d}: a_s {a:9.3f} b_s {b:9.3f} a/b {a / b:6.3f}")
        print(f"b won {sum(b < a for a, b in passes)} of {len(passes)} passes")


if __name__ == "__main__":
    main()
