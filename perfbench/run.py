"""qdist benchmark: seeded exact-solve workloads, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each operation parses a
problem dict with ``qdist.cli.ProblemFile``, solves it with the public solver
for its kind at the default 128 bits and renders the report with
``qdist.cli.report_json``, as ``qdist distance`` / ``qdist family`` do. Every
report is checked outside the timed region (see check.py).

``--trace 0`` runs the closed loop for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` solves the workload's fixed traced prefix
twice, untraced and then with spans around every layer (tracing.py), and
reports the per-layer metrics; the spans go to ``.bench_out/``. The last line
of standard output is the JSON result; the full record, stamped with the run
environment, is written to ``.bench_out/`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# set-ups per untraced run: one before the loop, the rest spread across it
# so that their median samples the machine over the whole run
SETUP_REPEATS = 9
BITS = 128
# small fixed problem solved once before timing, so lazily imported helpers
# and first-call costs are paid outside the measured loop
WARMUP = {
    "kind": "point-quadric",
    "quadric": {"a": [[2, 1], [1, 3]], "b": [-1, 0], "c": -4},
    "point": [3, "1/2"],
}


def import_qdist():
    """Import qdist afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "qdist" / "__init__.py").is_file():
        raise SystemExit(f"qdist sources not found under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in qdist_modules():
        del sys.modules[name]
    import qdist
    import qdist.cli

    if Path(qdist.__file__).resolve().parent != src / "qdist":
        raise SystemExit(f"imported qdist from {qdist.__file__}, not from {src}")
    return qdist


def timed_setup(workload, seed):
    """Import qdist and generate the inputs once: (qdist, pool, seconds)."""
    t0 = time.perf_counter()
    qdist = import_qdist()
    pool = workloads.generate(workload, seed)
    return qdist, pool, time.perf_counter() - t0


def qdist_modules():
    return {n: m for n, m in sys.modules.items() if n == "qdist" or n.startswith("qdist.")}


def repeat_setup(workload, seed):
    """Time one more set-up, then put back the qdist modules in use.

    qdist imports some modules inside functions; restoring them keeps those
    imports from mixing in the fresh copies.
    """
    in_use = qdist_modules()
    seconds = timed_setup(workload, seed)[2]
    for name in qdist_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return seconds


def make_operation(qdist, tracer=None):
    """parse -> solve -> render, with cli spans when a tracer is given."""
    cli = qdist.cli
    solvers = {
        "point-quadric": lambda p: qdist.solve_point(p.quadric, p.point, p.bits),
        "variety-quadric": lambda p: qdist.solve_variety(p.quadric, p.variety, p.bits),
        "centered-quadric-quadric": lambda p: qdist.solve_centered(p.quadric, p.quadric2, p.bits),
        "quadric-quadric": lambda p: qdist.solve_general(p.quadric, p.quadric2, p.bits),
        "family-point": lambda p: qdist.family_solve(p.family, p.point, p.bits),
    }

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    def operation(problem):
        with span("cli.parse"):
            parsed = cli.ProblemFile(problem)
        report = solvers[parsed.kind](parsed)
        with span("cli.render"):
            return cli.report_json(report, parsed.exact)

    return operation


def error_code(exc):
    code = getattr(exc, "code", None)
    return f"error:{type(exc).__name__}" + (f":{code}" if code else "")


def solve_one(operation, problem, tracer=None, solve_id=None):
    """(report or None, error code or None, seconds)."""
    if tracer is not None:
        tracer.solve_id = solve_id
    ctx = tracer.span("op", problem["kind"]) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            report = operation(problem)
        error = None
    except Exception as exc:  # a failed solve is counted, not fatal
        report, error = None, error_code(exc)
    return report, error, time.perf_counter() - t0


def closed_loop(operation, pool, seconds, round_size, setup):
    """Solve the pool in order until ``seconds`` of solving have passed and
    the solves make whole rounds of ``round_size``.

    After every ``seconds / SETUP_REPEATS`` of solving, ``setup()`` runs
    between two solves; that time is not counted as solving.
    """
    results = []
    elapsed = 0.0
    interval = seconds / SETUP_REPEATS
    next_setup = interval
    i = 0
    while not results or elapsed < seconds or i % round_size:
        problem = pool[i % len(pool)]
        t0 = time.perf_counter()
        results.append((problem, *solve_one(operation, problem)))
        elapsed += time.perf_counter() - t0
        i += 1
        if elapsed >= next_setup and elapsed < seconds:
            setup()
            next_setup += interval
    return results, elapsed


def paired_pass(qdist, problems, tracer):
    """Solve each problem untraced and traced, alternating which goes first.

    Returns (untraced results, traced results, untraced s, traced s); the
    alternation keeps order effects out of the tracing overhead.
    """
    plain_op = make_operation(qdist)
    traced_op = make_operation(qdist, tracer)
    plain, traced = [], []
    for i, problem in enumerate(problems):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
                try:
                    traced.append((problem, *solve_one(traced_op, problem, tracer, i)))
                finally:
                    tracer.uninstall()
            else:
                plain.append((problem, *solve_one(plain_op, problem)))
    return plain, traced, sum(r[3] for r in plain), sum(r[3] for r in traced)


def check_all(results):
    """Failure list [(index, kind, reason)] over (problem, report, error, s) results."""
    import check

    failures = []
    for i, (problem, report, error, _) in enumerate(results):
        reason = error or check.check_report(problem, report, BITS)
        if reason is not None:
            failures.append((i, problem["kind"], reason))
    return failures


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(qdist):
    qq = type(qdist.scalar.QQ(0))
    return {
        "backend": f"{qq.__module__}.{qq.__qualname__}",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, elapsed, setup_s, failures):
    latencies = sorted(r[3] * 1000.0 for r in results)
    if len(latencies) >= 2:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    else:
        p90 = latencies[-1]
    return {
        "solves_per_s": (len(results) - len(failures)) / elapsed,
        "solve_p50_ms": statistics.median(latencies),
        "solve_p90_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def with_units(values, trace):
    """Attach the units declared in BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in declared} != values.keys():
        raise RuntimeError("computed metrics differ from those declared in BENCHMARK.json")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qdist, pool, first_setup_s = timed_setup(args.workload, args.seed)
    setup_times = [first_setup_s]
    env = environment(qdist)
    operation = make_operation(qdist)
    operation(WARMUP)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import tracing

        problems = pool[: workloads.WORKLOADS[args.workload]["trace_pass"]]
        tracer = tracing.Tracer()
        plain, traced, plain_s, traced_s = paired_pass(qdist, problems, tracer)
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
        results = plain + traced
        failures = check_all(results)
        values = tracing.layer_metrics(tracer.spans)
        values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        elapsed = plain_s + traced_s
    else:
        results, elapsed = closed_loop(
            operation, pool, args.seconds, workloads.WORKLOADS[args.workload]["round_size"],
            lambda: setup_times.append(repeat_setup(args.workload, args.seed)))
        failures = check_all(results)
        values = end_to_end(results, elapsed, statistics.median(setup_times), failures)
    metrics = with_units(values, args.trace)

    kinds = {}
    for problem, *_ in results:
        kinds[problem["kind"]] = kinds.get(problem["kind"], 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "solves": len(results),
        "solves_by_kind": kinds,
        "elapsed_s": elapsed,
        "setup_times_s": setup_times,
        "failed_ratio": len(failures) / len(results),
        "failures": failures,
        "latencies_ms": [round(r[3] * 1000.0, 3) for r in results],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(results)} solves "
          f"{kinds} in {elapsed:.2f} s, failed_ratio {record['failed_ratio']:.4f}")
    for index, kind, reason in failures:
        print(f"  failed solve {index} ({kind}): {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
