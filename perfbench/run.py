"""The rfw benchmark: one workload, measured for a number of seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the library from ``src``.
One client runs one operation at a time, back to back (a closed loop), every
step in a fresh interpreter.  An operation runs the workload's tasks of
registry.json one after another.  After each operation, outside the timed
region, its outputs are checked; a nonzero exit, a timeout or a failed check
makes the operation a failure.

The host is shared and its speed drifts, so the fixed routine of reference.py
runs before the first step and after every step (see REFS_FIRST, REF_SHARE).
An operation's relative time is the sum over its steps of the step's wall
time over the mean reference time on either side of it; ``wall_rel`` is the
median of that over the run's operations, and the raw ``wall_s`` is printed
beside it.  Operations start while the time measured so far (steps and
references) plus the last operation's fits in ``--seconds``; at least one
always runs.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it reports the per-layer metrics: it runs every task once
with a span around each call into the library (see tracer.py), so every layer
metric is measured whichever workload is named; ``trace.overhead_s`` compares
traced and untraced runs of the ``sample`` task.

The report goes to stdout: an ``env`` line, one line per metric, and last a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from workloads import ROOT, Task, Workload

SETUP_PROBES = 11
# The reference routine runs REFS_FIRST times before the first step, and after
# each step until it has taken REF_SHARE of the step's time (at least once): a
# long step spans more of the host's changes of speed, and more reference runs
# beside it follow them better.
REFS_FIRST = 2
REF_SHARE = 0.1
# trace.overhead_s compares traced and untraced runs of this task, the one
# that makes the most span calls per second of work.
OVERHEAD_TASK = "sample"
OVERHEAD_PAIRS = 3
# A run stops starting steps this long after it began, so that it ends within
# the 180 s a run may take.
RUN_DEADLINE_S = 170.0


def env_header() -> dict:
    """What a timing depends on besides the code: two results are comparable
    only when these agree (numpy >= 2.3 alone changes this code's speed by more
    than 10x)."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "rfw_commit": commit,
        "rfw_source_sha256": workloads.source_digest(),
    }


def setup_times(work: Path, n: int = SETUP_PROBES) -> list[float]:
    """Wall time of `import rfw` (numpy included) in fresh interpreters."""
    times = []
    for _ in range(n):
        res = workloads.spawn([sys.executable, "-c", "import rfw"], work,
                              work / "setup.out", work / "setup.err", 60.0)
        if res.code != 0:
            raise SystemExit("run.py: `import rfw` failed:\n"
                             + (work / "setup.err").read_text())
        times.append(res.wall)
    return times


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail needs >= 11 ops, have {n}"
    k = n - 10
    return f"p{100 * k / n:.0f} = {sorted(values)[k - 1]:.4f} s (10 of {n} ops beyond)"


def references(work: Path, kind: str, at_least: float, runs: int = 1) -> list[float]:
    """Wall times of back-to-back runs of the reference routine `kind`: at
    least `runs`, and more until they have taken `at_least` seconds together."""
    walls = [workloads.reference(work, kind) for _ in range(runs)]
    while sum(walls) < at_least:
        walls.append(workloads.reference(work, kind))
    return walls


def around(before: list[float], after: list[float]) -> float:
    """The reference time a step is divided by: the mean of the mean times
    of the reference groups just before and just after it."""
    return (statistics.fmean(before) + statistics.fmean(after)) / 2


def measure(w: Workload, work: Path, seconds: float,
            t_run: float) -> tuple[list, list[float], list[list[float]], int]:
    """Closed loop of `w`'s operation, with a group of runs of its reference
    routine before the first step and after every step.  Returns (results,
    each operation's relative time, the reference groups, failures).  The
    relative time of an operation is the sum over its steps of the step's
    wall time over `around` the step.  An operation's check runs after the
    group that follows its last step, so that the references are timed next
    to it."""
    groups = [references(work, w.reference, 0.0, REFS_FIRST)]
    results, rels, failed, measured = [], [], 0, sum(groups[0])
    while True:
        left = RUN_DEADLINE_S - (perf_counter() - t_run)
        op_dir = work / f"{w.name}-{len(results)}"
        first, step_rels = len(groups), []

        def between(wall: float) -> None:
            groups.append(references(work, w.reference, REF_SHARE * wall))
            step_rels.append(wall / around(groups[-2], groups[-1]))

        res = w.run_op(op_dir, min(workloads.STEP_TIMEOUT_S, left), check=False,
                       between=between)
        if res.error is None:
            res.error = w.check(op_dir)
        results.append(res)
        rels.append(sum(step_rels))
        if res.error is not None:
            failed += 1
            print(f"FAILED {w.name} op {len(results)}: {res.error}", file=sys.stderr)
        shutil.rmtree(op_dir, ignore_errors=True)
        cycle = res.wall + sum(map(sum, groups[first:]))
        measured += cycle
        if measured + cycle > seconds or perf_counter() - t_run + cycle > RUN_DEADLINE_S:
            return results, rels, groups, failed


def ok_walls(results) -> list[float]:
    good = [r.wall for r in results if r.error is None]
    return good or [r.wall for r in results]


def end_to_end(w: Workload, work: Path, seconds: float, t_run: float, units: dict):
    setup = setup_times(work)
    results, rels, groups, failed = measure(w, work, seconds, t_run)
    walls = ok_walls(results)
    rel = [x for r, x in zip(results, rels) if r.error is None] or rels
    refs = [wall for group in groups for wall in group]
    metrics = {
        "wall_rel": statistics.median(rel),
        "peak_rss_mb": max(r.maxrss_mb for r in results),
        "setup_s": statistics.median(setup),
    }
    print(f"wall_rel    {metrics['wall_rel']:.4f} ref median over {len(rel)} ops of the sum over "
          f"steps of the step's wall time / the mean reference time beside it")
    print(f"wall_s      {statistics.median(walls):.4f} s   median of {len(walls)} ops; "
          f"{tail(walls)}")
    print(f"ref_s       {statistics.median(refs):.4f} s   median of {len(refs)} reference runs")
    print("per op      wall_s " + " ".join(f"{r.wall:.3f}" for r in results)
          + "; reference groups " + " | ".join(" ".join(f"{x:.3f}" for x in g) for g in groups))
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB  largest max RSS of the operations' steps")
    print(f"setup_s     {metrics['setup_s']:.4f} s   median of {len(setup)} fresh `import rfw`")
    print(f"failed_frac {failed / len(results):.4f}     {failed} of {len(results)} ops")
    for phase, idx in w.phases.items():
        good = [r for r in results if r.error is None] or results
        value = statistics.median(sum(r.step_walls[i] for i in idx if i < len(r.step_walls))
                                  for r in good)
        print(f"{phase:<11} {value:.4f} s   median over ops of steps {idx}")
    return results, failed, {k: metrics[k] for k in units}


def per_layer(work: Path, t_run: float, seed: int, units: dict):
    """One traced run of every task, then what tracing costs."""
    registry = workloads.load_registry()
    everyone = {name: workloads.build_task(name, seed, registry) for name in registry["tasks"]}
    results, failed, totals, covered, traced_wall = [], 0, {}, 0.0, 0.0

    def run_one(v: Task, trace: bool):
        nonlocal failed
        op_dir = work / f"{v.name}-{len(results)}"
        res = v.run_op(op_dir, min(workloads.STEP_TIMEOUT_S,
                                   RUN_DEADLINE_S - (perf_counter() - t_run)), trace=trace)
        results.append(res)
        if res.error is not None:
            failed += 1
            print(f"FAILED {'traced ' * trace}{v.name}: {res.error}", file=sys.stderr)
        return op_dir, res

    for v in everyone.values():
        op_dir, res = run_one(v, True)
        traced_wall += sum(res.step_walls)
        for path in res.trace_files:
            if not path.exists():
                continue
            report = json.loads(path.read_text())
            covered += report["covered_s"]
            for span, st in report["spans"].items():
                acc = totals.setdefault(span, {})
                for key, value in st.items():
                    acc[key] = max(acc.get(key, 0), value) if key == "rss_mb" \
                        else acc.get(key, 0) + value
        shutil.rmtree(op_dir, ignore_errors=True)
    # Untraced and traced operations in turn (U T T U U T), so that a drift of
    # the host's speed falls on both sides alike.
    walls = {False: [], True: []}
    for i in range(2 * OVERHEAD_PAIRS):
        trace = i % 4 in (1, 2)
        op_dir, res = run_one(everyone[OVERHEAD_TASK], trace)
        walls[trace].append(res.wall)
        shutil.rmtree(op_dir, ignore_errors=True)

    metrics = {}
    for name in units:
        if name == "trace.coverage":
            value = covered / traced_wall if traced_wall else 0.0
        elif name == "trace.overhead_s":
            value = statistics.median(walls[True]) - statistics.median(walls[False])
        else:
            span, key = name.rsplit(".", 1)
            st = totals.get(span, {})
            if key == "distinct_ratio":
                value = st.get("items_out", 0) / st["candidates"] if st.get("candidates") else 0.0
            else:
                value = st.get(key, 0)
        metrics[name] = value
        print(f"{name:<44} {value:.6g} {units[name]}")
    print(f"per-layer figures are totals over one traced run of each of "
          f"{len(everyone)} tasks; trace.overhead_s is the median of "
          f"{OVERHEAD_PAIRS} traced minus that of {OVERHEAD_PAIRS} untraced "
          f"{OVERHEAD_TASK} runs")
    return results, failed, metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rfw" / "__init__.py").is_file():
        print(f"run.py: no rfw sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # A SIGTERM unwinds the run like an error, so that the step running is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t_run = perf_counter()
    print("env", json.dumps(env_header()))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            results, failed, metrics = per_layer(work, t_run, args.seed, units)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            w = workloads.build(args.workload, args.seed)
            results, failed, metrics = end_to_end(w, work, args.seconds, t_run, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
