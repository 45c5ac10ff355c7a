"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --runs 10 --out NEW.json [--traced]
    python3 perfbench/sweep.py --runs 10 --out NEW.json --base DIR --base-out BASE.json

Runs ``run.py`` once per workload of BENCHMARK.json and seed (seeds 1..runs),
with its ``run_seconds``, one run at a time.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(n=4)``) and their
distance as a share of the median, beside the metric's bound.  With
``--traced`` it adds one traced run (seed 1), which replays every workload,
and keeps its per-layer metrics.  The output file gets all of it, with the environment
header of the first run; ``compare.py`` compares two such files.

With ``--base DIR`` it measures two source trees, DIR (the base, measured by
its own ``perfbench/run.py``) and this one, and alternates them seed by seed
in ABBA order (base first for odd seeds, this tree first for even ones), so
that a drift of the host's speed falls on both alike.  The base's summary goes
to BASE.json; both files carry the same ``pair_id``, which tells
``compare.py`` to judge them seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    """(env header, result) of one invocation of `tree`'s run.py."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{tree} {workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--base", type=Path, help="source tree to alternate with this one")
    parser.add_argument("--base-out", type=Path, help="where the base's summary goes")
    args = parser.parse_args(argv)
    if (args.base is None) != (args.base_out is None):
        parser.error("--base and --base-out go together")
    if args.base is not None and not (args.base / "perfbench" / "run.py").is_file():
        parser.error(f"{args.base} has no perfbench/run.py; copy this perfbench "
                     "directory and BENCHMARK.json into it")

    trees = {"new": (ROOT, args.out)}
    if args.base is not None:
        trees = {"base": (args.base.resolve(), args.base_out), **trees}
    pair_id = uuid.uuid4().hex if len(trees) == 2 else None
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summaries = {side: {"env": None, "pair_id": pair_id, "run_seconds": spec["run_seconds"],
                        "runs": args.runs, "end_to_end": {}, "ops": {}, "per_layer": {}}
                 for side in trees}
    for name in (w["name"] for w in spec["workloads"]):
        results = {side: [] for side in trees}
        for seed in range(1, args.runs + 1):
            order = list(trees) if seed % 2 else list(reversed(trees))
            for side in order:
                env, res = run_once(trees[side][0], name, seed, spec["run_seconds"], 0)
                summaries[side]["env"] = summaries[side]["env"] or env
                results[side].append(res)
                print(f"{side} {name} seed {seed}: " + "  ".join(
                    f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                    + f"  ops={res['attempted']} failed={res['failed']}", flush=True)
        for side, summary in summaries.items():
            summary["ops"][name] = {"attempted": sum(r["attempted"] for r in results[side]),
                                    "failed": sum(r["failed"] for r in results[side])}
            table = summary["end_to_end"][name] = {}
            for metric, m in bounds.items():
                s = table[metric] = summarise(
                    [r["metrics"][metric]["value"] for r in results[side]])
                s.update(unit=m["unit"], bound=m["bound"])
                print(f"  {side} {name:<7} {metric:<12} median {s['median']:.4f} "
                      f"{m['unit']:<3} IQR/median {s['spread']:.4f}  bound {m['bound']}  "
                      f"{'steady' if s['spread'] < m['bound'] / 3 else 'NOT steady'}",
                      flush=True)
    if args.traced:
        # A traced run replays every workload whichever it names.
        name = spec["workloads"][0]["name"]
        for side, (tree, _) in trees.items():
            _, res = run_once(tree, name, 1, spec["run_seconds"], 1)
            summaries[side]["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{side} traced: coverage {res['metrics']['trace.coverage']['value']:.4f}  "
                  f"overhead {res['metrics']['trace.overhead_s']['value']:.4f} s", flush=True)
    for side, (_, out) in trees.items():
        out.write_text(json.dumps(summaries[side], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
