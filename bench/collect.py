"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --workloads walk sweep --seeds 1 2 3 4 5 --out summary.json

Runs `bench/run.py` once per (workload, seed), one at a time, with the
`run_seconds` of BENCHMARK.json, then optionally one traced run per workload.
For each end-to-end metric it reports the median, the quartiles and the spread
(interquartile distance over median, as `statistics.quantiles(values, n=4)`
gives the quartiles) and whether the spread is within a third of the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), {})
    tag = f"# {workload} seed={seed} trace={trace} "
    notes = next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)), {})
    return {"seed": seed, "env": env, "notes": notes, **json.loads(lines[-1])}


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload with this seed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        stats = {}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs])
            s["steady"] = s["spread"] is not None and s["spread"] < bound / 3
            stats[name] = s
            print(f"  {workload} {name} median={s['median']:.5g} spread={s['spread']:.4f} bound={bound} steady={s['steady']}")
        entry = {
            "env": runs[0]["env"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed", "metrics", "notes")} for r in runs],
            "spread": stats,
        }
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {k: traced[k] for k in ("seed", "correct", "attempted", "failed", "metrics", "notes")}
            print(workload, "traced", json.dumps(traced["metrics"]), flush=True)
        summary["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
