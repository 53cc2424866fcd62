"""Run the benchmark on every workload several times and summarize the spread.

Run from the repository root:

    python3 perfbench/baseline.py [--runs 10] [--traced 2] [--workload NAME ...] [--out FILE]

Runs `perfbench/run.py` one process at a time, never two at once: --runs
end-to-end runs per workload, each with its own --seed, then --traced traced
runs. For every end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
beside the metric's bound from BENCHMARK.json; a spread at or above a third of
its bound is flagged. For the traced runs it prints per-layer calls and
shares, and checks that every count and every ratio except
trace.overhead_ratio repeats exactly. With --out it writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} reported a failed check:\n{proc.stderr}")
    # the run's own record also holds the metrics BENCHMARK.json does not list
    record = json.loads((BENCH / "out" / f"{workload}.trace{trace}.result.json").read_text())
    result["all_metrics"] = record["all_metrics"]
    result["detail"] = record["detail"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for name in args.workload:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        entry: dict = {"seeds": list(seeds), "attempted": [r["attempted"] for r in runs],
                       "end_to_end": {}}
        entry["detail"] = runs[0]["detail"]
        print(f"{name}: {args.runs} runs of {seconds} s; {runs[0]['detail']}")
        for metric in runs[0]["all_metrics"]:
            values = [r["all_metrics"][metric] for r in runs]
            s = summarize(values)
            entry["end_to_end"][metric] = s
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and s["spread"] >= bound / 3:
                flag = "  SPREAD >= bound/3"
                steady = False
            print(f"  {metric:<26} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}){flag}")
        traced = [run_once(name, seed, seconds, 1) for seed in seeds[: args.traced]]
        if traced:
            layers = {}
            for key, first in traced[0]["metrics"].items():
                values = [t["metrics"][key]["value"] for t in traced]
                timed = key.endswith((".self_s", ".share")) or key == "trace.overhead_ratio"
                if not timed and len(set(values)) != 1:
                    steady = False
                    print(f"  {key} differs between traced runs: {values}")
                layers[key] = {"value": statistics.median(values) if timed else first["value"],
                               "unit": first["unit"]}
            entry["per_layer"] = layers
            for key, m in layers.items():
                if key.endswith((".calls", ".share", "_ratio", ".errors", "_call")) and m["value"]:
                    print(f"  {key:<56} {m['value']:.6g} {m['unit']}")
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
