"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For each workload it makes one untraced run per seed and one traced run
on the first seed, one process at a time. Per end-to-end metric it
reports the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median. With --out, the summary is
stored under "results" in that JSON file, keeping its other keys.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180


def bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    print("  " + "\n  ".join(lines[1:-1]), flush=True)
    env = json.loads(lines[0].removeprefix("env "))
    return env, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    cfg = bench_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in cfg["workloads"]])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", help="JSON file whose 'results' key receives the summary")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    results = {}
    env = None
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            env, out = run_once(workload, seed, cfg["run_seconds"], 0)
            if not out["correct"]:
                print(f"{workload} seed {seed}: {out['failed']} of {out['attempted']} operations failed")
            runs.append(out)
        entry = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds},
        }
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:18s} {name:12s} median={s['median']:.6g} spread={s['spread']:.4f} "
                  f"bound={bounds[name]}{flag}", flush=True)
        if not args.no_trace:
            _, traced = run_once(workload, seeds[0], cfg["run_seconds"], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        results[workload] = entry

    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["environment"] = {k: v for k, v in env.items() if k != "seed"}
        doc.setdefault("results", {}).update(results)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
