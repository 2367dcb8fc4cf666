#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (quartile distance over median), the way its bounds are
judged.

    python3 perfbench/spread.py --seeds 1-10 --out runs.json
    python3 perfbench/spread.py --seeds 1-10 --against runs.json
    python3 perfbench/spread.py --seeds 1 --trace 0,1    # every metric, each workload

With ``--against`` it also compares each metric's median with the earlier
set against the bound in BENCHMARK.json, and the estimate fingerprints of
runs with the same workload and seed, which must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "failed": result["failed"],
        "fingerprint": report["report"]["fingerprint"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
    }


def spread(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range LO-HI")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    parser.add_argument("--out", type=Path, help="write the runs here as JSON")
    parser.add_argument("--against", type=Path, help="runs written earlier by --out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else []

    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            for trace in (int(t) for t in args.trace.split(",")):
                runs.append(run(workload, seed, seconds, trace))
                print(json.dumps(runs[-1]), flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))

    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        theirs = [r for r in earlier if r["workload"] == workload]
        print(f"\n{workload}: {len(mine)} runs, failed calls {sum(r['failed'] for r in mine)}")
        units = {k: u for r in mine for k, u in r["units"].items()}
        for name, unit in units.items():
            med, rel = spread([r["metrics"][name] for r in mine if name in r["metrics"]])
            line = f"  {name:32s} median {med:12.6g} {unit:6s}  spread {rel:6.3f}"
            if name in bounds:
                bound = bounds[name]["bound"]
                line += f"  bound {bound:.2f}"
                ok &= name == "setup_s" or rel <= bound
            if theirs:
                before = statistics.median(r["metrics"][name] for r in theirs
                                           if name in r["metrics"])
                change = med / before - 1.0
                if name in bounds and bounds[name]["better"] == "higher":
                    change = -change
                line += f"  worse by {change:+.3f} vs earlier"
                ok &= name not in bounds or change <= bounds[name]["bound"]
            print(line)
        if theirs:
            prints = {(r["seed"], r["trace"]): r["fingerprint"] for r in theirs}
            same = [prints[key] == r["fingerprint"]
                    for r in mine if (key := (r["seed"], r["trace"])) in prints]
            print(f"  fingerprints identical on {sum(same)} of {len(same)} shared seeds")
            ok &= all(same)
    print("\nOK" if ok else "\nNOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
