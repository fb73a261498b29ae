#!/usr/bin/env python3
"""Runs the benchmark's acceptance sets and records their spreads.

    python3 cmd/rdmaperf/acceptance.py [--sets 2] [--seeds 10]

Run it from the repository root. Each set runs every workload of
BENCHMARK.json once per seed 1..N through the benchmark command with
--trace 0, one run at a time. For each workload and end-to-end metric it
records the median of the N values and their spread: the distance between
the first and third quartiles (statistics.quantiles(n=4)) as a share of the
median. A set passes when every spread except setup_s's is within the
metric's bound; every later set must also keep each median within the bound
of the first set's, in the metric's worse direction. The result, with the go
version, the CPU count and the mean and longest run time, goes to
cmd/rdmaperf/acceptance.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_set(spec, seeds, elapsed):
    values = {}
    for w in spec["workloads"]:
        for seed in range(1, seeds + 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            elapsed.append(time.monotonic() - t0)
            line = json.loads(out.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{w['name']} seed {seed}: checks failed: {line}")
            for m in spec["end_to_end"]:
                values.setdefault(w["name"], {}).setdefault(m["name"], []).append(
                    line["metrics"][m["name"]]["value"])
            print(w["name"], seed, {k: round(v["value"], 6) for k, v in line["metrics"].items()},
                  flush=True)
    summary = {}
    for w, ms in values.items():
        for name, vs in ms.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            summary.setdefault(w, {})[name] = {
                "median": med, "spread": (q[2] - q[0]) / med, "values": vs}
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    elapsed = []
    sets = [run_set(spec, args.seeds, elapsed) for _ in range(args.sets)]
    problems = []
    for i, s in enumerate(sets):
        for w, ms in s.items():
            for name, r in ms.items():
                m = bounds[name]
                if name != "setup_s" and r["spread"] > m["bound"]:
                    problems.append(f"set {i + 1} {w} {name}: spread {r['spread']:.3f} > {m['bound']}")
                base = sets[0][w][name]["median"]
                worse = (r["median"] - base) / base
                if m["better"] == "higher":
                    worse = -worse
                if worse > m["bound"]:
                    problems.append(f"set {i + 1} {w} {name}: median {worse:.3f} worse than set 1")
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    record = {"go": go, "nproc": os.cpu_count(), "seeds": args.seeds,
              "run_seconds": spec["run_seconds"],
              "elapsed_s": {"mean": statistics.mean(elapsed), "max": max(elapsed)},
              "sets": sets, "problems": problems}
    with open(os.path.join(HERE, "acceptance.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
