#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--json out.json]

Every run is an untraced run of run_seconds from BENCHMARK.json. For every
workload and end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median, flagged when it is above a
third of the metric's bound. --json writes the same figures plus every run's
raw values. Seeds are 1..runs.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {}
    for name in names:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            res = subprocess.run(cmd, capture_output=True, text=True)
            last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
            if res.returncode != 0:
                sys.exit(f"{name} seed {seed} failed ({res.returncode}):\n{res.stdout}\n{res.stderr}")
            doc = json.loads(last)
            for metric, v in doc["metrics"].items():
                values.setdefault(metric, {"unit": v["unit"], "values": []})["values"].append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in sorted(doc["metrics"].items())), flush=True)
        for metric, d in sorted(values.items()):
            vs = d["values"]
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            d.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            b = bounds.get(metric)
            flag = ""
            if b is not None and d["spread"] > b / 3:
                flag = "  <-- above a third of the bound" if d["spread"] <= b else "  <-- ABOVE BOUND"
            print(f"  {name:12s} {metric:28s} median {med:12.5g} {d['unit']:6s} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {100 * d['spread']:6.2f}%{flag}", flush=True)
        out[name] = values
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": args.runs, "seconds": seconds, "trace": 0,
                       "workloads": out}, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
