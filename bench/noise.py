#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs each workload once per seed through bench/run.sh and reports, for every
end-to-end metric, the median and the quartiles of the runs, and the
interquartile range as a share of the median (statistics.quantiles, n=4):
the spread a metric's regression bound in BENCHMARK.json has to cover.

    python3 bench/noise.py                      # seeds 1..10, every workload
    python3 bench/noise.py --seeds 1,1,1,1,1 --workloads cocad-decide
    python3 bench/noise.py --out bench/noise.json

Run from the root of a checkout. With --out the table is written as JSON
together with the host it was measured on.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    header = lines[0]
    return header, json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the table as JSON to this file")
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table, header = {}, ""
    for w in args.workloads.split(","):
        values = {}
        for seed in seeds:
            header, res = run_once(w, seed, args.seconds)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        table[w] = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            table[w][name] = {"median": med, "q1": q1, "q3": q3, "iqr_frac": spread, "runs": len(vs)}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{w:13s} {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"iqr/median {spread:7.4f}  bound {bounds[name]}{flag}", flush=True)

    m = re.search(r"(\d+) cores, GOMAXPROCS (\d+), (\S+)", header)
    host = {
        "cores": int(m.group(1)) if m else os.cpu_count(),
        "gomaxprocs": int(m.group(2)) if m else None,
        "go": m.group(3) if m else None,
        "cpu": cpu_model(),
        "seeds": seeds,
        "run_seconds": args.seconds,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host, "metrics": table}, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
