#!/usr/bin/env python3
"""Run every workload with ten different seeds and print, per end-to-end
metric, the median and the spread (interquartile range over median, by
statistics.quantiles(n=4)) beside the metric's bound — the check the driver
applies before it accepts the benchmark. Run from the repository root on an
otherwise idle machine:

    python3 benchmark/spread.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
worst = {}
for w in names:
    vals, t0 = {}, time.time()
    for seed in range(first, first + 10):
        cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
        line = json.loads(p.stdout.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            sys.exit(f"{w} seed {seed}: {line['failed']} of {line['attempted']} operations failed")
        for k, v in line["metrics"].items():
            vals.setdefault(k, []).append(v["value"])
    print(f"## {w}: {(time.time() - t0) / 10:.1f} s per run")
    for k, v in vals.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q[2] - q[0]) / med
        worst[k] = max(worst.get(k, 0), spread)
        flag = "" if k == "setup_s" or spread <= bounds[k] / 3 else ("  > bound/3" if spread <= bounds[k] else "  > BOUND")
        print(f"{k:24s} median {med:16.4f}  spread {100 * spread:6.2f}%  bound {100 * bounds[k]:3.0f}%{flag}")
    sys.stdout.flush()
print("## widest spread per metric")
for k, s in worst.items():
    print(f"{k:24s} {100 * s:6.2f}%  bound {100 * bounds[k]:3.0f}%")
