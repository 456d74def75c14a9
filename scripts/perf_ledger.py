#!/usr/bin/env python3
"""Record the simulator's host speed in BENCH_perf.json.

    python3 scripts/perf_ledger.py

Run from any directory; it takes no arguments. For each workload in
BENCHMARK.json it runs perfbench with --trace 0 at seeds 1-5 for the
benchmark's run_seconds, and with --trace 1 once at seed 1. It writes the
median and quartiles of every end-to-end metric over the five seeds, every
per-layer value, and the source and host fingerprints perfbench prints. The
whole run takes about 10 minutes. Host time is noisy, so no check compares
this file; it is the record that README's host-speed numbers come from.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)


def perfbench(workload, seed, seconds, trace):
    """One perfbench run: ((source, fingerprint), metrics)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("perf_ledger:", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           check=True).stdout.splitlines()
    head = {}
    for line in lines:
        key, _, rest = line.partition(": ")
        if key in ("source", "fingerprint"):
            head[key] = rest
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"perf_ledger: {workload} seed {seed} --trace {trace} "
                 "failed perfbench's correctness gate")
    return (head["source"], head["fingerprint"]), result["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    heads = set()
    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            head, metrics = perfbench(name, seed, seconds, 0)
            heads.add(head)
            runs.append(metrics)
        end_to_end = {}
        for m in spec["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            end_to_end[m["name"]] = {"unit": m["unit"], "median": median,
                                     "q1": q1, "q3": q3}
        head, per_layer = perfbench(name, SEEDS[0], seconds, 1)
        heads.add(head)
        workloads[name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    if len(heads) != 1:
        sys.exit(f"perf_ledger: the source or host changed between runs: {heads}")
    source, fingerprint = heads.pop()
    doc = {"bench": "perf", "schema_version": 1, "source": source,
           "fingerprint": fingerprint, "run_seconds": seconds,
           "seeds": list(SEEDS), "workloads": workloads}
    (ROOT / "BENCH_perf.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
