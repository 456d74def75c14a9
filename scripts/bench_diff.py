#!/usr/bin/env python3
"""Compare the simulated fields of two BENCH_*.json artifacts.

usage: scripts/bench_diff.py OLD NEW

The simulated results are deterministic, so every field must match exactly:
a changed value, a key missing from or added in NEW, a list whose length
changed, or an object whose members come in a different order is a
difference (member order is part of the byte-identity contract of the
Netstat dumps). Host-time fields (wall-clock speed, memory, thread count)
vary from run to run and are skipped wherever they appear, by key name.
Prints one line per difference and exits 1 if there is any.
"""
import json
import sys

HOST_TIME_KEYS = frozenset({
    "wall_s", "events_per_sec", "speedup_vs_1w", "hardware_threads",
    "rss_baseline_kb", "rss_idle_kb", "idle_bytes_per_conn_pair",
    "setup_wall_s", "teardown_wall_s",
    "setup_conns_per_wall_s", "teardown_conns_per_wall_s",
    "sim_mbps_per_wall_s", "wall_efficiency_ratio",
    "small_mtu_offload_wins_wallclock",
})

MAX_REPORTED = 40


def diff(old, new, path, out):
    if isinstance(old, dict) and isinstance(new, dict):
        old_order = [k for k in old if k not in HOST_TIME_KEYS]
        new_order = [k for k in new if k not in HOST_TIME_KEYS]
        if set(old_order) == set(new_order) and old_order != new_order:
            out.append(f"{path}: member order {old_order} -> {new_order}")
        for key in sorted(old.keys() | new.keys()):
            if key in HOST_TIME_KEYS:
                continue
            sub = f"{path}.{key}"
            if key not in new:
                out.append(f"{sub}: missing in NEW")
            elif key not in old:
                out.append(f"{sub}: extra in NEW")
            else:
                diff(old[key], new[key], sub, out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: list length {len(old)} -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            diff(a, b, f"{path}[{i}]", out)
    elif type(old) is not type(new) or old != new:
        # The type check keeps 1 vs 1.0 and true vs 1 apart.
        out.append(f"{path}: {old!r} -> {new!r}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for name in argv[1:]:
        with open(name, encoding="utf-8") as f:
            docs.append(json.load(f))
    out = []
    diff(docs[0], docs[1], "$", out)
    for line in out[:MAX_REPORTED]:
        print(line)
    if len(out) > MAX_REPORTED:
        print(f"... {len(out) - MAX_REPORTED} more differences")
    if out:
        print(f"bench_diff: {argv[2]} differs from {argv[1]} "
              f"in {len(out)} simulated field(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
