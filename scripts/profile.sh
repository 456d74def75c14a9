#!/bin/sh
# Where does the benchmark's user time go, by layer? Builds perfbench with
# gprof instrumentation, runs one workload, and sums gprof's flat profile by
# nectar:: namespace (one namespace per src/ directory).
#
#   scripts/profile.sh <workload> [seconds] [seed]
#
# The instrumented build lives in build-profile/, apart from perfbench/run.py's
# .bench_build/. gprof samples only user time inside the perfbench binary:
# kernel time and time in shared libraries (libc's memcpy, malloc) do not
# appear, so the shares are shares of the sampled time, not of wall time.
set -eu
cd "$(dirname "$0")/.."
workload=${1:?usage: scripts/profile.sh <workload> [seconds] [seed]}
seconds=${2:-8}
seed=${3:-1}
dir=build-profile
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S perfbench -B "$dir" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg > /dev/null
cmake --build "$dir" -j"$jobs" > /dev/null
rm -f "$dir/gmon.out"
(cd "$dir" && ./perfbench --workload "$workload" --seed "$seed" \
     --seconds "$seconds" --trace 0 > perfbench.out)

gprof -b -p "$dir/perfbench" "$dir/gmon.out" | python3 -c '
import re, sys
row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
# The first nectar:: qualifier that starts the function name (a template
# return type may precede it; a template argument does not count).
layer = re.compile(r"(?:^|[\s*&])nectar::(\w+)::")
sums = {}
for line in sys.stdin:
    m = row.match(line)
    if not m:
        continue
    ns = layer.search(m.group(2))
    key = ns.group(1) if ns else "(other)"
    sums[key] = sums.get(key, 0.0) + float(m.group(1))
total = sum(sums.values())
if total == 0:
    sys.exit("profile.sh: gprof recorded no samples")
print(f"{sys.argv[1]} seed {sys.argv[2]}, {sys.argv[3]} s run: {total:.2f} s sampled")
for key, s in sorted(sums.items(), key=lambda kv: -kv[1]):
    print(f"  {key:10s} {s:8.2f} s {100 * s / total:6.1f} %")
' "$workload" "$seed" "$seconds"
