#!/bin/sh
# CI entry point: build and test the two supported configurations, check that
# the repository benchmark reproduces its recorded digests, and check that
# every committed simulated result still comes out the same.
#
#  * Debug: no NDEBUG, every assert live — the config that catches contract
#    violations.
#  * Release (-O2 -DNDEBUG): asserts compiled out — the config that catches
#    code with side effects hidden inside assert(), and the one perf numbers
#    should be quoted from (RelWithDebInfo, the developer default, is close
#    but carries -g).
#
# Both build with -Werror: the tree compiles without a warning under -Wall
# -Wextra, and a new warning fails CI.
set -eu
cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-debug -j"$jobs"
ctest --test-dir build-debug --output-on-failure -j"$jobs"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" -DCMAKE_CXX_FLAGS=-Werror
cmake --build build-release -j"$jobs"
ctest --test-dir build-release --output-on-failure -j"$jobs"

# Same bytes through the repository benchmark: perfbench prints a digest of
# every host's Netstat plus the simulated results, and each `digest` line of
# scripts/perf_digests.txt must come out unchanged. The first run builds
# .bench_build/. This runs before the sanitizer lanes so that a failure there
# cannot hide it.
while read -r tag workload seed want; do
    [ "$tag" = digest ] || continue
    python3 perfbench/run.py --workload "$workload" --seed "${seed#seed=}" \
        --seconds 1 --trace 0 < /dev/null > build-release/perfbench.out
    got=$(grep '^digest ' build-release/perfbench.out || true)
    [ "$got" = "digest $workload $seed $want" ] || {
        echo "ci: scripts/perf_digests.txt: expected '$tag $workload $seed $want'," \
             "perfbench printed '${got:-no digest}'" >&2
        exit 1
    }
done < scripts/perf_digests.txt

# Same bytes: simulated results are deterministic, so regenerate each
# committed simulated-result artifact in full (about 80 s together) and
# require every simulated field to match the committed copy. bench_diff.py
# skips the host-time fields (wall time, events/s, RSS). The paper's Figures
# 5 and 6 come first (under 2 s together).
for b in fig5_alpha400:fig5_alpha400 fig6_alpha300:fig6_alpha300 \
         latency_profile:latency offload_sweep:offload workload:workload \
         overload:overload fault_recovery:fault_recovery \
         flow_scaling:flow_scaling; do
    bin=${b%%:*}
    name=${b#*:}
    "build-release/bench/$bin" --json "build-release/BENCH_$name.json"
    python3 scripts/bench_diff.py "BENCH_$name.json" \
        "build-release/BENCH_$name.json"
done

# Same bytes for the paper benches that write no JSON (Tables 1 and 2, the
# §7.3 model, the §2.1 HOL result, the four ablations and the share-vs-copy
# table; under 2 s together): they print only simulated numbers, so each
# one's stdout must equal its committed bench/expected/<bench>.txt.
for b in table1_taxonomy table2_vmops sec7_analysis hol_channels \
         ablation_autodma ablation_pincache ablation_threshold ablation_window \
         share_vs_copy; do
    "build-release/bench/$b" > "build-release/$b.txt"
    cmp "bench/expected/$b.txt" "build-release/$b.txt" || {
        echo "ci: $b output differs from bench/expected/$b.txt" >&2
        exit 1
    }
done

# Schema validation: every benchmark artifact — committed or freshly emitted
# by the runs above — must carry the versioned-schema marker so
# downstream consumers can detect layout changes.
for f in BENCH_*.json build-release/BENCH_*.json; do
    [ -e "$f" ] || continue
    grep -q '"schema_version"' "$f" || {
        echo "ci: $f is missing schema_version" >&2
        exit 1
    }
done

# ASan/UBSan lane over the many-flow, fault, telemetry and offload suites:
# connect/close churn through the demux hash table, the CAB arbitration
# queues and the listener backlog is exactly where lifetime and aliasing bugs
# would hide — the fault injector's reset/abort/retry paths free and re-post
# DMA jobs, the other classic source of use-after-free — the telemetry hooks
# ride every one of those paths (span ends from abort callbacks, gauge
# closures over engine internals), and the TSO/GRO paths juggle multi-MTU
# descriptors and batched receive chains across the same completion
# callbacks.  The control-plane suites join the same lane: the timer wheel
# recycles bucket slots through a freelist, SYN-cookie acceptance
# materialises connections from nothing (no embryonic object to misuse, but
# plenty of room for stale-handle cancels), and the churn smoke slams 5k
# connections through compact TIME-WAIT slab recycling.  The wload frontend
# rides along because the socket shim owns Socket/Listener lifetimes across
# coroutine suspension points (wclose's linger, wpoll's readiness probes) and
# the population generator tears down hundreds of shim sockets concurrently —
# the exact shape of use-after-free the zombie-socket machinery exists to
# prevent.  The overload suites round out the lane: the admission gate and
# ECN hooks poll resource samplers (closures over pool/arbiter/network-memory
# internals) from deep inside the send and SYN paths, and the ops console
# holds host references across periodic coroutine ticks — both are fresh
# aliasing surfaces.  The CAB unit suites (CabFixture, NetworkMemory) and the
# driver path suite (CabDriverPaths) drive the DMA engines' shared
# post/serve/abort lifecycle directly, including completions that outlive a
# reset.  The mbuf, descriptor and socket-buffer suites, the UDP and socket
# path suites and the Ethernet/loopback conversion suites cover the M_UIO
# completion rule: every driver that consumes or drops user data completes
# the writer's counter, including datagrams the CAB drops, and the copy-out
# retry and give-up paths.  The 10x flash-crowd soak stays out of this fast
# lane and runs under TSan below instead.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build build-asan -j"$jobs"
ctest --test-dir build-asan --output-on-failure -j"$jobs" \
      -R 'CabFixture|NetworkMemory|CabDriverPaths|UdpFixture|ConvertUioRecord|LoopbackDriver|MbufFixture|DescriptorFixture|SockbufFixture|SocketPaths|ConnTable|FlowMatrix|FlowSoak|flow_scaling|Fault|bench_fault_recovery|Telemetry|LogHistogram|PacketTraceDropped|bench_latency|Offload|TsoCutFuzz|bench_offload|TimerWheel|SynCookie|bench_churn|Wload|PacketTrace\.PcapRoundTrip|bench_workload|ArbPolicyNames|WeightedFair|OverloadManager|OverloadEndToEnd|OverloadNetstat|OpsConsole|bench_overload'

# ThreadSanitizer lane over the parallel sharded engine: the barrier,
# epoch-publication, and outbox/drain handoffs are the only places the
# codebase shares state across threads, so TSan runs exactly the suites that
# exercise them — the engine unit tests, the RNG-stream and determinism-
# oracle tests, and a >=2-worker flow-scaling smoke (quick mode runs its
# parallel sweep at 1 and 2 workers and fails on any cross-worker
# divergence).  The overload flash-crowd soak also rides this slow lane: it
# is the longest-running integration test, so it pairs with the slow
# sanitizer config rather than bloating the ASan sweep above.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build build-tsan -j"$jobs"
ctest --test-dir build-tsan --output-on-failure -j"$jobs" \
      -R 'Parallel|RngStreams|EventQueueStats|OverloadSoak'
build-tsan/bench/flow_scaling --quick --json \
    build-tsan/BENCH_flow_scaling_tsan_smoke.json
grep -q '"deterministic_across_workers": true' \
    build-tsan/BENCH_flow_scaling_tsan_smoke.json || {
    echo "ci: tsan flow_scaling smoke lost cross-worker determinism" >&2
    exit 1
}

echo "ci: all configs green"
