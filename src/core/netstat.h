// netstat-style reporting. Netstat::json() is the one place a host's
// counters are listed; every other view is derived from that document:
// netstat() prints it as text, and the ops console diffs it tick to tick.
// The exporters below it cover what a live host does not hold (Stats
// snapshots, fault injectors, impairments, the parallel engine).
#pragma once

#include <string>
#include <vector>

#include "core/host.h"
#include "core/json.h"
#include "fault/fault.h"
#include "hippi/impairment.h"
#include "net/tcp.h"
#include "sim/parallel_engine.h"

namespace nectar::core {

// One JSON object per host: interfaces (with the CAB engines, arbiters,
// fault, recovery and offload state), IP, UDP, demux, overload, timer wheel,
// per-connection TCP statistics, mbufs, event core, VM, pin cache and CPU
// accounts. Object-member order is fixed, so two identical runs dump
// identical text — the determinism regression tests compare these dumps
// byte-for-byte.
class Netstat {
 public:
  explicit Netstat(Host& host) : host_(host) {}

  [[nodiscard]] Json json() const;
  [[nodiscard]] std::string to_json(int indent = 2) const {
    return json().dump(indent);
  }

 private:
  Host& host_;
};

// The text report: Netstat::json() as one "path value" line per scalar
// field, in document order, e.g. `interfaces[0].cab.tx_rewrite 192`.
[[nodiscard]] std::string netstat(Host& host);

// One JSON object for a TCP connection's counters (shared by Netstat and the
// ttcp-based benches, which hold Stats snapshots rather than live hosts).
[[nodiscard]] Json tcp_stats_json(const net::TcpConnection::Stats& s);

// Injection log of a FaultInjector: totals plus per-"target.kind" counts.
[[nodiscard]] Json fault_injector_json(const fault::FaultInjector& inj);

// One JSON object per impairment: {"kind": ..., <counter>: <value>, ...}.
[[nodiscard]] Json impairments_json(
    const std::vector<hippi::ImpairedFabric*>& impairments);

// Engine-level and per-shard counters of a ParallelEngine:
// {"lookahead_ns", "epochs", "events", "now_ns",
//  "shard": [{"id", "now_ns", "events", "cancelled", "pending", "tombstones",
//             "compactions", "slots", "posts_out", "posts_in", "busy_epochs",
//             "max_pending"}, ...]}.
// The worker count is deliberately NOT in the dump: every field here is part
// of the determinism contract and must be byte-identical at any worker count.
[[nodiscard]] Json parallel_engine_json(const sim::ParallelEngine& eng);

}  // namespace nectar::core
