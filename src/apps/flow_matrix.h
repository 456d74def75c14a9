// flow_matrix: the many-flow measurement workload — N concurrent ttcp-style
// client/server pairs driven through one MultiTestbed in a single
// deterministic simulation.
//
// Flow i runs client(i mod P) -> server(i mod P) on port 5001 + i, so
// every flow has its own connection (its own demux tuple, its own flow id in
// the CAB arbiter) while P host pairs' worth of CABs carry all N of them.
// Starts are staggered by a fixed spacing — determinism comes from the event
// queue, not from luck: the same seed and config replays the same byte
// counts exactly.
#pragma once

#include <vector>

#include "core/multi_testbed.h"
#include "core/sharded_testbed.h"

namespace nectar::apps {

struct FlowMatrixConfig {
  std::size_t num_flows = 2;
  std::uint64_t bytes_per_flow = 1 << 20;
  std::size_t write_size = 64 * 1024;
  bool verify_data = false;     // pattern-check every received byte
  sim::Duration start_spacing = sim::usec(10);  // staggered connects
  sim::Duration deadline = 600 * sim::kSecond;
};

struct FlowStats {
  std::size_t flow = 0;  // index in [0, num_flows)
  bool completed = false;
  std::uint64_t bytes = 0;        // delivered to the receiving process
  std::uint64_t data_errors = 0;
  sim::Time established = 0;      // connect() returned
  sim::Time finished = 0;         // last byte delivered
  double goodput_mbps = 0.0;      // bytes over [established, finished]
  net::TcpConnection::Stats tx_tcp;
  net::TcpConnection::Stats rx_tcp;
};

struct FlowMatrixResult {
  bool completed = false;  // every flow delivered its bytes
  std::vector<FlowStats> flows;
  std::uint64_t total_bytes = 0;
  sim::Duration elapsed = 0;      // first establish -> last delivery
  double aggregate_mbps = 0.0;
  double jain = 0.0;              // fairness over per-flow goodputs
};

// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair,
// 1/n = one flow took everything. Empty/zero inputs give 0.
[[nodiscard]] double jain_index(const std::vector<double>& xs);

FlowMatrixResult run_flow_matrix(core::MultiTestbed& tb,
                                 const FlowMatrixConfig& cfg);

// The same workload on the sharded parallel engine. Each flow's sender runs
// on its client's shard and its receiver on its server's shard; completion
// is detected between epochs (every shard quiescent), and per-flow state is
// split so sender-side and receiver-side fields are never written from two
// shards. Identical config + seed gives identical FlowMatrixResult at any
// worker count.
FlowMatrixResult run_flow_matrix(core::ShardedTestbed& tb,
                                 const FlowMatrixConfig& cfg);

}  // namespace nectar::apps
