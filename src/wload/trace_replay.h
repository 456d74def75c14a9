// pcap trace replay as a workload source.
//
// TraceWorkload parses a capture (PacketTrace::read_pcap) into directed TCP
// flows — per flow, the data-bearing segments' payload sizes and capture
// timestamps — and run_trace_replay re-offers those flows over the simulated
// stack through the wload shim: each flow becomes one client connection that
// paces its sends to the captured inter-arrival gaps (optionally time-scaled)
// into a per-flow sink service, so a real capture's size/timing mix exercises
// the CAB datapath.
//
// What replay is NOT (see also PacketTrace::read_pcap): the parser does not
// reassemble IP fragments (fragments are counted and skipped), does not
// deduplicate retransmitted segments (a lossy capture replays its wire
// byte count, duplicates included), and replays each directed flow from the
// testbed's client side regardless of which endpoint originated it in the
// capture. Snaplen-truncated records are fine — payload sizes come from the
// IP/TCP headers inside the captured prefix (any snaplen >= 40), never from
// the captured byte count — but a record too short to carry its headers is
// counted in `undecodable` and skipped rather than replayed short.
#pragma once

#include <string>
#include <vector>

#include "core/testbed.h"
#include "wload/wsocket.h"

namespace nectar::wload {

struct TraceFlow {
  net::IpAddr src = 0;  // as captured (informational; replay remaps A -> B)
  net::IpAddr dst = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  sim::Time first_at = 0;  // capture timestamp of the flow's first data segment
  // Data-bearing segments: offset from first_at, payload bytes on the wire.
  struct Seg {
    sim::Duration at = 0;
    std::size_t payload = 0;
  };
  std::vector<Seg> segs;
  std::uint64_t bytes = 0;  // sum of segment payloads
};

struct TraceWorkload {
  std::uint32_t linktype = 0;
  std::size_t records = 0;      // total pcap records
  std::size_t truncated = 0;    // snaplen-cut records (replayed via headers)
  std::size_t undecodable = 0;  // too short for IP/TCP headers; skipped
  std::size_t non_tcp = 0;      // non-TCP datagrams; skipped
  std::size_t fragments = 0;    // IP fragments; skipped (no reassembly)
  std::vector<TraceFlow> flows;  // directed flows with >= 1 data segment

  // Parse `path` into flows. Returns false if the file itself is unreadable
  // or structurally broken (then `out` is untouched); per-record problems
  // are counted, not fatal. Only LINKTYPE_RAW (101) captures decode — other
  // linktypes yield records counted as undecodable.
  static bool from_pcap(const std::string& path, TraceWorkload& out);
};

// Flow i sinks into kReplayBasePort + i on B.
inline constexpr std::uint16_t kReplayBasePort = 12000;

struct TraceReplayConfig {
  int listen_backlog = 32;
  sim::Time deadline = 60 * sim::kSecond;
};

struct TraceReplayResult {
  bool completed = false;  // all flows connected, sent, and drained
  std::size_t flows = 0;
  std::size_t flows_failed = 0;     // connect failures / early peer close
  std::uint64_t bytes_offered = 0;  // sum of captured payload bytes
  std::uint64_t bytes_delivered = 0;  // received by the sink services
  sim::Duration makespan = 0;  // first send until last flow drained
  [[nodiscard]] bool conserved() const noexcept {
    return completed && flows_failed == 0 && bytes_delivered == bytes_offered;
  }
};

// Replay every flow of `wl` over tb (clients on host A, sinks on host B).
TraceReplayResult run_trace_replay(core::Testbed& tb, const TraceWorkload& wl,
                                   const TraceReplayConfig& cfg = {});

}  // namespace nectar::wload
