// ttcp: the paper's measurement workload (§7.1) — a bulk TCP transfer
// between user processes, reporting user-process-to-user-process throughput,
// plus the util-soaker methodology for CPU accounting.
#pragma once

#include "core/testbed.h"

namespace nectar::apps {

struct TtcpConfig {
  std::size_t write_size = 64 * 1024;
  std::size_t total_bytes = 16 * 1024 * 1024;
  socket::CopyPolicy policy = socket::CopyPolicy::kAuto;
  std::size_t single_copy_threshold = 16 * 1024;
  net::IpAddr server_addr = core::Testbed::kIpB;  // route selects the device
  bool verify_data = false;       // pattern-check every received byte
  std::size_t src_misalign = 0;   // §4.5 alignment experiments
  std::size_t dst_misalign = 0;
  net::TcpParams tcp;             // window size etc.
  sim::Duration deadline = 300 * sim::kSecond;
};

struct TtcpResult {
  bool completed = false;
  std::uint64_t bytes = 0;
  sim::Duration elapsed = 0;
  double throughput_mbps = 0.0;
  core::UtilizationReport sender;
  core::UtilizationReport receiver;
  std::uint64_t data_errors = 0;
  socket::Socket::SockStats sender_sock;
  socket::Socket::SockStats receiver_sock;
  net::TcpConnection::Stats sender_tcp;
  net::TcpConnection::Stats receiver_tcp;
};

// Configure a testbed + socket options for a stack mode. The "unmodified
// stack" (kNeverSingleCopy) treats the CAB as a dumb device: software
// checksums on both sides and whole packets auto-DMAed to host buffers, so
// no descriptor mbufs ever enter the stack.
void apply_stack_mode(core::Testbed& tb, socket::CopyPolicy policy,
                      socket::SocketOptions& so);

// Run a transmitter on tb.a and a sink on tb.b; drives the simulator to
// completion (or the deadline). Measurement window: connection established
// -> last byte delivered.
TtcpResult run_ttcp(core::Testbed& tb, const TtcpConfig& cfg);

}  // namespace nectar::apps
