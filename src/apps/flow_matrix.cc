#include "apps/flow_matrix.h"

#include <algorithm>

#include "mem/user_buffer.h"

namespace nectar::apps {

using core::Host;
using core::MultiTestbed;
using core::ShardedTestbed;

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0, s2 = 0.0;
  for (const double x : xs) {
    s += x;
    s2 += x * x;
  }
  if (s2 <= 0.0) return 0.0;
  return (s * s) / (static_cast<double>(xs.size()) * s2);
}

namespace {

constexpr std::size_t kRecvSize = 128 * 1024;
constexpr std::uint16_t kPortBase = 5001;
constexpr std::uint32_t kPatternSeed = 7;

// Sender-side fields are written only by the sender coroutine and
// receiver-side fields only by the receiver. On the sharded engine those run
// on different threads, so they must stay disjoint members (distinct memory
// locations); `done` is the handoff bit the coordinator polls between epochs,
// where the phase barrier orders it after the receiver's writes.
struct FlowShared {
  bool established = false;   // sender
  bool tx_failed = false;     // sender: connect() failed
  bool rx_failed = false;     // receiver: accept() failed
  bool done = false;          // receiver: stream fully drained (or gave up)
  std::uint64_t received = 0;       // receiver
  std::uint64_t data_errors = 0;    // receiver
  sim::Time t_established = 0;      // sender
  sim::Time t_finished = 0;         // receiver
};

sim::Task<void> flow_receiver(sim::Simulator& sim, const FlowMatrixConfig& cfg,
                              std::size_t i, socket::Socket& sock,
                              Host::Process& proc, FlowShared& fs) {
  auto ctx = proc.ctx();
  sock.listen(static_cast<std::uint16_t>(kPortBase + i));
  const auto seed = kPatternSeed + static_cast<std::uint32_t>(i);
  if (!co_await sock.accept(ctx)) {
    fs.rx_failed = true;
  } else {
    mem::UserBuffer buf(proc.as, kRecvSize + 8, 0);
    std::uint64_t pos = 0;
    while (pos < cfg.bytes_per_flow) {
      const std::size_t n = co_await sock.recv(ctx, buf.as_uio(0, kRecvSize));
      if (n == 0) break;
      if (cfg.verify_data) {
        // Each sender loops over one pattern-filled write buffer, so stream
        // position p carries pattern byte (p mod write_size) of its seed.
        auto v = buf.view();
        for (std::size_t k = 0; k < n; ++k) {
          const auto expect =
              mem::UserBuffer::pattern_byte(seed, (pos + k) % cfg.write_size);
          if (v[k] != expect) ++fs.data_errors;
        }
      }
      pos += n;
      fs.received = pos;
    }
  }
  fs.t_finished = sim.now();
  fs.done = true;
}

sim::Task<void> flow_sender(sim::Simulator& sim, const FlowMatrixConfig& cfg,
                            std::size_t i, net::IpAddr dst,
                            socket::Socket& sock, Host::Process& proc,
                            FlowShared& fs) {
  auto ctx = proc.ctx();
  // Staggered start: purely event-driven determinism, and the connect storm
  // doesn't land on one simulation instant.
  if (i > 0 && cfg.start_spacing > 0)
    co_await sim::delay(sim, static_cast<sim::Duration>(i) * cfg.start_spacing);
  if (!co_await sock.connect(ctx, dst,
                             static_cast<std::uint16_t>(kPortBase + i))) {
    fs.tx_failed = true;
    co_return;  // the paired receiver observes the failed accept
  }
  fs.established = true;
  fs.t_established = sim.now();

  mem::UserBuffer buf(proc.as, cfg.write_size + 8, 0);
  buf.fill_pattern(kPatternSeed + static_cast<std::uint32_t>(i));

  std::uint64_t sent = 0;
  while (sent < cfg.bytes_per_flow) {
    const std::size_t n =
        std::min<std::uint64_t>(cfg.write_size, cfg.bytes_per_flow - sent);
    const std::size_t w = co_await sock.send(ctx, buf.as_uio(0, n));
    if (w == 0) break;
    sent += w;
  }
  co_await sock.close(ctx);
}

FlowMatrixResult collect_results(
    const FlowMatrixConfig& cfg, const std::vector<FlowShared>& fs,
    const std::vector<std::unique_ptr<socket::Socket>>& tx,
    const std::vector<std::unique_ptr<socket::Socket>>& rx) {
  FlowMatrixResult r;
  r.completed = true;
  r.flows.resize(cfg.num_flows);
  sim::Time first_est = 0, last_fin = 0;
  bool any_est = false;
  std::vector<double> goodputs;
  goodputs.reserve(cfg.num_flows);
  for (std::size_t i = 0; i < cfg.num_flows; ++i) {
    FlowStats& f = r.flows[i];
    f.flow = i;
    f.bytes = fs[i].received;
    f.data_errors = fs[i].data_errors;
    f.established = fs[i].t_established;
    f.finished = fs[i].t_finished;
    f.completed = fs[i].done && !fs[i].tx_failed && !fs[i].rx_failed &&
                  f.bytes >= cfg.bytes_per_flow;
    if (f.finished > f.established && f.established > 0) {
      f.goodput_mbps = sim::throughput_mbps(static_cast<std::int64_t>(f.bytes),
                                            f.finished - f.established);
    }
    f.tx_tcp = tx[i]->tcp().stats();
    f.rx_tcp = rx[i]->tcp().stats();
    goodputs.push_back(f.goodput_mbps);
    r.total_bytes += f.bytes;
    if (fs[i].established) {
      if (!any_est || f.established < first_est) first_est = f.established;
      any_est = true;
    }
    last_fin = std::max(last_fin, f.finished);
    r.completed = r.completed && f.completed;
  }
  if (any_est && last_fin > first_est) {
    r.elapsed = last_fin - first_est;
    r.aggregate_mbps = sim::throughput_mbps(
        static_cast<std::int64_t>(r.total_bytes), r.elapsed);
  }
  r.jain = jain_index(goodputs);
  return r;
}

// The body both testbeds share. Each coroutine runs on its host's
// simulator: the one flat simulator, or the host's shard of the parallel
// engine. `drive(all_done)` runs the testbed until all_done() or the
// deadline, then lets teardown (FIN exchanges, in-flight DMAs) quiesce.
template <class Bed, class Drive>
FlowMatrixResult run_matrix(Bed& tb, const FlowMatrixConfig& cfg,
                            const Drive& drive) {
  const std::size_t pairs = tb.num_pairs();
  // Every flow's socket runs the defaults: kAuto copy policy, the 16 KiB
  // single-copy threshold and the default TcpParams.
  const socket::SocketOptions so{};

  // One sender process per client host and one receiver process per server
  // host; flows on the same host share it (the paper's per-process CPU
  // accounting stays per host, which is what the contention study needs).
  std::vector<Host::Process*> cprocs(pairs), sprocs(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    cprocs[p] = &tb.clients[p]->create_process("fmx_tx");
    sprocs[p] = &tb.servers[p]->create_process("fmx_rx");
  }

  std::vector<std::unique_ptr<socket::Socket>> tx(cfg.num_flows);
  std::vector<std::unique_ptr<socket::Socket>> rx(cfg.num_flows);
  std::vector<FlowShared> fs(cfg.num_flows);

  for (std::size_t i = 0; i < cfg.num_flows; ++i) {
    const std::size_t p = i % pairs;
    tx[i] = std::make_unique<socket::Socket>(tb.clients[p]->stack(),
                                             socket::Socket::Proto::kTcp, so);
    rx[i] = std::make_unique<socket::Socket>(tb.servers[p]->stack(),
                                             socket::Socket::Proto::kTcp, so);
    sim::spawn(flow_receiver(tb.servers[p]->sim(), cfg, i, *rx[i], *sprocs[p],
                             fs[i]));
    sim::spawn(flow_sender(tb.clients[p]->sim(), cfg, i, Bed::server_ip(p),
                           *tx[i], *cprocs[p], fs[i]));
  }

  // Completion is a scan of the per-flow done bits, not a shared countdown
  // the receivers would all write: on the parallel engine they run on many
  // shards. The scan resumes where the last call stopped, so the whole run
  // does O(num_flows) work, not O(num_flows) per check.
  std::size_t scanned = 0;
  drive([&fs, &scanned, n = cfg.num_flows] {
    while (scanned < n && fs[scanned].done) ++scanned;
    return scanned == n;
  });

  return collect_results(cfg, fs, tx, rx);
}

}  // namespace

FlowMatrixResult run_flow_matrix(MultiTestbed& tb, const FlowMatrixConfig& cfg) {
  return run_matrix(tb, cfg, [&](const auto& all_done) {
    tb.run_until_done(all_done, tb.sim.now() + cfg.deadline);
    tb.sim.run_until(tb.sim.now() + 5 * sim::kSecond);
  });
}

FlowMatrixResult run_flow_matrix(ShardedTestbed& tb,
                                 const FlowMatrixConfig& cfg) {
  return run_matrix(tb, cfg, [&](const auto& all_done) {
    tb.run_until_done(all_done, tb.engine.now() + cfg.deadline);
    tb.quiesce(5 * sim::kSecond);
  });
}

}  // namespace nectar::apps
