#include "apps/ttcp.h"

namespace nectar::apps {

using core::CpuSnapshot;
using core::Host;
using core::Testbed;

namespace {

constexpr std::uint16_t kPort = 5001;  // the classic ttcp port
constexpr std::uint32_t kPatternSeed = 7;

struct Shared {
  bool established = false;
  bool done = false;
  bool failed = false;
  std::uint64_t received = 0;
  std::uint64_t data_errors = 0;
  CpuSnapshot a0, b0, a1, b1;
};

sim::Task<void> receiver(Testbed& tb, const TtcpConfig& cfg, socket::Socket& sock,
                         Host::Process& proc, Shared& sh) {
  auto ctx = proc.ctx();
  sock.listen(kPort);
  if (!co_await sock.accept(ctx)) {
    sh.failed = true;
    sh.done = true;
    co_return;
  }
  mem::UserBuffer buf(proc.as, 256 * 1024 + cfg.dst_misalign + 8, cfg.dst_misalign);

  std::uint64_t pos = 0;
  for (;;) {
    const std::size_t n =
        co_await sock.recv(ctx, buf.as_uio(0, 256 * 1024));
    if (n == 0) break;
    if (cfg.verify_data) {
      // The sender loops over one pattern-filled buffer, so stream position
      // p carries pattern byte (p mod write_size).
      auto v = buf.view();
      for (std::size_t i = 0; i < n; ++i) {
        const auto expect = mem::UserBuffer::pattern_byte(
            kPatternSeed, (pos + i) % cfg.write_size);
        if (v[i] != expect) ++sh.data_errors;
      }
    }
    pos += n;
    sh.received = pos;
    if (pos >= cfg.total_bytes) break;
  }
  sh.b1 = CpuSnapshot::take(*tb.b);
  sh.a1 = CpuSnapshot::take(*tb.a);
  sh.done = true;
}

sim::Task<void> sender(Testbed& tb, const TtcpConfig& cfg, socket::Socket& sock,
                       Host::Process& proc, Shared& sh) {
  auto ctx = proc.ctx();
  if (!co_await sock.connect(ctx, cfg.server_addr, kPort)) {
    sh.failed = true;
    sh.done = true;
    co_return;
  }
  sh.established = true;
  sh.a0 = CpuSnapshot::take(*tb.a);
  sh.b0 = CpuSnapshot::take(*tb.b);

  mem::UserBuffer buf(proc.as, cfg.write_size + cfg.src_misalign + 8,
                      cfg.src_misalign);
  buf.fill_pattern(kPatternSeed);

  std::uint64_t sent = 0;
  while (sent < cfg.total_bytes) {
    const std::size_t n =
        std::min<std::uint64_t>(cfg.write_size, cfg.total_bytes - sent);
    const std::size_t w = co_await sock.send(ctx, buf.as_uio(0, n));
    if (w == 0) break;
    sent += w;
  }
  co_await sock.close(ctx);
}

}  // namespace

void apply_stack_mode(Testbed& tb, socket::CopyPolicy policy,
                      socket::SocketOptions& so) {
  if (policy != socket::CopyPolicy::kNeverSingleCopy) return;
  so.tcp.csum_offload = false;
  const std::uint32_t words = (64 * 1024) / 4;  // auto-DMA whole packets
  if (tb.cab_a != nullptr) tb.cab_a->device().mdma_recv().set_autodma_words(words);
  if (tb.cab_b != nullptr) tb.cab_b->device().mdma_recv().set_autodma_words(words);
}

TtcpResult run_ttcp(Testbed& tb, const TtcpConfig& cfg) {
  auto& pa = tb.a->create_process("ttcp_tx");
  auto& pb = tb.b->create_process("ttcp_rx");

  socket::SocketOptions so;
  so.policy = cfg.policy;
  so.single_copy_threshold = cfg.single_copy_threshold;
  so.tcp = cfg.tcp;
  apply_stack_mode(tb, cfg.policy, so);

  socket::Socket tx(tb.a->stack(), socket::Socket::Proto::kTcp, so);
  socket::Socket rx(tb.b->stack(), socket::Socket::Proto::kTcp, so);

  Shared sh;
  sim::spawn(receiver(tb, cfg, rx, pb, sh));
  sim::spawn(sender(tb, cfg, tx, pa, sh));
  tb.run_until_done(sh.done, tb.sim.now() + cfg.deadline);
  // Let teardown (FIN exchange, DMAs) quiesce.
  tb.sim.run_until(tb.sim.now() + 5 * sim::kSecond);

  TtcpResult r;
  r.completed = sh.done && !sh.failed && sh.received >= cfg.total_bytes;
  r.bytes = sh.received;
  r.elapsed = sh.a1.when > sh.a0.when ? sh.a1.when - sh.a0.when : 0;
  r.throughput_mbps = sim::throughput_mbps(static_cast<std::int64_t>(r.bytes),
                                           r.elapsed);
  r.sender = core::utilization_between(*tb.a, pa, sh.a0, sh.a1);
  r.receiver = core::utilization_between(*tb.b, pb, sh.b0, sh.b1);
  r.sender.throughput_mbps = r.throughput_mbps;
  r.receiver.throughput_mbps = r.throughput_mbps;
  r.data_errors = sh.data_errors;
  r.sender_sock = tx.sock_stats();
  r.receiver_sock = rx.sock_stats();
  r.sender_tcp = tx.tcp().stats();
  r.receiver_tcp = rx.tcp().stats();
  if (!r.completed) {
    tx.tcp().debug_dump("sender");
    rx.tcp().debug_dump("receiver");
  }
  return r;
}

}  // namespace nectar::apps
