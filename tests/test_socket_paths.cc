// Socket-layer behaviour: path-selection policies, the §4.5 alignment
// fix-up extension, receive-side unaligned fallback, the multi-connection
// Listener, and netstat reporting.
#include <gtest/gtest.h>

#include "apps/ttcp.h"
#include "core/interop.h"
#include "core/netstat.h"
#include "socket/listener.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

using core::Testbed;
using core::TestbedOptions;
using socket::CopyPolicy;
using socket::Socket;
using socket::SocketOptions;

TEST(SocketPaths, AutoPolicyThresholdSelectsPath) {
  for (const auto& [size, expect_single] :
       {std::pair<std::size_t, bool>{4 * 1024, false},
        std::pair<std::size_t, bool>{64 * 1024, true}}) {
    Testbed tb;
    apps::TtcpConfig cfg;
    cfg.policy = CopyPolicy::kAuto;
    cfg.single_copy_threshold = 16 * 1024;
    cfg.write_size = size;
    cfg.total_bytes = 512 * 1024;
    cfg.verify_data = true;
    auto r = apps::run_ttcp(tb, cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.data_errors, 0u);
    if (expect_single) {
      EXPECT_GT(r.sender_sock.single_copy_writes, 0u);
      EXPECT_EQ(r.sender_sock.copy_writes, 0u);
    } else {
      EXPECT_EQ(r.sender_sock.single_copy_writes, 0u);
      EXPECT_GT(r.sender_sock.copy_writes, 0u);
    }
  }
}

TEST(SocketPaths, AlignmentFixupSendsBulkSingleCopy) {
  // §4.5's unimplemented optimization, implemented: a misaligned large write
  // sends a short copied prefix packet, then the (now aligned) bulk goes
  // single-copy. Every byte verified.
  Testbed tb;
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  SocketOptions so;
  so.policy = CopyPolicy::kAuto;
  so.tx_align_fixup = true;
  Socket c(tb.a->stack(), Socket::Proto::kTcp, so);
  Socket s(tb.b->stack(), Socket::Proto::kTcp, so);
  s.listen(9000);

  const std::size_t total = 128 * 1024;
  bool done = false;
  std::size_t got = 0, errors = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    auto v = dst.view();
    for (std::size_t i = 0; i < got; ++i) {
      if (v[i] != mem::UserBuffer::pattern_byte(33, i)) ++errors;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, total + 8, /*misalign=*/2);
    src.fill_pattern(33);
    (void)co_await c.send(ctx, src.as_uio(0, total));
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(c.sock_stats().align_fixups, 1u);
  EXPECT_EQ(c.sock_stats().single_copy_writes, 1u);
  EXPECT_EQ(c.sock_stats().unaligned_fallbacks, 1u);  // probed before fix-up
}

TEST(SocketPaths, AlignmentFixupDataIntact) {
  // Byte-exact check of an unaligned source via ttcp's verified transfer.
  Testbed tb;
  apps::TtcpConfig cfg;
  cfg.policy = CopyPolicy::kAuto;
  cfg.write_size = 64 * 1024;
  cfg.total_bytes = 1024 * 1024;
  cfg.verify_data = true;
  cfg.src_misalign = 2;
  // TtcpConfig has no fix-up flag (direct socket use covers the fix-up
  // above): confirm the default, fix-up off, still delivers intact data.
  const apps::TtcpResult r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.data_errors, 0u);
  EXPECT_EQ(r.sender_sock.single_copy_writes, 0u);  // fell back, no fix-up
}

TEST(SocketPaths, ReceiverUnalignedBufferStagesThroughKernel) {
  // §4.5: "this flexibility does not exist on receive" — an unaligned
  // destination forces a kernel staging copy, but bytes stay correct.
  Testbed tb;
  apps::TtcpConfig cfg;
  cfg.policy = CopyPolicy::kAlwaysSingleCopy;
  cfg.write_size = 64 * 1024;
  cfg.total_bytes = 1024 * 1024;
  cfg.verify_data = true;
  cfg.dst_misalign = 2;
  auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.data_errors, 0u);
  EXPECT_GT(r.receiver_sock.wcab_bytes_received, 0u);
}

TEST(SocketPaths, ListenerAcceptsManyConnections) {
  Testbed tb;
  auto& pb = tb.b->create_process("server");
  socket::Listener listener(tb.b->stack(), 8080);

  constexpr int kClients = 5;
  int served = 0;
  bool all_done = false;
  int clients_done = 0;

  auto server = [&]() -> sim::Task<void> {
    net::KernCtx ctx{pb.sys_acct, sim::Priority::Normal};
    for (int i = 0; i < kClients; ++i) {
      auto sock = co_await listener.accept();
      if (!sock) break;
      // Echo one message per connection (in-kernel style for brevity).
      mbuf::Mbuf* m = co_await sock->recv_mbufs(ctx, 64 * 1024);
      if (m != nullptr) {
        m = co_await core::convert_wcab_record(tb.b->stack(), ctx, m);
        co_await sock->send_mbufs(ctx, m);
      }
      co_await sock->tcp().close(ctx);
      co_await sock->tcp().wait_closed();
      ++served;
    }
  };

  auto client = [&](int id) -> sim::Task<void> {
    auto& pa = tb.a->create_process("cli" + std::to_string(id));
    auto ctx = pa.ctx();
    Socket c(tb.a->stack(), Socket::Proto::kTcp);
    if (co_await c.connect(ctx, Testbed::kIpB, 8080)) {
      mem::UserBuffer buf(pa.as, 4096);
      buf.fill_pattern(static_cast<std::uint32_t>(id));
      (void)co_await c.send(ctx, buf.as_uio());
      mem::UserBuffer back(pa.as, 4096);
      std::size_t got = 0;
      while (got < 4096) {
        const std::size_t n = co_await c.recv(ctx, back.as_uio(got));
        if (n == 0) break;
        got += n;
      }
      EXPECT_EQ(got, 4096u);
      EXPECT_EQ(back.verify_pattern(static_cast<std::uint32_t>(id), 0, got, 0),
                SIZE_MAX);
      co_await c.close(ctx);
    }
    if (++clients_done == kClients) all_done = true;
  };

  sim::spawn(server());
  // Clients arrive staggered (connections are served sequentially; SYN
  // retransmission covers any that arrive while the previous is in service).
  for (int i = 0; i < kClients; ++i) {
    const int id = i;
    tb.sim.after(i * 200 * sim::kMillisecond, [&, id] { sim::spawn(client(id)); });
  }
  tb.run_until_done(all_done, tb.sim.now() + 600 * sim::kSecond);
  EXPECT_TRUE(all_done);
  // The last client finishes before the server's FIN handshake completes.
  tb.sim.run_until(tb.sim.now() + 30 * sim::kSecond);
  EXPECT_EQ(served, kClients);
}

TEST(SocketPaths, NetstatReportsActivity) {
  Testbed tb;
  apps::TtcpConfig cfg;
  cfg.policy = CopyPolicy::kAlwaysSingleCopy;
  cfg.write_size = 64 * 1024;
  cfg.total_bytes = 512 * 1024;
  auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);

  const std::string report = core::netstat(*tb.a);
  for (const char* line :
       {"interfaces[0].name \"cab0\"\n", "interfaces[0].single_copy true\n",
        "interfaces[0].cab.tx_rewrite ", "pin_cache.page_hits ",
        "cpu.accounts_busy_s.ttcp_tx.sys ", "mbufs.live 0\n"}) {
    EXPECT_NE(report.find(line), std::string::npos) << line;
  }
  // Header rewrites happened, and (mbufs.live 0 above) nothing leaked.
  EXPECT_EQ(report.find("interfaces[0].cab.tx_rewrite 0\n"), std::string::npos);
}

}  // namespace
}  // namespace nectar
