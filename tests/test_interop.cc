// §5 interoperability tests: the four scenarios the paper enumerates —
// sockets over existing devices (M_UIO conversion at the driver entry),
// receive from existing devices (nothing to do), in-kernel applications
// transmitting (regular mbufs through the single-copy stack), and in-kernel
// applications receiving (M_WCAB -> regular conversion with DMA resync).
#include <gtest/gtest.h>

#include "apps/ttcp.h"
#include "checksum/wire.h"
#include "core/interop.h"
#include "core/testbed.h"
#include "kernapp/block_server.h"
#include "kernapp/echo_server.h"
#include "kernapp/kernel_socket.h"
#include "kernapp/ping.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

using core::Testbed;
using core::TestbedOptions;
using socket::CopyPolicy;
using socket::Socket;
using socket::SocketOptions;

TestbedOptions ether_opts() {
  TestbedOptions o;
  o.with_ethernet = true;
  o.ether_bandwidth_bps = 10e6;  // fast Ethernet keeps tests quick
  return o;
}

struct InteropFixture : ::testing::Test {
  Testbed tb{ether_opts()};
  core::Host::Process& pa{tb.a->create_process("cli")};
  core::Host::Process& pb{tb.b->create_process("srv")};
};

TEST_F(InteropFixture, SingleCopyPolicyOverEthernetConverts) {
  // Scenario 1: a socket asked for single copy, but the route goes out the
  // Ethernet. kAuto falls back at the socket layer; forcing UIO descriptors
  // down the stack exercises the driver-entry conversion (§5: "a copy has
  // merely been delayed").
  Socket tx(tb.a->stack(), Socket::Proto::kUdp);
  Socket rx(tb.b->stack(), Socket::Proto::kUdp);
  tx.bind(3000);
  rx.bind(4000);
  bool done = false;
  std::size_t got = 0, errors = 0;
  auto run = [&]() -> sim::Task<void> {
    auto ctx_a = pa.ctx();
    auto ctx_b = pb.ctx();
    mem::UserBuffer src(pa.as, 1200);
    src.fill_pattern(6);
    // Build the UIO record by hand and push it through UDP toward the
    // Ethernet address: the driver must convert it.
    mbuf::DmaSync sync(tb.sim);
    sync.add(1200);
    mbuf::UioWcabHdr hdr;
    hdr.sync = &sync;
    mbuf::Mbuf* um = tb.a->pool().get_uio(src.as_uio(), 1200, hdr, false);
    co_await tb.a->stack().udp().output(net::KernCtx{pa.sys_acct},
                                        um, Testbed::kEthA, 3000,
                                        Testbed::kEthB, 4000);
    co_await sync.drain();  // completed by the conversion
    (void)ctx_a;
    mem::UserBuffer dst(pb.as, 1500);
    auto r = co_await rx.recvfrom(ctx_b, dst.as_uio());
    got = r.len;
    for (std::size_t i = 0; i < got; ++i) {
      if (dst.view()[i] != mem::UserBuffer::pattern_byte(6, i)) ++errors;
    }
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, 1200u);
  EXPECT_EQ(errors, 0u);
  EXPECT_GT(tb.eth_a->if_stats.uio_converted, 0u);
}

TEST_F(InteropFixture, TcpOverEthernetWorksUnmodified) {
  // Scenario 2: ordinary sockets over the existing device — the modified
  // stack must behave exactly like a traditional one.
  apps::TtcpConfig cfg;
  cfg.server_addr = Testbed::kEthB;  // route out the Ethernet
  cfg.write_size = 8 * 1024;
  cfg.total_bytes = 256 * 1024;
  cfg.verify_data = true;
  cfg.policy = CopyPolicy::kAuto;
  auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.data_errors, 0u);
  EXPECT_EQ(r.sender_sock.single_copy_writes, 0u);  // no CAB on this path
  EXPECT_GT(tb.eth_a->if_stats.opackets, 0u);
}

TEST_F(InteropFixture, WcabConversionProducesReadableBytes) {
  // Scenario 4 machinery: convert an outboard record to regular mbufs and
  // check the bytes.
  auto& dev = tb.cab_b->device();
  auto h = dev.nm().alloc(1000);
  ASSERT_TRUE(h);
  auto span = dev.nm().bytes(*h, 0, 1000);
  for (std::size_t i = 0; i < 1000; ++i)
    span[i] = mem::UserBuffer::pattern_byte(8, i);

  mbuf::Wcab w;
  w.owner = &dev;
  w.handle = *h;
  w.data_off = 0;
  w.valid = 1000;
  mbuf::Mbuf* rec = tb.b->pool().get_wcab(w, 1000, mbuf::UioWcabHdr{}, true);
  rec->pkthdr.len = 1000;

  net::KernCtx ctx{tb.b->intr_acct(), sim::Priority::Kernel};
  mbuf::Mbuf* conv = testutil::run_task(
      tb.sim, core::convert_wcab_record(tb.b->stack(), ctx, rec));
  EXPECT_EQ(kernapp::verify_pattern_chain(conv, 8), 0u);
  EXPECT_EQ(dev.nm().live_packets(), 0u);  // outboard buffer released
  tb.b->pool().free_chain(conv);
}

TEST_F(InteropFixture, InKernelEchoOverCab) {
  // Scenarios 3+4 end-to-end: a user client talks to an in-kernel echo
  // server over the CAB. The server's receive side sees M_WCAB records and
  // converts them; its transmit side sends regular mbufs through the
  // single-copy stack (automatically single-copy + outboard checksum).
  kernapp::EchoServer echo(*tb.b, 7007);
  sim::spawn(echo.serve(1));

  bool done = false;
  std::size_t errors = 0;
  const std::size_t total = 96 * 1024;
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    SocketOptions single_copy;
    single_copy.policy = CopyPolicy::kAlwaysSingleCopy;
    Socket c(tb.a->stack(), Socket::Proto::kTcp, single_copy);
    const bool connected = co_await c.connect(ctx, Testbed::kIpB, 7007);
    EXPECT_TRUE(connected);
    if (!connected) {
      done = true;
      co_return;
    }
    mem::UserBuffer src(pa.as, total);
    src.fill_pattern(12);
    mem::UserBuffer dst(pa.as, total);
    auto tx = [&]() -> sim::Task<void> { (void)co_await c.send(ctx, src.as_uio()); };
    sim::spawn(tx());
    std::size_t got = 0;
    while (got < total) {
      const std::size_t n = co_await c.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    EXPECT_EQ(got, total);
    const std::size_t bad = dst.verify_pattern(12, 0, got, 0);
    if (bad != SIZE_MAX) ++errors;
    co_await c.close(ctx);
    done = true;
  };
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(echo.stats.bytes_echoed, total);
  EXPECT_GT(echo.stats.wcab_records_converted, 0u);  // §5 conversion exercised
}

TEST_F(InteropFixture, BlockServerServesVerifiedBlocks) {
  kernapp::BlockServer server(*tb.b, 2049);
  sim::spawn(server.serve(4));

  bool done = false;
  int good = 0;
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    Socket c(tb.a->stack(), Socket::Proto::kUdp);
    c.bind(3001);
    mem::UserBuffer req(pa.as, 8);
    mem::UserBuffer reply(pa.as, kernapp::BlockServer::kBlockSize + 8);
    for (std::uint32_t bn = 0; bn < 4; ++bn) {
      const std::uint32_t len = 48 * 1024;
      wire::store_be32(req.view().data(), bn);
      wire::store_be32(req.view().data() + 4, len);
      (void)co_await c.sendto(ctx, req.as_uio(), Testbed::kIpB, 2049);
      auto r = co_await c.recvfrom(ctx, reply.as_uio());
      EXPECT_EQ(r.len, kernapp::BlockServer::kHdrSize + len);
      bool ok = true;
      auto v = reply.view();
      EXPECT_EQ(wire::load_be32(v.data()), bn);
      for (std::size_t i = 0; i < len; ++i) {
        if (v[kernapp::BlockServer::kHdrSize + i] != server.block_byte(bn, i)) {
          ok = false;
          break;
        }
      }
      if (ok) ++good;
    }
    done = true;
  };
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(good, 4);
  EXPECT_EQ(server.stats.requests, 4u);
  EXPECT_EQ(server.stats.bytes_served, 4u * 48 * 1024);
}

TEST_F(InteropFixture, PingEchoOverCabSmallAndLarge) {
  kernapp::PingResponder responder(*tb.b);
  bool done = false;
  sim::Duration rtt_small = -1, rtt_large = -1;
  auto run = [&]() -> sim::Task<void> {
    rtt_small = co_await kernapp::ping_once(*tb.a, Testbed::kIpB, 256, 21);
    rtt_large = co_await kernapp::ping_once(*tb.a, Testbed::kIpB, 16 * 1024, 22);
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(rtt_small, 0);
  EXPECT_GT(rtt_large, rtt_small);  // more bytes, more wire+DMA time
  EXPECT_EQ(responder.stats.echoed, 2u);
}

TEST_F(InteropFixture, LoopbackCarriesLocalTraffic) {
  auto& lo = tb.a->attach_loopback();
  Socket tx(tb.a->stack(), Socket::Proto::kUdp);
  Socket rx(tb.a->stack(), Socket::Proto::kUdp);
  tx.bind(6001);
  rx.bind(6002);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    mem::UserBuffer src(pa.as, 2048);
    src.fill_pattern(14);
    (void)co_await tx.sendto(ctx, src.as_uio(), lo.addr(), 6002);
    mem::UserBuffer dst(pa.as, 2048);
    auto r = co_await rx.recvfrom(ctx, dst.as_uio());
    EXPECT_EQ(r.len, 2048u);
    EXPECT_EQ(dst.verify_pattern(14, 0, 2048, 0), SIZE_MAX);
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 30 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_GT(lo.if_stats.opackets, 0u);
}

}  // namespace
}  // namespace nectar
