// TCP corner cases: simultaneous close, half-close, zero-window persist
// probing, tiny windows without scaling, checksum-corruption rejection, and
// the protocol timer constants as seen on the wire.
#include <gtest/gtest.h>

#include <vector>

#include "apps/ttcp.h"
#include "core/packet_trace.h"
#include "tests/test_util.h"

namespace nectar::net {
namespace {

using core::Testbed;
using core::TestbedOptions;
using socket::CopyPolicy;
using socket::Socket;
using socket::SocketOptions;

// Connect c (on host A, process pa) to s (on host B, process pb).
void connect_pair(Testbed& tb, core::Host::Process& pa, core::Host::Process& pb,
                  Socket& c, Socket& s, std::uint16_t port) {
  bool ok_c = false, ok_s = false;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    s.listen(port);
    ok_s = co_await s.accept(ctx);
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    ok_c = co_await c.connect(ctx, Testbed::kIpB, port);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(ok_s, tb.sim.now() + 30 * sim::kSecond);
  ASSERT_TRUE(ok_c);
  ASSERT_TRUE(ok_s);
}

struct EdgeFixture : ::testing::Test {
  Testbed tb;
  core::Host::Process& pa{tb.a->create_process("a")};
  core::Host::Process& pb{tb.b->create_process("b")};

  void establish(Socket& c, Socket& s, std::uint16_t port) {
    connect_pair(tb, pa, pb, c, s, port);
  }
};

TEST_F(EdgeFixture, SimultaneousClose) {
  Socket c(tb.a->stack(), Socket::Proto::kTcp);
  Socket s(tb.b->stack(), Socket::Proto::kTcp);
  establish(c, s, 7100);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx_a = pa.ctx();
    auto ctx_b = pb.ctx();
    // Fire both FINs in the same event round.
    auto ca = [&]() -> sim::Task<void> { co_await c.close(ctx_a); };
    auto cb = [&]() -> sim::Task<void> { co_await s.close(ctx_b); };
    sim::spawn(ca());
    sim::spawn(cb());
    co_await c.wait_closed();
    co_await s.wait_closed();
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
  ASSERT_TRUE(done);
  tb.sim.run_until(tb.sim.now() + 10 * sim::kSecond);  // drain TIME_WAIT
  EXPECT_EQ(c.tcp().state(), TcpState::kClosed);
  EXPECT_EQ(s.tcp().state(), TcpState::kClosed);
}

TEST_F(EdgeFixture, HalfCloseKeepsReverseDirectionAlive) {
  Socket c(tb.a->stack(), Socket::Proto::kTcp);
  Socket s(tb.b->stack(), Socket::Proto::kTcp);
  establish(c, s, 7101);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx_a = pa.ctx();
    auto ctx_b = pb.ctx();
    // A closes its send side immediately...
    co_await c.close(ctx_a);
    // ...then B (in CLOSE_WAIT) still sends 64 KB to A.
    mem::UserBuffer src(pb.as, 64 * 1024);
    src.fill_pattern(61);
    (void)co_await s.send(ctx_b, src.as_uio());
    co_await s.close(ctx_b);
    mem::UserBuffer dst(pa.as, 64 * 1024);
    std::size_t got = 0;
    for (;;) {
      const std::size_t n = co_await c.recv(ctx_a, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    EXPECT_EQ(got, 64u * 1024);
    EXPECT_EQ(dst.verify_pattern(61, 0, got, 0), SIZE_MAX);
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
  EXPECT_TRUE(done);
}

TEST_F(EdgeFixture, ZeroWindowPersistProbeRecovers) {
  // Reader sleeps long enough for the window to close completely; the
  // sender's persist machinery (plus the reader-driven update) must recover
  // without a retransmission timeout storm.
  SocketOptions so;
  so.tcp.sndbuf = 64 * 1024;
  so.tcp.rcvbuf = 64 * 1024;
  Socket c(tb.a->stack(), Socket::Proto::kTcp, so);
  Socket s(tb.b->stack(), Socket::Proto::kTcp, so);
  establish(c, s, 7102);
  bool done = false;
  std::size_t got = 0;
  const std::size_t total = 256 * 1024;
  auto sender = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    mem::UserBuffer src(pa.as, 32 * 1024);
    std::size_t sent = 0;
    while (sent < total)
      sent += co_await c.send(ctx, src.as_uio(0, std::min<std::size_t>(
                                                    32 * 1024, total - sent)));
  };
  auto reader = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    mem::UserBuffer dst(pb.as, 16 * 1024);
    while (got < total) {
      co_await sim::delay(tb.sim, 2 * sim::kSecond);  // long stall: window 0
      const std::size_t n = co_await s.recv(ctx, dst.as_uio());
      if (n == 0) break;
      got += n;
    }
    done = true;
  };
  sim::spawn(sender());
  sim::spawn(reader());
  tb.run_until_done(done, tb.sim.now() + 600 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);
}

TEST_F(EdgeFixture, CorruptedSegmentDropsAndRecovers) {
  // Flip one bit in one data frame on the wire: the hardware checksum must
  // reject it and TCP must retransmit (end-to-end argument in action).
  struct Corruptor final : hippi::Fabric {
    hippi::Fabric& inner;
    int countdown;
    bool fired = false;
    Corruptor(hippi::Fabric& f, int n) : inner(f), countdown(n) {}
    void attach(hippi::Addr a, hippi::Endpoint* e) override { inner.attach(a, e); }
    void submit(hippi::Packet&& p) override {
      if (!fired && p.size() > 2000 && --countdown == 0) {
        p.bytes[1500] ^= std::byte{0x10};
        fired = true;
      }
      inner.submit(std::move(p));
    }
  };
  Corruptor corrupt(*tb.wire, 3);

  sim::Simulator& simu = tb.sim;
  core::Host ha(simu, core::HostParams::alpha3000_400(), "ca");
  core::Host hb(simu, core::HostParams::alpha3000_400(), "cb");
  auto& cab_a = ha.attach_cab(corrupt, 0x301, make_ip(10, 2, 0, 1));
  auto& cab_b = hb.attach_cab(corrupt, 0x302, make_ip(10, 2, 0, 2));
  cab_a.add_neighbor(make_ip(10, 2, 0, 2), 0x302);
  cab_b.add_neighbor(make_ip(10, 2, 0, 1), 0x301);
  ha.stack().routes().add(make_ip(10, 2, 0, 0), 24, &cab_a);
  hb.stack().routes().add(make_ip(10, 2, 0, 0), 24, &cab_b);

  auto& ptx = ha.create_process("tx");
  auto& prx = hb.create_process("rx");
  SocketOptions single_copy;
  single_copy.policy = CopyPolicy::kAlwaysSingleCopy;
  Socket c(ha.stack(), Socket::Proto::kTcp, single_copy);
  Socket s(hb.stack(), Socket::Proto::kTcp);
  s.listen(7103);
  const std::size_t total = 512 * 1024;
  bool done = false;
  std::size_t got = 0, errors = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = prx.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(prx.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    auto v = dst.view();
    for (std::size_t i = 0; i < got; ++i) {
      if (v[i] != mem::UserBuffer::pattern_byte(71, i)) ++errors;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = ptx.ctx();
    if (!co_await c.connect(ctx, make_ip(10, 2, 0, 2), 7103)) co_return;
    mem::UserBuffer src(ptx.as, total);
    src.fill_pattern(71);
    (void)co_await c.send(ctx, src.as_uio());
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 600 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(corrupt.fired);
  EXPECT_EQ(got, total);
  EXPECT_EQ(errors, 0u);
  EXPECT_GE(s.tcp().stats().bad_checksum, 1u);
  EXPECT_GE(c.tcp().stats().rexmt_segs + c.tcp().stats().rexmt_timeouts, 1u);
}

TEST_F(EdgeFixture, UdpChecksumDisabledStillDelivers) {
  SocketOptions so;
  so.udp_checksum = false;
  Socket tx(tb.a->stack(), Socket::Proto::kUdp, so);
  Socket rx(tb.b->stack(), Socket::Proto::kUdp, so);
  tx.bind(3100);
  rx.bind(4100);
  bool done = false;
  auto run = [&]() -> sim::Task<void> {
    auto ctx_a = pa.ctx();
    auto ctx_b = pb.ctx();
    mem::UserBuffer src(pa.as, 2048);
    src.fill_pattern(81);
    (void)co_await tx.sendto(ctx_a, src.as_uio(), Testbed::kIpB, 4100);
    mem::UserBuffer dst(pb.as, 2048);
    auto r = co_await rx.recvfrom(ctx_b, dst.as_uio());
    EXPECT_EQ(r.len, 2048u);
    EXPECT_EQ(dst.verify_pattern(81, 0, 2048, 0), SIZE_MAX);
    done = true;
  };
  sim::spawn(run());
  tb.run_until_done(done, tb.sim.now() + 30 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_GT(tb.a->stack().udp().stats().nocsum_tx, 0u);
}

// A testbed with host A's socket c connected to host B's socket s.
struct ConnectedPair {
  ConnectedPair(TestbedOptions o, std::uint16_t port) : tb(std::move(o)) {
    connect_pair(tb, pa, pb, c, s, port);
  }

  // Queue `bytes` on c; returns without waiting for the ACK.
  void send(std::size_t bytes) {
    bool sent = false;
    auto run = [&]() -> sim::Task<void> {
      auto ctx = pa.ctx();
      mem::UserBuffer src(pa.as, bytes);
      (void)co_await c.send(ctx, src.as_uio());
      sent = true;
    };
    sim::spawn(run());
    tb.run_until_done(sent, tb.sim.now() + sim::kSecond);
    ASSERT_TRUE(sent);
  }

  // Wire times of the data-bearing segments host A sent.
  [[nodiscard]] std::vector<sim::Time> data_sent_by_a() const {
    std::vector<sim::Time> out;
    for (const auto& e : tb.trace->entries()) {
      if (e.src == Testbed::kHaA && e.proto == kProtoTcp && e.payload > 0)
        out.push_back(e.when);
    }
    return out;
  }

  Testbed tb;
  core::Host::Process& pa{tb.a->create_process("a")};
  core::Host::Process& pb{tb.b->create_process("b")};
  Socket c{tb.a->stack(), Socket::Proto::kTcp};
  Socket s{tb.b->stack(), Socket::Proto::kTcp};
};

// The timer constants, each observed on the wire or in the stack's counters:
// the retransmission interval starts at 1 s, doubles per timeout and is
// clamped at 30 s; TIME-WAIT lasts 2 * MSL = 2 s; and a lone data segment
// waits the 10 ms delayed-ACK timer for its ACK.
TEST(TcpTimers, BackoffClampTimeWaitAndDelayedAck) {
  TestbedOptions traced;
  traced.trace_packets = true;
  {
    // Retransmission backoff: the link dies after the handshake, and A
    // retransmits 4 KiB into the void for 900 s.
    TestbedOptions o = traced;
    o.with_partition = true;
    ConnectedPair p(o, 7110);
    p.tb.trace->clear();
    p.tb.partition->set_down(true);
    const sim::Time t0 = p.tb.sim.now();
    p.send(4096);
    p.tb.sim.run_until(t0 + 900 * sim::kSecond);

    // Gaps in whole milliseconds: the timer is re-armed once the sender's
    // per-segment processing (well under 1 ms) has handed the segment down.
    const std::vector<sim::Time> tx = p.data_sent_by_a();
    std::vector<sim::Duration> gaps_ms;
    for (std::size_t i = 1; i < tx.size(); ++i)
      gaps_ms.push_back((tx[i] - tx[i - 1]) / sim::kMillisecond);
    std::vector<sim::Duration> want_ms = {1000, 2000, 4000, 8000, 16000};
    want_ms.resize(33, 30000);
    EXPECT_EQ(gaps_ms, want_ms);
    EXPECT_EQ(p.c.tcp().stats().rexmt_timeouts, 33u);
  }
  {
    // TIME-WAIT: A closes first, so A holds the record.
    ConnectedPair p(TestbedOptions{}, 7111);
    auto close_both = [&]() -> sim::Task<void> {
      auto ctx_a = p.pa.ctx();
      auto ctx_b = p.pb.ctx();
      co_await p.c.close(ctx_a);
      co_await p.s.close(ctx_b);
    };
    sim::spawn(close_both());
    const NetStack& stack = p.tb.a->stack();
    while (stack.timewait_count() == 0 && p.tb.sim.step()) {
    }
    ASSERT_EQ(stack.timewait_count(), 1u);
    const sim::Time entered = p.tb.sim.now();
    const std::uint64_t expiries = stack.stats().timewait_expiries;
    while (stack.timewait_count() == 1 && p.tb.sim.step()) {
    }
    EXPECT_EQ(stack.timewait_count(), 0u);
    EXPECT_EQ(p.tb.sim.now() - entered, 2 * sim::kSecond);
    EXPECT_EQ(stack.stats().timewait_expiries, expiries + 1);
  }
  {
    // Delayed ACK: nothing else is in flight, so B's ACK waits for the
    // timer. The gap adds B's receive and transmit processing to the 10 ms.
    ConnectedPair p(traced, 7112);
    p.tb.trace->clear();
    p.send(1024);
    p.tb.sim.run_until(p.tb.sim.now() + sim::kSecond);

    const std::vector<sim::Time> tx = p.data_sent_by_a();
    ASSERT_EQ(tx.size(), 1u);
    sim::Time acked = 0;
    for (const auto& e : p.tb.trace->entries()) {
      if (e.src == Testbed::kHaB && e.proto == kProtoTcp && e.when > tx[0]) {
        acked = e.when;
        break;
      }
    }
    ASSERT_NE(acked, 0);
    EXPECT_GT(acked - tx[0], sim::msec(10));
    EXPECT_LT(acked - tx[0], sim::msec(11));
  }
}

}  // namespace
}  // namespace nectar::net
