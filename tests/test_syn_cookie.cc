// SYN-cookie suite: property tests on the cookie codec (round-trip over
// randomized 4-tuples, staleness, bit-flip rejection) and the integration
// contract — a 100k-SYN flood from spoofed, unroutable sources against a
// backlog-1 listener must cost zero memory per SYN, a forged-ACK flood must
// reject every cookie, and a legitimate client must still get service, both
// through the cookie path while the flood's wreckage is live and through the
// normal path once it drains.
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "core/testbed.h"
#include "mem/user_buffer.h"
#include "net/headers.h"
#include "net/netstack.h"
#include "net/syn_cookie.h"
#include "net/tcp.h"
#include "socket/listener.h"

namespace nectar::net {
namespace {

using core::Testbed;
using socket::Listener;
using socket::Socket;

// --- codec property tests ----------------------------------------------------

TEST(SynCookieCodec, RoundTripRandomTuples) {
  SynCookieJar jar;
  std::mt19937_64 rng(0xc001c0de);
  for (int i = 0; i < 10000; ++i) {
    const auto laddr = static_cast<IpAddr>(rng());
    const auto faddr = static_cast<IpAddr>(rng());
    const auto lport = static_cast<std::uint16_t>(rng());
    const auto fport = static_cast<std::uint16_t>(rng());
    const auto mss = static_cast<std::uint16_t>(400 + rng() % 65000);
    const auto now = static_cast<sim::Time>(rng() % (1000 * sim::kSecond));

    const std::uint32_t c = jar.encode(laddr, lport, faddr, fport, mss, now);
    const auto d = jar.decode(laddr, lport, faddr, fport, c, now);
    ASSERT_TRUE(d.valid) << "iteration " << i;
    // The encoded MSS is the peer's advertised MSS rounded down to a class
    // (floored at class 0 = 536 for sub-default advertisements).
    if (mss >= SynCookieJar::kMssTable[0]) {
      EXPECT_LE(d.mss, mss);
    }
    EXPECT_EQ(d.mss, SynCookieJar::kMssTable[SynCookieJar::mss_class(mss)]);

    // Any change to the tuple invalidates the MAC.
    EXPECT_FALSE(jar.decode(laddr ^ 1, lport, faddr, fport, c, now).valid);
    EXPECT_FALSE(jar.decode(laddr, lport ^ 1, faddr, fport, c, now).valid);
    EXPECT_FALSE(jar.decode(laddr, lport, faddr ^ 1, fport, c, now).valid);
    EXPECT_FALSE(jar.decode(laddr, lport, faddr, fport ^ 1, c, now).valid);
  }
}

TEST(SynCookieCodec, ValidWithinWindowStaleBeyond) {
  SynCookieJar jar;
  const IpAddr laddr = make_ip(10, 0, 0, 2), faddr = make_ip(10, 0, 0, 1);
  const sim::Time t0 = 5 * SynCookieJar::kWindow;  // window counter = 5
  const std::uint32_t c = jar.encode(laddr, 80, faddr, 2000, 1460, t0);

  // Valid through kMaxAge whole windows after the minting window...
  for (int age = 0; age <= SynCookieJar::kMaxAge; ++age) {
    EXPECT_TRUE(jar.decode(laddr, 80, faddr, 2000, c,
                           t0 + age * SynCookieJar::kWindow)
                    .valid)
        << "age " << age;
  }
  // ...and stale one window later.
  EXPECT_FALSE(jar.decode(laddr, 80, faddr, 2000, c,
                          t0 + (SynCookieJar::kMaxAge + 1) * SynCookieJar::kWindow)
                   .valid);
  EXPECT_FALSE(jar.decode(laddr, 80, faddr, 2000, c,
                          t0 + 100 * SynCookieJar::kWindow)
                   .valid);
}

TEST(SynCookieCodec, EverySingleBitFlipRejected) {
  SynCookieJar jar;
  const IpAddr laddr = make_ip(10, 0, 0, 2), faddr = make_ip(10, 0, 0, 1);
  const sim::Time now = 17 * sim::kSecond;
  const std::uint32_t c = jar.encode(laddr, 7001, faddr, 12345, 8192, now);
  ASSERT_TRUE(jar.decode(laddr, 7001, faddr, 12345, c, now).valid);
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_FALSE(jar.decode(laddr, 7001, faddr, 12345, c ^ (1u << bit), now).valid)
        << "bit " << bit;
  }
}

TEST(SynCookieCodec, DistinctSecretsDisagree) {
  SynCookieJar a(1), b(2);
  const IpAddr laddr = make_ip(10, 0, 0, 2), faddr = make_ip(10, 0, 0, 1);
  const std::uint32_t c = a.encode(laddr, 80, faddr, 2000, 1460, 0);
  EXPECT_TRUE(a.decode(laddr, 80, faddr, 2000, c, 0).valid);
  EXPECT_FALSE(b.decode(laddr, 80, faddr, 2000, c, 0).valid);
}

// --- integration: floods and recovery ---------------------------------------

// Build a header-only TCP segment with a correct software checksum, ready
// for NetStack::transport_input.
mbuf::Mbuf* make_segment(mbuf::MbufPool& pool, IpAddr src, IpAddr dst,
                         TcpHeader th) {
  const std::size_t hlen = kTcpHdrLen + tcp_options_len(th);
  mbuf::Mbuf* pkt = pool.get_hdr();
  pkt->align_end(hlen);
  std::byte raw[64];
  std::span<std::byte> hb{raw, hlen};
  th.checksum = 0;
  write_tcp_header(hb, th);
  const std::uint32_t sum =
      transport_pseudo_sum(src, dst, kProtoTcp, static_cast<std::uint16_t>(hlen)) +
      checksum::ones_sum(hb);
  th.checksum = checksum::finish(sum);
  write_tcp_header(hb, th);
  pkt->append(hb);
  pkt->pkthdr.len = static_cast<int>(hlen);
  return pkt;
}

IpHeader ip_for(IpAddr src, IpAddr dst) {
  IpHeader ih;
  ih.src = src;
  ih.dst = dst;
  ih.proto = kProtoTcp;
  return ih;
}

TEST(SynCookieFlood, HundredThousandSpoofedSynsCostNothing) {
  Testbed tb;
  constexpr std::uint16_t kPort = 7001;
  constexpr std::size_t kSyns = 100000;
  auto ln = std::make_unique<Listener>(tb.b->stack(), kPort,
                                       socket::SocketOptions{}, /*backlog=*/1);

  auto& stack = tb.b->stack();
  auto& pool = tb.b->pool();
  KernCtx ctx{tb.b->intr_acct(), sim::Priority::Kernel};

  const std::size_t pool_base = pool.in_use();
  const std::size_t demux_base = stack.tcp_demux().size();

  bool done = false;
  auto flood = [&]() -> sim::Task<void> {
    std::mt19937_64 rng(0xf100d);
    for (std::size_t i = 0; i < kSyns; ++i) {
      // Spoofed, unroutable source: the SYN|ACK (embryonic or cookie) is
      // dropped at the IP layer, exactly like a real flood's reflections.
      const IpAddr src = make_ip(172, 16, (i >> 8) & 0xff, i & 0xff);
      TcpHeader th;
      th.src_port = static_cast<std::uint16_t>(1024 + (rng() % 60000));
      th.dst_port = kPort;
      th.seq = static_cast<std::uint32_t>(rng());
      th.flags = kTcpSyn;
      th.win = 8192;
      th.mss = 1460;
      mbuf::Mbuf* pkt = make_segment(pool, src, Testbed::kIpB, th);
      co_await stack.transport_input(ctx, kProtoTcp, pkt, ip_for(src, Testbed::kIpB));
    }
    done = true;
  };
  sim::spawn(flood());
  ASSERT_TRUE(tb.run_until_done(done, tb.sim.now() + 600 * sim::kSecond));
  tb.sim.run_until(tb.sim.now() + sim::msec(10));

  const auto& st = stack.stats();
  // One SYN converted the single embryonic socket; every other one found the
  // backlog exhausted and was answered with a stateless cookie.
  EXPECT_EQ(st.listen_overflows, kSyns - 1);
  EXPECT_EQ(st.syn_cookies_sent, kSyns - 1);
  // Zero per-SYN state: the demux grew by exactly the one converted
  // embryonic connection, no mbuf lingers, no TIME-WAIT records, no zombies.
  EXPECT_EQ(stack.tcp_demux().size(), demux_base + 1);
  EXPECT_EQ(pool.in_use(), pool_base);
  EXPECT_EQ(stack.timewait_count(), 0u);
  EXPECT_EQ(stack.zombie_count(), 0u);

  // Forged-ACK flood: blind cookie guesses must all fail the MAC and leave
  // no trace either.
  constexpr std::size_t kAcks = 50000;
  done = false;
  auto ack_flood = [&]() -> sim::Task<void> {
    std::mt19937_64 rng(0xacc5);
    for (std::size_t i = 0; i < kAcks; ++i) {
      const IpAddr src = make_ip(172, 17, (i >> 8) & 0xff, i & 0xff);
      TcpHeader th;
      th.src_port = static_cast<std::uint16_t>(1024 + (rng() % 60000));
      th.dst_port = kPort;
      th.seq = static_cast<std::uint32_t>(rng());
      th.ack = static_cast<std::uint32_t>(rng());  // cookie guess
      th.flags = kTcpAck;
      th.win = 8192;
      mbuf::Mbuf* pkt = make_segment(pool, src, Testbed::kIpB, th);
      co_await stack.transport_input(ctx, kProtoTcp, pkt, ip_for(src, Testbed::kIpB));
      // A rejected cookie finishes transport_input without suspending; yield
      // so an unoptimized build does not nest two frames per ACK.
      co_await sim::delay(tb.sim, 0);
    }
    done = true;
  };
  sim::spawn(ack_flood());
  ASSERT_TRUE(tb.run_until_done(done, tb.sim.now() + 600 * sim::kSecond));
  EXPECT_EQ(st.syn_cookies_rejected, kAcks);
  EXPECT_EQ(st.syn_cookies_accepted, 0u);
  EXPECT_EQ(stack.tcp_demux().size(), demux_base + 1);
  EXPECT_EQ(pool.in_use(), pool_base);

  // Service recovery: restarting the listener (the operator's move after a
  // flood — the one spoofed SYN_RCVD embryonic would otherwise pin the
  // backlog until its handshake retransmissions give up) restores a clean
  // backlog, and a legitimate client connects normally. The stuck embryonic
  // is reaped through the zombie path.
  ln = std::make_unique<Listener>(tb.b->stack(), kPort, socket::SocketOptions{},
                                  /*backlog=*/1);
  auto& cproc = tb.a->create_process("legit_tx");
  auto& sproc = tb.b->create_process("legit_rx");
  bool served = false;
  auto server = [&]() -> sim::Task<void> {
    for (;;) {
      auto s = co_await ln->accept();
      if (s == nullptr) continue;
      auto sctx = sproc.ctx();
      mem::UserBuffer buf(sproc.as, 4096, 0);
      const std::size_t n = co_await s->recv(sctx, buf.as_uio(0, 4096));
      EXPECT_EQ(n, 1024u);
      co_await s->close(sctx);
      served = true;
      co_return;
    }
  };
  auto client = [&]() -> sim::Task<void> {
    auto cctx = cproc.ctx();
    Socket s(tb.a->stack(), Socket::Proto::kTcp);
    const bool ok = co_await s.connect(cctx, Testbed::kIpB, kPort);
    EXPECT_TRUE(ok);
    if (!ok) co_return;
    mem::UserBuffer buf(cproc.as, 1024, 0);
    buf.fill_pattern(3);
    co_await s.send(cctx, buf.as_uio(0, 1024));
    co_await s.close(cctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  ASSERT_TRUE(tb.run_until_done(served, tb.sim.now() + 300 * sim::kSecond));
}

TEST(SynCookieFlood, LegitClientCompletesThroughCookiePath) {
  // Exhaust a backlog-1 listener with a first legitimate connection that
  // nobody accepts yet; a second client then gets a cookie SYN|ACK, believes
  // itself connected, and its data retransmission completes the server-side
  // connection once the backlog rearms — the stateless handshake end to end.
  Testbed tb;
  constexpr std::uint16_t kPort = 7100;
  Listener ln(tb.b->stack(), kPort, {}, /*backlog=*/1);
  auto& cproc = tb.a->create_process("cookie_tx");
  auto& sproc = tb.b->create_process("cookie_rx");

  std::size_t served = 0;
  bool done = false;
  auto server = [&]() -> sim::Task<void> {
    auto sctx = sproc.ctx();
    // Deliberately late: both clients are in flight before the first accept.
    co_await sim::delay(tb.sim, sim::msec(200));
    for (int k = 0; k < 2; ++k) {
      auto s = co_await ln.accept();
      EXPECT_NE(s, nullptr);
      if (s == nullptr) co_return;
      mem::UserBuffer buf(sproc.as, 4096, 0);
      std::size_t got = 0;
      while (got < 1024) {
        const std::size_t n = co_await s->recv(sctx, buf.as_uio(0, 4096));
        if (n == 0) break;
        got += n;
      }
      EXPECT_EQ(got, 1024u);
      co_await s->close(sctx);
      ++served;
    }
    done = true;
  };
  auto client = [&](int idx) -> sim::Task<void> {
    auto cctx = cproc.ctx();
    if (idx > 0) co_await sim::delay(tb.sim, sim::msec(10 * idx));
    Socket s(tb.a->stack(), Socket::Proto::kTcp);
    const bool ok = co_await s.connect(cctx, Testbed::kIpB, kPort);
    EXPECT_TRUE(ok);
    if (!ok) co_return;
    mem::UserBuffer buf(cproc.as, 1024, 0);
    buf.fill_pattern(static_cast<std::uint32_t>(idx));
    co_await s.send(cctx, buf.as_uio(0, 1024));
    co_await s.close(cctx);
    co_await s.wait_closed();
  };
  sim::spawn(server());
  sim::spawn(client(0));
  sim::spawn(client(1));
  ASSERT_TRUE(tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond));
  EXPECT_EQ(served, 2u);
  const auto& st = tb.b->stack().stats();
  EXPECT_GE(st.syn_cookies_sent, 1u);
  EXPECT_GE(st.syn_cookies_accepted, 1u);
  EXPECT_EQ(st.syn_cookies_rejected, 0u);
}

}  // namespace
}  // namespace nectar::net
