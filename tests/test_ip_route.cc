// Unit tests: protocol headers, longest-prefix routing, IP input/output,
// fragmentation/reassembly, and forwarding between interfaces.
#include <gtest/gtest.h>

#include "apps/ttcp.h"
#include "core/interop.h"
#include "net/headers.h"
#include "net/ip.h"
#include "net/route.h"
#include "tests/test_util.h"

namespace nectar::net {
namespace {

TEST(Headers, IpRoundTripAndChecksum) {
  std::vector<std::byte> buf(kIpHdrLen);
  IpHeader h;
  h.total_len = 1500;
  h.id = 42;
  h.ttl = 17;
  h.proto = kProtoTcp;
  h.src = make_ip(10, 0, 0, 1);
  h.dst = make_ip(10, 0, 0, 2);
  h.dont_fragment = true;
  write_ip_header(buf, h);
  EXPECT_TRUE(verify_ip_checksum(buf));
  const IpHeader r = read_ip_header(buf);
  EXPECT_EQ(r.total_len, 1500);
  EXPECT_EQ(r.id, 42);
  EXPECT_EQ(r.ttl, 17);
  EXPECT_EQ(r.proto, kProtoTcp);
  EXPECT_EQ(r.src, make_ip(10, 0, 0, 1));
  EXPECT_TRUE(r.dont_fragment);
  EXPECT_FALSE(r.more_fragments);
  buf[9] ^= std::byte{1};
  EXPECT_FALSE(verify_ip_checksum(buf));
}

TEST(Headers, IpFragmentFields) {
  std::vector<std::byte> buf(kIpHdrLen);
  IpHeader h;
  h.more_fragments = true;
  h.frag_offset = 1234;
  write_ip_header(buf, h);
  const IpHeader r = read_ip_header(buf);
  EXPECT_TRUE(r.more_fragments);
  EXPECT_EQ(r.frag_offset, 1234);
}

TEST(Headers, TcpRoundTripWithOptions) {
  std::vector<std::byte> buf(64);
  TcpHeader h;
  h.src_port = 1000;
  h.dst_port = 2000;
  h.seq = 0xdeadbeef;
  h.ack = 0x12345678;
  h.flags = kTcpSyn | kTcpAck;
  h.win = 0xffff;
  h.checksum = 0xabcd;
  h.mss = 32728;
  h.has_ws = true;
  h.ws = 3;
  write_tcp_header(buf, h);
  EXPECT_EQ(tcp_options_len(h), 8u);  // 4 (mss) + 3 (ws) padded to 8
  const TcpHeader r = read_tcp_header(buf);
  EXPECT_EQ(r.src_port, 1000);
  EXPECT_EQ(r.seq, 0xdeadbeefu);
  EXPECT_EQ(r.ack, 0x12345678u);
  EXPECT_EQ(r.flags, kTcpSyn | kTcpAck);
  EXPECT_EQ(r.win, 0xffff);
  EXPECT_EQ(r.checksum, 0xabcd);
  EXPECT_EQ(r.mss, 32728);
  EXPECT_TRUE(r.has_ws);
  EXPECT_EQ(r.ws, 3);
  EXPECT_EQ(r.data_off_words, 7);
}

TEST(Headers, TcpNoOptions) {
  std::vector<std::byte> buf(kTcpHdrLen);
  TcpHeader h;
  h.flags = kTcpAck;
  write_tcp_header(buf, h);
  const TcpHeader r = read_tcp_header(buf);
  EXPECT_EQ(r.data_off_words, 5);
  EXPECT_EQ(r.mss, 0);
  EXPECT_FALSE(r.has_ws);
}

TEST(Headers, UdpRoundTrip) {
  std::vector<std::byte> buf(kUdpHdrLen);
  write_udp_header(buf, UdpHeader{7, 9, 100, 0x1111});
  const UdpHeader r = read_udp_header(buf);
  EXPECT_EQ(r.src_port, 7);
  EXPECT_EQ(r.dst_port, 9);
  EXPECT_EQ(r.length, 100);
  EXPECT_EQ(r.checksum, 0x1111);
}

TEST(Headers, SequenceArithmeticWraps) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));
  EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_leq(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

TEST(Route, LongestPrefixMatch) {
  RouteTable rt;
  Ifnet* a = reinterpret_cast<Ifnet*>(0x1);
  Ifnet* b = reinterpret_cast<Ifnet*>(0x2);
  Ifnet* c = reinterpret_cast<Ifnet*>(0x3);
  rt.add(make_ip(10, 0, 0, 0), 8, a);
  rt.add(make_ip(10, 1, 0, 0), 16, b);
  rt.add(make_ip(10, 1, 2, 3), 32, c);

  EXPECT_EQ(rt.lookup(make_ip(10, 9, 9, 9))->ifp, a);
  EXPECT_EQ(rt.lookup(make_ip(10, 1, 9, 9))->ifp, b);
  EXPECT_EQ(rt.lookup(make_ip(10, 1, 2, 3))->ifp, c);
  EXPECT_FALSE(rt.lookup(make_ip(192, 168, 0, 1)).has_value());
}

TEST(Route, GatewayVsDirect) {
  RouteTable rt;
  Ifnet* a = reinterpret_cast<Ifnet*>(0x1);
  rt.add(make_ip(10, 0, 0, 0), 24, a);                          // direct
  rt.add(0, 0, a, make_ip(10, 0, 0, 254));                      // default
  EXPECT_EQ(rt.lookup(make_ip(10, 0, 0, 5))->next_hop, make_ip(10, 0, 0, 5));
  EXPECT_EQ(rt.lookup(make_ip(99, 0, 0, 1))->next_hop, make_ip(10, 0, 0, 254));
}

TEST(Route, RemoveRoute) {
  RouteTable rt;
  Ifnet* a = reinterpret_cast<Ifnet*>(0x1);
  rt.add(make_ip(10, 0, 0, 0), 24, a);
  EXPECT_TRUE(rt.lookup(make_ip(10, 0, 0, 1)).has_value());
  rt.remove(make_ip(10, 0, 0, 0), 24);
  EXPECT_FALSE(rt.lookup(make_ip(10, 0, 0, 1)).has_value());
}

// ---- IP behaviour over the real testbed ------------------------------------

struct IpFixture : ::testing::Test {
  core::Testbed tb;
  net::KernCtx ctx_a;
  IpFixture() : tb(core::TestbedOptions{}) {
    ctx_a = net::KernCtx{tb.a->intr_acct(), sim::Priority::Kernel};
  }

  // Send a raw-proto record from A to B and capture what B's stack delivers.
  mbuf::Mbuf* send_raw(std::size_t len, std::uint8_t proto = 200) {
    mbuf::Mbuf* got = nullptr;
    tb.b->stack().set_raw_handler(proto,
                                  [&](mbuf::Mbuf* m, const IpHeader&) { got = m; });
    mbuf::Mbuf* data = tb.a->pool().get_cluster(true);
    std::vector<std::byte> payload(std::min<std::size_t>(len, 8192), std::byte{0x3c});
    data->append(payload);
    mbuf::Mbuf* head = data;
    std::size_t remaining = len - payload.size();
    mbuf::Mbuf* cur = data;
    while (remaining > 0) {
      mbuf::Mbuf* c = tb.a->pool().get_cluster(false);
      std::vector<std::byte> p2(std::min<std::size_t>(remaining, 8192), std::byte{0x3c});
      c->append(p2);
      cur->next = c;
      cur = c;
      remaining -= p2.size();
    }
    head->pkthdr.len = static_cast<int>(len);
    sim::spawn(tb.a->stack().ip().output(ctx_a, head, core::Testbed::kIpA,
                                         core::Testbed::kIpB, proto));
    tb.sim.run();
    return got;
  }
};

TEST_F(IpFixture, SmallPacketDelivered) {
  mbuf::Mbuf* got = send_raw(500);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(mbuf::m_length(got), 500);
  tb.b->pool().free_chain(got);
}

TEST_F(IpFixture, OversizePacketFragmentsAndReassembles) {
  // Twice the 32 KB MTU (within the IPv4 64 KB limit): two fragments on the
  // wire, one record delivered.
  const std::size_t len = 60'000;
  mbuf::Mbuf* got = send_raw(len);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(mbuf::m_length(got), static_cast<int>(len));
  EXPECT_GE(tb.a->stack().ip().stats().ofragments, 2u);
  EXPECT_EQ(tb.b->stack().ip().stats().reassembled, 1u);
  // Payload intact end to end (WCAB parts converted for inspection).
  got = testutil::run_task(
      tb.sim, core::convert_wcab_record(
                  tb.b->stack(),
                  net::KernCtx{tb.b->intr_acct(), sim::Priority::Kernel}, got));
  for (mbuf::Mbuf* m = got; m != nullptr; m = m->next) {
    for (auto b : m->span()) EXPECT_EQ(b, std::byte{0x3c});
  }
  tb.b->pool().free_chain(got);
}

TEST_F(IpFixture, LostFragmentTimesOutAndFreesTheRest) {
  // The first fragment of a two-fragment UDP datagram reaches B; the second
  // is lost. Reassembly holds the first for 30 s, then frees it.
  auto& pool = tb.b->pool();
  const std::int64_t baseline = pool.in_use();
  constexpr std::size_t kFragPayload = 1024;  // a multiple of 8
  std::vector<std::byte> raw(kIpHdrLen + kFragPayload, std::byte{0x5a});
  IpHeader ih;
  ih.total_len = static_cast<std::uint16_t>(raw.size());
  ih.id = 7;
  ih.more_fragments = true;
  ih.proto = kProtoUdp;
  ih.src = core::Testbed::kIpA;
  ih.dst = core::Testbed::kIpB;
  write_ip_header({raw.data(), kIpHdrLen}, ih);
  write_udp_header({raw.data() + kIpHdrLen, kUdpHdrLen},
                   UdpHeader{3000, 4000, 2 * kFragPayload, 0});
  mbuf::Mbuf* frag = pool.get_cluster(true);
  frag->append(raw);
  frag->pkthdr.len = static_cast<int>(raw.size());
  sim::spawn(tb.b->stack().ip().input(
      net::KernCtx{tb.b->intr_acct(), sim::Priority::Kernel}, frag, tb.cab_b));

  const auto& st = tb.b->stack().ip().stats();
  tb.sim.run_until(tb.sim.now() + 29 * sim::kSecond);
  EXPECT_EQ(st.frag_timeouts, 0u);
  EXPECT_GT(pool.in_use(), baseline);  // still queued for reassembly
  tb.sim.run_until(tb.sim.now() + 2 * sim::kSecond);
  EXPECT_EQ(st.frag_timeouts, 1u);
  EXPECT_EQ(st.reassembled, 0u);
  EXPECT_EQ(pool.in_use(), baseline);
}

TEST_F(IpFixture, DatagramBeyondIpv4LimitDropped) {
  mbuf::Mbuf* got = send_raw(100'000);
  EXPECT_EQ(got, nullptr);
  EXPECT_EQ(tb.a->stack().ip().stats().oversize, 1u);
  EXPECT_EQ(tb.a->pool().in_use(), 0);
}

TEST_F(IpFixture, UnroutableDropsAndCounts) {
  mbuf::Mbuf* data = tb.a->pool().get_cluster(true);
  std::vector<std::byte> payload(10, std::byte{1});
  data->append(payload);
  data->pkthdr.len = 10;
  sim::spawn(tb.a->stack().ip().output(ctx_a, data, core::Testbed::kIpA,
                                       make_ip(99, 9, 9, 9), 200));
  tb.sim.run();
  EXPECT_EQ(tb.a->stack().ip().stats().no_route, 1u);
  EXPECT_EQ(tb.a->pool().in_use(), 0);
}

TEST(IpForward, RoutesBetweenInterfaces) {
  // A --HIPPI-- B --Ethernet-- (same B): a third "remote" address behind B's
  // Ethernet exercises the forwarding path through the single stack (§4.1).
  core::TestbedOptions opts;
  opts.with_ethernet = true;
  core::Testbed tb(opts);
  // Host A routes 192.168.1.0/24 via B over HIPPI.
  tb.a->stack().routes().add(make_ip(192, 168, 1, 0), 24, tb.cab_a,
                             core::Testbed::kIpB);

  mbuf::Mbuf* got = nullptr;
  tb.b->stack().set_raw_handler(200, [&](mbuf::Mbuf* m, const IpHeader&) { got = m; });

  net::KernCtx ctx{tb.a->intr_acct(), sim::Priority::Kernel};
  mbuf::Mbuf* data = tb.a->pool().get_cluster(true);
  std::vector<std::byte> payload(256, std::byte{9});
  data->append(payload);
  data->pkthdr.len = 256;
  // Destination: B's *Ethernet* address, reached via the HIPPI next hop.
  sim::spawn(tb.a->stack().ip().output(ctx, data, core::Testbed::kIpA,
                                       core::Testbed::kEthB, 200));
  tb.sim.run();
  // B owns that address, so it delivers locally (no forward needed)...
  ASSERT_NE(got, nullptr);
  tb.b->pool().free_chain(got);
}

TEST(IpForward, TtlExpiresInForwarding) {
  // Build a middlebox: A -- wire1 -- M -- wire2 -- C, and send A->C with a
  // TTL of 1; M must drop it.
  sim::Simulator simu;
  hippi::DirectWire wire(simu);
  core::Host a(simu, core::HostParams::alpha3000_400(), "A");
  core::Host m(simu, core::HostParams::alpha3000_400(), "M");
  auto& cab_a = a.attach_cab(wire, 1, make_ip(10, 0, 0, 1));
  auto& cab_m = m.attach_cab(wire, 2, make_ip(10, 0, 0, 2));
  cab_a.add_neighbor(make_ip(10, 0, 0, 2), 2);
  cab_m.add_neighbor(make_ip(10, 0, 0, 1), 1);
  a.stack().routes().add(make_ip(10, 0, 0, 0), 24, &cab_a);
  // A routes 10.0.1.0/24 via M.
  a.stack().routes().add(make_ip(10, 0, 1, 0), 24, &cab_a, make_ip(10, 0, 0, 2));
  m.stack().routes().add(make_ip(10, 0, 0, 0), 24, &cab_m);
  // M has no route to 10.0.1.0/24 -> forwarding fails with no_route; with a
  // TTL of 1 it never even looks: bad_header increments.
  net::KernCtx ctx{a.intr_acct(), sim::Priority::Kernel};
  mbuf::Mbuf* data = a.pool().get_cluster(true);
  std::vector<std::byte> payload(64, std::byte{1});
  data->append(payload);
  data->pkthdr.len = 64;
  // Hand-build the IP packet so we control the TTL.
  IpHeader ih;
  ih.total_len = static_cast<std::uint16_t>(kIpHdrLen + 64);
  ih.ttl = 1;
  ih.proto = 200;
  ih.src = make_ip(10, 0, 0, 1);
  ih.dst = make_ip(10, 0, 1, 5);
  mbuf::Mbuf* pkt = mbuf::m_prepend(data, static_cast<int>(kIpHdrLen));
  write_ip_header({pkt->data(), kIpHdrLen}, ih);
  sim::spawn(cab_a.output(ctx, pkt, make_ip(10, 0, 0, 2)));
  simu.run();
  EXPECT_EQ(m.stack().ip().stats().bad_header, 1u);  // TTL expired
}

}  // namespace
}  // namespace nectar::net
