// Adversarial network conditions: packet reordering, out-of-order fragment
// delivery, combined loss+reorder, and asymmetric host speeds.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/ttcp.h"
#include "core/interop.h"
#include "kernapp/kernel_socket.h"
#include "net/ip.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

using core::Testbed;
using core::TestbedOptions;
using socket::CopyPolicy;

// Build a two-host rig whose fabric reorders packets.
struct ReorderRig {
  sim::Simulator simu;
  hippi::DirectWire wire{simu};
  hippi::ReorderFabric reorder;
  core::Host a{simu, core::HostParams::alpha3000_400(), "A"};
  core::Host b{simu, core::HostParams::alpha3000_400(), "B"};
  drivers::CabDriver* cab_a;
  drivers::CabDriver* cab_b;

  ReorderRig(double rate, sim::Duration hold, std::uint64_t seed)
      : reorder(simu, wire, rate, hold, seed) {
    cab_a = &a.attach_cab(reorder, 1, net::make_ip(10, 3, 0, 1));
    cab_b = &b.attach_cab(reorder, 2, net::make_ip(10, 3, 0, 2));
    cab_a->add_neighbor(net::make_ip(10, 3, 0, 2), 2);
    cab_b->add_neighbor(net::make_ip(10, 3, 0, 1), 1);
    a.stack().routes().add(net::make_ip(10, 3, 0, 0), 24, cab_a);
    b.stack().routes().add(net::make_ip(10, 3, 0, 0), 24, cab_b);
  }
};

struct ReorderCase {
  double rate;
  double hold_ms;
  std::uint64_t seed;
};

void PrintTo(const ReorderCase& c, std::ostream* os) {
  *os << "rate=" << c.rate << " hold_ms=" << c.hold_ms << " seed=" << c.seed;
}

class TcpReorder : public ::testing::TestWithParam<ReorderCase> {};

TEST_P(TcpReorder, OutOfOrderSegmentsReassemble) {
  const auto c = GetParam();
  ReorderRig rig(c.rate, sim::msec(c.hold_ms), c.seed);
  auto& ptx = rig.a.create_process("tx");
  auto& prx = rig.b.create_process("rx");
  socket::SocketOptions single_copy;
  single_copy.policy = CopyPolicy::kAlwaysSingleCopy;
  socket::Socket tx(rig.a.stack(), socket::Socket::Proto::kTcp, single_copy);
  socket::Socket rx(rig.b.stack(), socket::Socket::Proto::kTcp);
  rx.listen(7200);

  const std::size_t total = 2 * 1024 * 1024;
  bool done = false;
  std::size_t got = 0, errors = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = prx.ctx();
    if (!co_await rx.accept(ctx)) co_return;
    mem::UserBuffer dst(prx.as, 256 * 1024);
    while (got < total) {
      const std::size_t n = co_await rx.recv(ctx, dst.as_uio());
      if (n == 0) break;
      auto v = dst.view();
      for (std::size_t i = 0; i < n; ++i) {
        if (v[i] != mem::UserBuffer::pattern_byte(91, got + i)) ++errors;
      }
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = ptx.ctx();
    if (!co_await tx.connect(ctx, net::make_ip(10, 3, 0, 2), 7200)) co_return;
    mem::UserBuffer src(ptx.as, 128 * 1024);
    std::size_t sent = 0;
    while (sent < total) {
      auto v = src.view();
      const std::size_t n = std::min<std::size_t>(128 * 1024, total - sent);
      for (std::size_t i = 0; i < n; ++i)
        v[i] = mem::UserBuffer::pattern_byte(91, sent + i);
      sent += co_await tx.send(ctx, src.as_uio(0, n));
    }
    co_await tx.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  while (!done && rig.simu.now() < 1200 * sim::kSecond) {
    if (!rig.simu.step()) break;
  }
  ASSERT_TRUE(done) << "rate=" << c.rate;
  EXPECT_EQ(got, total);
  EXPECT_EQ(errors, 0u);
  EXPECT_GT(rig.reorder.reordered(), 0u);
  EXPECT_GT(rx.tcp().stats().ooo_segs, 0u);  // reordering actually observed
}

INSTANTIATE_TEST_SUITE_P(Cases, TcpReorder,
                         ::testing::Values(ReorderCase{0.02, 6.0, 11},
                                           ReorderCase{0.10, 1.0, 12},
                                           ReorderCase{0.05, 5.0, 13}));

TEST(IpReassembly, FragmentsArrivingInAnyOrder) {
  // Inject the fragments of one datagram directly into ip_input in every
  // rotation of their order; the reassembled record must always be identical.
  for (int rotation = 0; rotation < 3; ++rotation) {
    Testbed tb;
    net::KernCtx ctx{tb.b->intr_acct(), sim::Priority::Kernel};
    auto& pool = tb.b->pool();

    mbuf::Mbuf* got = nullptr;
    tb.b->stack().set_raw_handler(
        200, [&](mbuf::Mbuf* m, const net::IpHeader&) { got = m; });

    // Build 3 fragments of a 6000-byte payload (offsets in 8-byte units).
    const std::size_t flen = 2000;  // multiple of 8
    std::vector<mbuf::Mbuf*> frags;
    for (int i = 0; i < 3; ++i) {
      mbuf::Mbuf* data = pool.get_cluster(true);
      std::vector<std::byte> payload(flen);
      for (std::size_t k = 0; k < flen; ++k)
        payload[k] = mem::UserBuffer::pattern_byte(17, i * flen + k);
      data->append(payload);
      data->pkthdr.len = static_cast<int>(flen);
      net::IpHeader ih;
      ih.total_len = static_cast<std::uint16_t>(net::kIpHdrLen + flen);
      ih.id = 99;
      ih.proto = 200;
      ih.src = Testbed::kIpA;
      ih.dst = Testbed::kIpB;
      ih.frag_offset = static_cast<std::uint16_t>(i * flen / 8);
      ih.more_fragments = i != 2;
      mbuf::Mbuf* pkt = mbuf::m_prepend(data, static_cast<int>(net::kIpHdrLen));
      net::write_ip_header({pkt->data(), net::kIpHdrLen}, ih);
      frags.push_back(pkt);
    }
    std::rotate(frags.begin(), frags.begin() + rotation, frags.end());
    for (mbuf::Mbuf* f : frags)
      sim::spawn(tb.b->stack().ip().input(ctx, f, tb.cab_b));
    tb.sim.run();

    ASSERT_NE(got, nullptr) << "rotation " << rotation;
    EXPECT_EQ(mbuf::m_length(got), static_cast<int>(3 * flen));
    got = testutil::run_task(tb.sim,
                             core::convert_wcab_record(tb.b->stack(), ctx, got));
    EXPECT_EQ(kernapp::verify_pattern_chain(got, 17), 0u);
    tb.b->pool().free_chain(got);
  }
}

TEST(AsymmetricHosts, FastSenderSlowReceiver) {
  TestbedOptions opts;
  opts.params_a = core::HostParams::alpha3000_400();
  opts.params_b = core::HostParams::alpha3000_300lx();
  Testbed tb(opts);
  apps::TtcpConfig cfg;
  cfg.policy = CopyPolicy::kAlwaysSingleCopy;
  cfg.write_size = 128 * 1024;
  cfg.total_bytes = 4 * 1024 * 1024;
  cfg.verify_data = true;
  auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.data_errors, 0u);
  // The slow receiver burns proportionally more CPU for the same stream.
  EXPECT_GT(r.receiver.utilization, r.sender.utilization);
}

TEST(AsymmetricHosts, SlowSenderFastReceiver) {
  TestbedOptions opts;
  opts.params_a = core::HostParams::alpha3000_300lx();
  opts.params_b = core::HostParams::alpha3000_400();
  Testbed tb(opts);
  apps::TtcpConfig cfg;
  cfg.policy = CopyPolicy::kNeverSingleCopy;
  cfg.write_size = 64 * 1024;
  cfg.total_bytes = 2 * 1024 * 1024;
  cfg.verify_data = true;
  auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.data_errors, 0u);
  EXPECT_GT(r.sender.utilization, r.receiver.utilization);
}

TEST(LossAndReorderTogether, SingleCopySurvivesBoth) {
  sim::Simulator simu;
  hippi::DirectWire wire(simu);
  hippi::LossyFabric lossy(wire, 0.02, 77);
  hippi::ReorderFabric reorder(simu, lossy, 0.05, sim::msec(2), 78);
  core::Host a(simu, core::HostParams::alpha3000_400(), "A");
  core::Host b(simu, core::HostParams::alpha3000_400(), "B");
  auto& cab_a = a.attach_cab(reorder, 1, net::make_ip(10, 4, 0, 1));
  auto& cab_b = b.attach_cab(reorder, 2, net::make_ip(10, 4, 0, 2));
  cab_a.add_neighbor(net::make_ip(10, 4, 0, 2), 2);
  cab_b.add_neighbor(net::make_ip(10, 4, 0, 1), 1);
  a.stack().routes().add(net::make_ip(10, 4, 0, 0), 24, &cab_a);
  b.stack().routes().add(net::make_ip(10, 4, 0, 0), 24, &cab_b);

  auto& ptx = a.create_process("tx");
  auto& prx = b.create_process("rx");
  socket::SocketOptions single_copy;
  single_copy.policy = CopyPolicy::kAlwaysSingleCopy;
  socket::Socket tx(a.stack(), socket::Socket::Proto::kTcp, single_copy);
  socket::Socket rx(b.stack(), socket::Socket::Proto::kTcp);
  rx.listen(7300);
  const std::size_t total = 1024 * 1024;
  bool done = false;
  std::size_t got = 0, errors = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = prx.ctx();
    if (!co_await rx.accept(ctx)) co_return;
    mem::UserBuffer dst(prx.as, 128 * 1024);
    while (got < total) {
      const std::size_t n = co_await rx.recv(ctx, dst.as_uio());
      if (n == 0) break;
      auto v = dst.view();
      for (std::size_t i = 0; i < n; ++i) {
        if (v[i] != mem::UserBuffer::pattern_byte(93, (got + i) % (64 * 1024)))
          ++errors;
      }
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = ptx.ctx();
    if (!co_await tx.connect(ctx, net::make_ip(10, 4, 0, 2), 7300)) co_return;
    mem::UserBuffer src(ptx.as, 64 * 1024);
    src.fill_pattern(93);
    std::size_t sent = 0;
    while (sent < total) sent += co_await tx.send(ctx, src.as_uio());
    co_await tx.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  while (!done && simu.now() < 1200 * sim::kSecond) {
    if (!simu.step()) break;
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);
  EXPECT_EQ(errors, 0u);
}

}  // namespace
}  // namespace nectar
