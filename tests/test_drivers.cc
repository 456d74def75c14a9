// Driver-level tests: CAB transmit paths (fresh vs header-rewrite), copy-in
// staging, Ethernet segment timing and conversion, and loopback behaviour.
#include <gtest/gtest.h>

#include "apps/ttcp.h"
#include "core/interop.h"
#include "core/testbed.h"
#include "drivers/ether_driver.h"
#include "kernapp/kernel_socket.h"
#include "net/ip.h"
#include "tests/test_util.h"

namespace nectar::drivers {
namespace {

using core::Testbed;

TEST(CabDriverPaths, FreshPacketsForKernelData) {
  // Regular-mbuf packets through the CAB take the fresh-SDMA path (gather
  // from kernel buffers, checksum in flight).
  Testbed tb;
  net::KernCtx ctx{tb.a->intr_acct(), sim::Priority::Kernel};
  mbuf::Mbuf* got = nullptr;
  tb.b->stack().set_raw_handler(200,
                                [&](mbuf::Mbuf* m, const net::IpHeader&) { got = m; });
  mbuf::Mbuf* data = kernapp::make_pattern_chain(tb.a->pool(), 10000, 3);
  data->add_flags(mbuf::kMPktHdr);
  data->pkthdr.len = 10000;
  sim::spawn(tb.a->stack().ip().output(ctx, data, Testbed::kIpA, Testbed::kIpB, 200));
  tb.sim.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(tb.cab_a->drv_stats.tx_fresh, 1u);
  EXPECT_EQ(tb.cab_a->drv_stats.tx_rewrite, 0u);
  got = testutil::run_task(
      tb.sim, core::convert_wcab_record(
                  tb.b->stack(), net::KernCtx{tb.b->intr_acct()}, got));
  EXPECT_EQ(kernapp::verify_pattern_chain(got, 3), 0u);
  tb.b->pool().free_chain(got);
}

TEST(CabDriverPaths, CopyInStagesWithSavedBodySum) {
  Testbed tb;
  auto& proc = tb.a->create_process("p");
  mem::UserBuffer buf(proc.as, 5000);
  buf.fill_pattern(4);
  net::KernCtx ctx{proc.sys_acct, sim::Priority::Normal};

  std::optional<mbuf::Wcab> staged;
  auto run = [&]() -> sim::Task<void> {
    co_await tb.cab_a->copy_in(ctx, buf.as_uio(), tb.cab_a->tx_header_space(),
                               [&](mbuf::Wcab w) { staged = w; });
  };
  sim::spawn(run());
  tb.sim.run();
  ASSERT_TRUE(staged.has_value());
  EXPECT_EQ(staged->data_off, tb.cab_a->tx_header_space());
  EXPECT_EQ(staged->valid, 5000u);
  // The body landed intact and its checksum was saved for header rewrites.
  auto& nm = tb.cab_a->device().nm();
  auto body = nm.bytes(staged->handle, staged->data_off, 5000);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), buf.view().begin()));
  ASSERT_TRUE(nm.body_sum(staged->handle).has_value());
  EXPECT_EQ(checksum::fold(*nm.body_sum(staged->handle)),
            checksum::fold(checksum::ones_sum(buf.view())));
  nm.release(staged->handle);
}

TEST(CabDriverPaths, SingleCopyTcpUsesHeaderRewriteForEverything) {
  // With eager staging, every TCP data transmission is a header-rewrite.
  Testbed tb;
  apps::TtcpConfig cfg;
  cfg.policy = socket::CopyPolicy::kAlwaysSingleCopy;
  cfg.write_size = 64 * 1024;
  cfg.total_bytes = 1024 * 1024;
  auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_GE(tb.cab_a->drv_stats.tx_rewrite,
            cfg.total_bytes / (32 * 1024));           // data segments
  EXPECT_LE(tb.cab_a->drv_stats.tx_fresh, 5u);        // handshake/control only
}

TEST(EtherSegmentTiming, SerializesAtConfiguredRate) {
  sim::Simulator simu;
  EtherSegment seg(simu, /*bandwidth=*/1e6, /*propagation=*/sim::usec(100));
  core::Host h(simu, core::HostParams::alpha3000_400(), "h");
  auto& drv = h.attach_ether(seg, net::make_ip(192, 168, 9, 1));
  (void)drv;
  // 10 kB at 1 MB/s = 10 ms + 100 us propagation; delivery to a missing
  // address still consumes wire time, then drops.
  seg.transmit(net::make_ip(192, 168, 9, 9), std::vector<std::byte>(10000));
  simu.run();
  EXPECT_EQ(simu.now(), sim::msec(10) + sim::usec(100));
  EXPECT_EQ(seg.dropped(), 1u);
}

TEST(ConvertUioRecord, MultiVectorUserData) {
  Testbed tb;
  auto& proc = tb.a->create_process("p");
  mem::UserBuffer b1(proc.as, 300);
  mem::UserBuffer b2(proc.as, 500);
  b1.fill_pattern(21);
  for (std::size_t i = 0; i < 500; ++i)
    b2.view()[i] = mem::UserBuffer::pattern_byte(21, 300 + i);

  mem::Uio u;
  u.space = &proc.as;
  u.iov = {{b1.addr(), 300}, {b2.addr(), 500}};
  mbuf::DmaSync sync(tb.sim);
  sync.add(800);
  mbuf::UioWcabHdr hdr;
  hdr.sync = &sync;
  mbuf::Mbuf* um = tb.a->pool().get_uio(u, 800, hdr, true);
  um->pkthdr.len = 800;

  net::KernCtx ctx{proc.sys_acct, sim::Priority::Normal};
  mbuf::Mbuf* conv = testutil::run_task(
      tb.sim, convert_uio_record(tb.a->stack(), ctx, um));
  EXPECT_EQ(mbuf::m_length(conv), 800);
  EXPECT_TRUE(conv->has_pkthdr());
  EXPECT_EQ(kernapp::verify_pattern_chain(conv, 21), 0u);
  EXPECT_EQ(sync.outstanding(), 0);  // the conversion IS the copy
  tb.a->pool().free_chain(conv);
}

TEST(LoopbackDriver, RegularRecordsRoundTrip) {
  sim::Simulator simu;
  core::Host h(simu, core::HostParams::alpha3000_400(), "h");
  auto& lo = h.attach_loopback();
  mbuf::Mbuf* got = nullptr;
  h.stack().set_raw_handler(200,
                            [&](mbuf::Mbuf* m, const net::IpHeader&) { got = m; });
  net::KernCtx ctx{h.intr_acct(), sim::Priority::Kernel};
  mbuf::Mbuf* data = kernapp::make_pattern_chain(h.pool(), 3000, 5);
  data->add_flags(mbuf::kMPktHdr);
  data->pkthdr.len = 3000;
  sim::spawn(h.stack().ip().output(ctx, data, lo.addr(), lo.addr(), 200));
  simu.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(mbuf::m_length(got), 3000);
  EXPECT_EQ(kernapp::verify_pattern_chain(got, 5), 0u);
  h.pool().free_chain(got);
}

TEST(IfnetBase, SingleCopyExtensionsThrowOnPlainDevices) {
  sim::Simulator simu;
  EtherSegment seg(simu);
  core::Host h(simu, core::HostParams::alpha3000_400(), "h");
  auto& drv = h.attach_ether(seg, net::make_ip(192, 168, 9, 1));
  net::KernCtx ctx{h.intr_acct()};
  mbuf::Wcab w;
  mem::Uio dst;
  EXPECT_THROW(testutil::run_task_void(simu, drv.copy_out(ctx, w, {}, nullptr)),
               std::logic_error);
  EXPECT_THROW(testutil::run_task_void(
                   simu, drv.copy_in(ctx, dst, 0, [](mbuf::Wcab) {})),
               std::logic_error);
  EXPECT_EQ(drv.tx_header_space(), 0u);
  EXPECT_EQ(drv.outboard_owner(), nullptr);
}

}  // namespace
}  // namespace nectar::drivers
