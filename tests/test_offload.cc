// Large-segment offload (TSO/GRO analogue) conformance suite.
//
// The heart is a differential harness: the same seeded workload — random
// write sizes from 1 byte to several super-segments, a mix of copied and
// single-copy buffers — runs with offload off and with every tso_max setting,
// and the receiver's byte stream is digested in arrival order. Every
// configuration must produce the identical digest: offload is a transport
// optimization, never a semantic one. On top of that ride conservation
// identities (driver vs engine segment accounting), impairment composition
// (GRO must not coalesce across loss/reorder holes or corrupted segments),
// fault composition (checksum outage degrades to host-side segmentation and
// recovers), and same-seed determinism of every offload.* counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/ttcp.h"
#include "core/netstat.h"
#include "core/testbed.h"
#include "drivers/cab_driver.h"
#include "fault/fault.h"
#include "sim/rng.h"

namespace nectar {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

// FNV-1a over the delivered stream; chunk boundaries are invisible, so only
// the bytes and their order matter.
struct StreamDigest {
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t n = 0;
  void add(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      h ^= std::to_integer<std::uint64_t>(b);
      h *= 1099511628211ull;
    }
    n += bytes.size();
  }
};

struct DiffRun {
  bool done = false;
  StreamDigest rx;
  std::uint64_t super_segs = 0;    // sender driver: multi-MTU descriptors
  std::uint64_t wire_segs = 0;     // sender driver: wire segments predicted
  std::uint64_t tso_requests = 0;  // sender engine: fan-outs performed
  std::uint64_t engine_wire_segs = 0;
  std::uint64_t merged_segs = 0;   // receiver driver: GRO merges
  std::uint64_t rx_batches = 0;
  std::uint64_t rx_batched = 0;
  std::string netstat_a, netstat_b;
};

// The shared workload: 48 writes, sizes seeded — 1-byte writes, odd sizes,
// sizes straddling the single-copy threshold (mixing WCAB and copied
// buffers), and multi-super-segment bursts. Content is position-determined,
// so any reordering, loss, or duplication in delivery corrupts the digest.
DiffRun run_workload(core::TestbedOptions opts, std::uint64_t seed) {
  core::Testbed tb(std::move(opts));
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::SocketOptions so;
  so.policy = socket::CopyPolicy::kAuto;
  so.single_copy_threshold = 8 * 1024;
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp, so);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp, so);
  s.listen(9300);

  sim::Rng rng(seed);
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  for (int i = 0; i < 48; ++i) {
    std::size_t n;
    switch (rng.uniform_below(4)) {
      case 0: n = 1 + rng.uniform_below(64); break;               // tiny
      case 1: n = 4 * 1024 + rng.uniform_below(8 * 1024); break;  // straddles sc
      case 2: n = 1 + rng.uniform_below(200 * 1024); break;       // odd bulk
      default: n = 128 * 1024; break;                             // super-segments
    }
    sizes.push_back(n);
    total += n;
  }

  DiffRun out;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, 256 * 1024);
    std::uint64_t got = 0;
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio());
      if (n == 0) break;
      out.rx.add(std::span<const std::byte>(dst.view()).subspan(0, n));
      got += n;
    }
    co_await s.close(ctx);
    out.done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, core::Testbed::kIpB, 9300)) co_return;
    mem::UserBuffer src(pa.as, 256 * 1024);
    std::size_t pos = 0;
    for (const std::size_t n : sizes) {
      // Stream position determines the pattern, so each write refills.
      auto v = src.view();
      for (std::size_t i = 0; i < n; ++i)
        v[i] = mem::UserBuffer::pattern_byte(static_cast<std::uint32_t>(seed),
                                             pos + i);
      pos += co_await c.send(ctx, src.as_uio(0, n));
    }
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(out.done, tb.sim.now() + 1200 * sim::kSecond);
  tb.sim.run();  // drain trailing flush timers, watchdogs, completions

  out.super_segs = tb.cab_a->off_stats.tx_super_segs;
  out.wire_segs = tb.cab_a->off_stats.tx_wire_segs;
  out.tso_requests = tb.cab_a->device().mdma_xmit().stats().tso_requests;
  out.engine_wire_segs = tb.cab_a->device().mdma_xmit().stats().tso_wire_segs;
  out.merged_segs = tb.cab_b->off_stats.rx_merged_segs;
  out.rx_batches = tb.cab_b->off_stats.rx_batches;
  out.rx_batched = tb.cab_b->off_stats.rx_batched_descs;
  out.netstat_a = core::Netstat(*tb.a).to_json();
  out.netstat_b = core::Netstat(*tb.b).to_json();

  // Hygiene in every configuration: no outboard buffers or pins leaked.
  EXPECT_EQ(tb.cab_a->device().nm().live_packets(), 0u);
  EXPECT_EQ(tb.cab_b->device().nm().live_packets(), 0u);
  EXPECT_EQ(tb.a->vm().pinned_pages(), 0u);
  EXPECT_EQ(tb.b->vm().pinned_pages(), 0u);
  return out;
}

core::TestbedOptions offload_opts(std::size_t tso_max) {
  core::TestbedOptions opts;
  opts.offload = true;
  opts.offload_cfg.tso_max = tso_max;
  return opts;
}

// --- the differential tentpole ----------------------------------------------

TEST(OffloadDifferential, ByteIdenticalStreamsAcrossTsoSettings) {
  const std::uint64_t kSeed = 1234;
  const DiffRun off = run_workload(core::TestbedOptions{}, kSeed);
  ASSERT_TRUE(off.done);
  ASSERT_GT(off.rx.n, 0u);
  EXPECT_EQ(off.super_segs, 0u);  // no offload counters without offload

  for (const std::size_t tso_max : {1u, 2u, 4u}) {
    const DiffRun on = run_workload(offload_opts(tso_max), kSeed);
    ASSERT_TRUE(on.done) << "tso_max=" << tso_max;
    // The application byte streams are identical: same length, same digest.
    EXPECT_EQ(on.rx.n, off.rx.n) << "tso_max=" << tso_max;
    EXPECT_EQ(on.rx.h, off.rx.h) << "tso_max=" << tso_max;
    if (tso_max > 1) {
      // The offload path genuinely engaged: at least one multi-MTU
      // descriptor crossed the MDMA, every fan-out produced between 2 and
      // tso_max wire segments, and the engine agrees with the driver.
      EXPECT_GT(on.super_segs, 0u) << "tso_max=" << tso_max;
      EXPECT_EQ(on.super_segs, on.tso_requests) << "tso_max=" << tso_max;
      EXPECT_EQ(on.wire_segs, on.engine_wire_segs) << "tso_max=" << tso_max;
      EXPECT_GE(on.wire_segs, 2 * on.super_segs) << "tso_max=" << tso_max;
      EXPECT_LE(on.wire_segs, tso_max * on.super_segs) << "tso_max=" << tso_max;
    } else {
      EXPECT_EQ(on.super_segs, 0u);  // tso_max=1: staging stays per-MTU
    }
    // Receive coalescing batched its completions into fewer interrupts.
    EXPECT_GT(on.rx_batched, 0u) << "tso_max=" << tso_max;
    EXPECT_LT(on.rx_batches, on.rx_batched) << "tso_max=" << tso_max;
  }
}

TEST(OffloadDifferential, SameSeedRunsAreBitIdentical) {
  const DiffRun r1 = run_workload(offload_opts(4), 77);
  const DiffRun r2 = run_workload(offload_opts(4), 77);
  ASSERT_TRUE(r1.done);
  ASSERT_TRUE(r2.done);
  EXPECT_EQ(r1.rx.h, r2.rx.h);
  // Every counter — tcp, interface, offload.* — exported as JSON is
  // byte-identical across the two runs.
  EXPECT_EQ(r1.netstat_a, r2.netstat_a);
  EXPECT_EQ(r1.netstat_b, r2.netstat_b);
  EXPECT_NE(r1.netstat_a.find("\"offload\""), std::string::npos);
  EXPECT_NE(r1.netstat_a.find("tx_super_segs"), std::string::npos);
}

TEST(OffloadDifferential, TtcpGoodputConservation) {
  // The classic workload: identical goodput on/off, plus the conservation
  // identities between driver-side and engine-side segment accounting.
  apps::TtcpConfig cfg;
  cfg.total_bytes = 4 * 1024 * 1024;
  cfg.write_size = 128 * 1024;
  cfg.verify_data = true;

  core::Testbed tb_off{core::TestbedOptions{}};
  const auto r_off = apps::run_ttcp(tb_off, cfg);
  core::Testbed tb_on{offload_opts(4)};
  const auto r_on = apps::run_ttcp(tb_on, cfg);

  ASSERT_TRUE(r_off.completed);
  ASSERT_TRUE(r_on.completed);
  EXPECT_EQ(r_on.bytes, r_off.bytes);
  EXPECT_EQ(r_on.data_errors, 0u);
  EXPECT_EQ(r_off.data_errors, 0u);

  const auto& off = tb_on.cab_a->off_stats;
  const auto& mx = tb_on.cab_a->device().mdma_xmit().stats();
  EXPECT_GT(off.tx_super_segs, 0u);
  // Clean wire: every super-segment the driver posted fanned out, and every
  // wire segment the driver predicted was emitted.
  EXPECT_EQ(off.tx_super_segs, mx.tso_requests);
  EXPECT_EQ(off.tx_wire_segs, mx.tso_wire_segs);
  EXPECT_GT(off.tx_tso_bytes, 0u);
  EXPECT_LE(off.tx_tso_bytes,
            cfg.total_bytes +
                r_on.sender_tcp.rexmt_segs * (4ull * 32 * 1024));
  // Fewer host-visible transmit operations: segs_out counts a super-segment
  // once, so offload-on issues fewer TCP sends for the same bytes.
  EXPECT_LT(r_on.sender_tcp.segs_out, r_off.sender_tcp.segs_out);
  // Receive side: coalescing really merged segments and batched interrupts.
  const auto& ob = tb_on.cab_b->off_stats;
  EXPECT_GT(ob.rx_merged_segs, 0u);
  EXPECT_GT(ob.rx_csum_verified, 0u);
  EXPECT_LT(ob.rx_batches, ob.rx_batched_descs);
}

// --- offload x impairments ---------------------------------------------------

struct ImpairCase {
  const char* name;
  double loss, reorder, corrupt, dup;
  std::uint64_t seed;
};

void PrintTo(const ImpairCase& c, std::ostream* os) {
  *os << "name=" << c.name << " loss=" << c.loss << " reorder=" << c.reorder
      << " corrupt=" << c.corrupt << " dup=" << c.dup << " seed=" << c.seed;
}

class OffloadImpairment : public ::testing::TestWithParam<ImpairCase> {};

TEST_P(OffloadImpairment, StreamsMatchNonCoalescingStack) {
  const ImpairCase c = GetParam();
  auto impair = [&](core::TestbedOptions opts) {
    opts.loss_rate = c.loss;
    opts.reorder_rate = c.reorder;
    opts.corrupt_rate = c.corrupt;
    opts.dup_rate = c.dup;
    opts.loss_seed = c.seed;
    opts.reorder_seed = c.seed + 1;
    opts.corrupt_seed = c.seed + 2;
    opts.dup_seed = c.seed + 3;
    return opts;
  };
  const DiffRun on = run_workload(impair(offload_opts(4)), c.seed);
  ASSERT_TRUE(on.done) << c.name;
  const DiffRun off = run_workload(impair(core::TestbedOptions{}), c.seed);
  ASSERT_TRUE(off.done) << c.name;

  // GRO never papered over a hole, a duplicate, or a corrupted segment: the
  // delivered stream is the same one the non-coalescing stack delivers.
  EXPECT_EQ(on.rx.n, off.rx.n) << c.name;
  EXPECT_EQ(on.rx.h, off.rx.h) << c.name;
  EXPECT_GT(on.super_segs, 0u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Impairments, OffloadImpairment,
    ::testing::Values(ImpairCase{"loss", 0.02, 0, 0, 0, 21},
                      ImpairCase{"reorder", 0, 0.05, 0, 0, 22},
                      ImpairCase{"corrupt", 0, 0, 0.01, 0, 23},
                      ImpairCase{"mixed", 0.01, 0.02, 0.005, 0.01, 24}),
    [](const ::testing::TestParamInfo<ImpairCase>& info) {
      return std::string(info.param.name);
    });

// --- offload x faults --------------------------------------------------------

TEST(OffloadFault, ChecksumOutageDegradesToHostSegmentationAndRecovers) {
  auto run_once = [](std::uint64_t seed) {
    core::Testbed tb(offload_opts(4));
    tb.cab_a->enable_recovery();
    tb.cab_b->enable_recovery();
    FaultInjector inj(tb.sim);
    inj.register_adaptor("cab_a", *tb.cab_a);
    FaultPlan plan;
    plan.seed = seed;
    FaultSpec s;
    s.target = "cab_a";
    s.kind = FaultKind::kChecksumFail;
    s.at = sim::msec(1.0);
    s.duration = sim::msec(10.0);
    plan.add(s);
    inj.arm(plan);

    apps::TtcpConfig cfg;
    cfg.total_bytes = 4 * 1024 * 1024;  // long enough to straddle the window
    cfg.write_size = 128 * 1024;
    cfg.verify_data = true;
    struct Out {
      apps::TtcpResult r;
      drivers::CabDriver::OffloadStats off;
      drivers::CabDriver::RecoveryStats rec;
      std::string netstat;
    } out;
    out.r = apps::run_ttcp(tb, cfg);
    tb.sim.run();
    out.off = tb.cab_a->off_stats;
    out.rec = tb.cab_a->rec_stats;
    out.netstat = core::Netstat(*tb.a).to_json();
    EXPECT_EQ(tb.cab_a->device().nm().live_packets(), 0u);
    EXPECT_EQ(tb.cab_a->degrade_reasons(), 0u);  // fully restored
    return out;
  };

  const auto a = run_once(5);
  ASSERT_TRUE(a.r.completed);
  EXPECT_EQ(a.r.bytes, 4u * 1024 * 1024);
  EXPECT_EQ(a.r.data_errors, 0u);
  // The outage was noticed, offload fell back to host-side per-MTU staging
  // for the degraded window, and fan-out resumed afterwards.
  EXPECT_EQ(a.rec.degrade_enter_csum, 1u);
  EXPECT_EQ(a.rec.degrade_exit_csum, 1u);
  EXPECT_GT(a.off.tx_fallback_host_seg, 0u);
  EXPECT_GT(a.off.tx_super_segs, 0u);
  // Degraded-mode segments carried software checksums end-to-end.
  EXPECT_GT(a.r.sender_tcp.sw_csum_tx, 0u);

  // Same seed, same fault window: fault.*, recovery.*, and offload.* counters
  // are byte-identical (compared through the exported JSON).
  const auto b = run_once(5);
  ASSERT_TRUE(b.r.completed);
  EXPECT_EQ(a.netstat, b.netstat);
}

TEST(OffloadFault, RetransmitAfterDegradeKeepsDescriptorBoundaries) {
  // Regression for the packetization content rule: super-segments staged
  // before a checksum outage are retransmitted during the degraded window
  // (forced by media errors) and must go out whole — never as a descriptor
  // mixing hardware- and software-checksummed regions. The observable is a
  // byte-exact completed transfer (a mixed descriptor would fail its
  // checksum forever or corrupt the stream).
  core::Testbed tb(offload_opts(4));
  tb.cab_a->enable_recovery();
  tb.cab_b->enable_recovery();
  FaultInjector inj(tb.sim);
  inj.register_adaptor("cab_a", *tb.cab_a);
  FaultPlan plan;
  FaultSpec csum;
  csum.target = "cab_a";
  csum.kind = FaultKind::kChecksumFail;
  csum.at = sim::msec(1.0);
  csum.duration = sim::msec(15.0);
  plan.add(csum);
  FaultSpec media;
  media.target = "cab_a";
  media.kind = FaultKind::kMdmaError;
  media.at = sim::msec(1.5);
  media.count = 6;  // lose staged super-segments -> retransmit while degraded
  plan.add(media);
  inj.arm(plan);

  apps::TtcpConfig cfg;
  cfg.total_bytes = 4 * 1024 * 1024;
  cfg.write_size = 128 * 1024;
  cfg.verify_data = true;
  cfg.deadline = 600 * sim::kSecond;
  const auto r = apps::run_ttcp(tb, cfg);
  tb.sim.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.bytes, 4u * 1024 * 1024);
  EXPECT_EQ(r.data_errors, 0u);
  EXPECT_GT(r.sender_tcp.rexmt_segs + r.sender_tcp.rexmt_timeouts, 0u);
  EXPECT_EQ(tb.cab_a->rec_stats.degrade_enter_csum, 1u);
  EXPECT_EQ(tb.cab_a->degrade_reasons(), 0u);
  EXPECT_EQ(tb.cab_a->device().nm().live_packets(), 0u);
}

}  // namespace
}  // namespace nectar
