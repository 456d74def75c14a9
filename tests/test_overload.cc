// Overload-survival subsystem: the ArbPolicy name map, the kWeightedFair
// service-share property (with fifo/round-robin regression oracles), the
// OverloadManager watermark hysteresis, and end-to-end admission control and
// ECN backpressure over a real two-host transfer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/ttcp.h"
#include "cab/arbiter.h"
#include "core/netstat.h"
#include "core/testbed.h"
#include "net/ip.h"
#include "overload/ops_console.h"
#include "overload/overload.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

using core::Testbed;
using core::TestbedOptions;
using overload::OverloadConfig;
using overload::OverloadManager;
using overload::Resource;

// ---------------------------------------------------------------- name map

TEST(ArbPolicyNames, RoundTripsEveryPolicy) {
  for (const auto& e : cab::kArbPolicyNames) {
    EXPECT_STREQ(cab::arb_policy_name(e.policy), e.name);
    const auto back = cab::arb_policy_from_name(e.name);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, e.policy);
  }
}

TEST(ArbPolicyNames, UnknownNameIsAnError) {
  EXPECT_FALSE(cab::arb_policy_from_name("fastest").has_value());
  EXPECT_FALSE(cab::arb_policy_from_name("").has_value());
  EXPECT_FALSE(cab::arb_policy_from_name("FIFO").has_value());
}

// ------------------------------------------------------------ weighted fair

struct Req {
  std::uint32_t flow = 0;
  std::uint64_t tag = 0;
};

// Deterministic adversarial arrival schedule: bursty, uneven, flows topped
// up just before they would drain — the pattern that defeats naive DRR.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() { return s = s * 6364136223846793005ull + 1442695040888963407ull; }
};

TEST(WeightedFair, SharesMatchWeightsWithinOneRechargeRound) {
  // Claim (arbiter.h): between credit recharges, each continuously-backlogged
  // flow is served exactly `weight` times. So after any number of pops with
  // all flows backlogged throughout, flow i's service count differs from the
  // exact proportional share by at most its own weight (one partial round).
  const std::map<std::uint32_t, std::uint32_t> weights = {
      {1, 1}, {2, 2}, {3, 4}, {4, 8}};
  std::uint32_t wsum = 0;
  for (const auto& [f, w] : weights) wsum += w;

  cab::ArbQueue<Req> q(cab::ArbPolicy::kWeightedFair);
  for (const auto& [f, w] : weights) q.set_flow_weight(f, w);

  Lcg rng{2026};
  std::map<std::uint32_t, std::uint64_t> served;
  // Keep every flow backlogged (adversarial arrivals: uneven burst sizes,
  // arbitrary interleave), pop a long service sequence.
  const std::size_t kPops = 6000;
  std::size_t pops = 0;
  while (pops < kPops) {
    for (const auto& [f, w] : weights) {
      const std::size_t burst = 1 + rng.next() % 7;
      for (std::size_t b = 0; b < burst; ++b) q.push(Req{f, pops});
    }
    const std::size_t drain = 1 + rng.next() % 9;
    for (std::size_t d = 0; d < drain && pops < kPops; ++d) {
      // Never let a flow fully drain: backlog continuity is the premise.
      bool all_backlogged = true;
      for (const auto& [f, w] : weights)
        if (q.flow_depth(f) == 0) all_backlogged = false;
      if (!all_backlogged) break;
      ++served[q.pop().flow];
      ++pops;
    }
  }
  ASSERT_EQ(pops, kPops);
  for (const auto& [f, w] : weights) {
    const double exact = static_cast<double>(kPops) * w / wsum;
    EXPECT_LE(std::abs(static_cast<double>(served[f]) - exact),
              static_cast<double>(w) + 1.0)
        << "flow " << f << " served " << served[f] << " expected ~" << exact;
  }
  EXPECT_GT(q.stats().credit_recharges, 0u);
}

TEST(WeightedFair, DrainedFlowForfeitsCredit) {
  // A flow that oscillates idle/backlogged cannot bank service: weight 4
  // flow drains mid-round, rejoins, and must wait for the next recharge
  // behind the backlogged flow's remaining credit.
  cab::ArbQueue<Req> q(cab::ArbPolicy::kWeightedFair);
  q.set_flow_weight(1, 4);
  q.set_flow_weight(2, 4);
  q.push(Req{1, 0});  // flow 1: one request only
  for (int i = 0; i < 8; ++i) q.push(Req{2, 0});
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 9; ++i) order.push_back(q.pop().flow);
  // Flow 1 served once (then drains, forfeiting 3 credits); flow 2 gets the
  // rest without interruption.
  EXPECT_EQ(order[0], 1u);
  for (std::size_t i = 1; i < order.size(); ++i) EXPECT_EQ(order[i], 2u);
}

TEST(WeightedFair, DefaultWeightIsOneAndEqualsRoundRobinShares) {
  // Unweighted flows under kWeightedFair get equal service, like round robin.
  cab::ArbQueue<Req> q(cab::ArbPolicy::kWeightedFair);
  std::map<std::uint32_t, std::uint64_t> served;
  for (int round = 0; round < 50; ++round)
    for (std::uint32_t f = 1; f <= 3; ++f) q.push(Req{f, 0});
  while (!q.empty()) ++served[q.pop().flow];
  EXPECT_EQ(served[1], 50u);
  EXPECT_EQ(served[2], 50u);
  EXPECT_EQ(served[3], 50u);
}

// Regression oracles: the two seed policies must be untouched by the
// weighted-fair machinery (same arrivals, same service order as always).
TEST(WeightedFair, FifoOracleServesArrivalOrder) {
  cab::ArbQueue<Req> q(cab::ArbPolicy::kFifo);
  q.set_flow_weight(2, 100);  // must be ignored under fifo
  Lcg rng{7};
  std::uint64_t tag = 0;
  std::vector<std::uint64_t> popped;
  for (int burst = 0; burst < 40; ++burst) {
    const std::size_t n = 1 + rng.next() % 5;
    for (std::size_t i = 0; i < n; ++i)
      q.push(Req{static_cast<std::uint32_t>(1 + rng.next() % 4), tag++});
    const std::size_t d = rng.next() % (q.size() + 1);
    for (std::size_t i = 0; i < d; ++i) popped.push_back(q.pop().tag);
  }
  while (!q.empty()) popped.push_back(q.pop().tag);
  for (std::size_t i = 0; i < popped.size(); ++i)
    ASSERT_EQ(popped[i], i) << "fifo broke arrival order at pop " << i;
}

TEST(WeightedFair, RoundRobinOracleCyclesFlows) {
  cab::ArbQueue<Req> q(cab::ArbPolicy::kRoundRobin);
  q.set_flow_weight(1, 100);  // must be ignored under round robin
  for (int i = 0; i < 30; ++i)
    for (std::uint32_t f = 1; f <= 3; ++f) q.push(Req{f, 0});
  std::uint32_t expect = 1;
  while (!q.empty()) {
    EXPECT_EQ(q.pop().flow, expect);
    expect = expect == 3 ? 1 : expect + 1;
  }
}

// ----------------------------------------------------------- watermark core

TEST(OverloadManager, HysteresisTripsHighClearsLow) {
  OverloadManager m;  // nm watermark: high 0.85, low 0.70
  std::uint64_t used = 0;
  m.add_sampler(Resource::kNetMem, [&used] {
    return std::pair<std::uint64_t, std::uint64_t>(used, 100);
  });

  used = 80;  // below high: not overloaded
  m.poll();
  EXPECT_FALSE(m.overloaded());
  used = 90;  // trips
  m.poll();
  EXPECT_TRUE(m.overloaded(Resource::kNetMem));
  used = 75;  // between low and high: hysteresis holds the trip
  m.poll();
  EXPECT_TRUE(m.overloaded(Resource::kNetMem));
  used = 70;  // at low: clears
  m.poll();
  EXPECT_FALSE(m.overloaded());
  EXPECT_EQ(m.stats().enters[1], 1u);
  EXPECT_EQ(m.stats().exits[1], 1u);
}

TEST(OverloadManager, HooksFollowOverloadState) {
  OverloadManager m;
  std::uint64_t used = 0;
  m.add_sampler(Resource::kArbQueue, [&used] {
    return std::pair<std::uint64_t, std::uint64_t>(used, 100);
  });
  EXPECT_TRUE(m.admit_syn());
  EXPECT_TRUE(m.admit_single_copy());
  EXPECT_FALSE(m.mark_ecn());
  used = 100;
  EXPECT_FALSE(m.admit_syn());
  EXPECT_FALSE(m.admit_single_copy());
  EXPECT_TRUE(m.mark_ecn());
  const auto& s = m.stats();
  EXPECT_EQ(s.syn_checks, 2u);
  EXPECT_EQ(s.syn_deferred, 1u);
  EXPECT_EQ(s.sc_deferred, 1u);
  EXPECT_EQ(s.ecn_marked, 1u);
}

TEST(OverloadManager, WorstSamplerWinsAndZeroCapacityIsSkipped) {
  OverloadManager m;
  m.add_sampler(Resource::kNetMem, [] {
    return std::pair<std::uint64_t, std::uint64_t>(10, 100);  // 10%
  });
  m.add_sampler(Resource::kNetMem, [] {
    return std::pair<std::uint64_t, std::uint64_t>(95, 100);  // 95% -> worst
  });
  m.add_sampler(Resource::kNetMem, [] {
    return std::pair<std::uint64_t, std::uint64_t>(7, 0);  // skipped
  });
  m.poll();
  EXPECT_TRUE(m.overloaded(Resource::kNetMem));
  EXPECT_DOUBLE_EQ(m.occupancy(Resource::kNetMem), 0.95);
}

TEST(OverloadManager, DisabledKnobsNeverDeferOrMark) {
  OverloadConfig cfg;
  cfg.admission = false;
  cfg.ecn = false;
  OverloadManager m(cfg);
  m.add_sampler(Resource::kMbufPool, [] {
    return std::pair<std::uint64_t, std::uint64_t>(100, 100);
  });
  EXPECT_TRUE(m.admit_syn());
  EXPECT_TRUE(m.admit_single_copy());
  EXPECT_FALSE(m.mark_ecn());
  EXPECT_EQ(m.stats().syn_deferred, 0u);
  EXPECT_EQ(m.stats().ecn_marked, 0u);
}

// ------------------------------------------------------ end-to-end datapath

// Force permanent mbuf-pool "pressure" (cap 1: any live mbuf is 100%+) so
// the deterministic two-host transfer exercises the hooks without needing a
// real 10x overload (bench/overload does that).
TestbedOptions overloaded_opts(bool admission, bool ecn) {
  TestbedOptions to;
  to.overload = true;
  to.overload_cfg.admission = admission;
  to.overload_cfg.ecn = ecn;
  to.overload_cfg.mbuf_cap = 1;
  return to;
}

TEST(OverloadEndToEnd, EcnMarksEchoAndHalveTheWindow) {
  Testbed tb(overloaded_opts(/*admission=*/false, /*ecn=*/true));
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);

  const std::size_t total = 256 * 1024;
  bool done = false;
  std::size_t got = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, total);
    src.fill_pattern(7);
    (void)co_await c.send(ctx, src.as_uio());
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);

  // Data path: every departing packet was CE-marked at IP output...
  EXPECT_GT(tb.a->stack().ip().stats().ecn_marked, 0u);
  // ...the receiver saw CE on data and echoed ECE on its ACKs...
  EXPECT_GT(s.tcp().stats().ecn_ce_rcvd, 0u);
  // ...and the sender reacted: ECE received, window cut, CWR sent.
  EXPECT_GT(c.tcp().stats().ecn_ece_rcvd, 0u);
  EXPECT_GT(c.tcp().stats().ecn_cwnd_cuts, 0u);
  EXPECT_GT(c.tcp().stats().ecn_cwr_sent, 0u);
  // At most one cut per window in flight: never more cuts than ECE ACKs
  // (equality is legal when ECE episodes arrive more than a window apart).
  EXPECT_LE(c.tcp().stats().ecn_cwnd_cuts, c.tcp().stats().ecn_ece_rcvd);
}

TEST(OverloadEndToEnd, AdmissionGateDefersSyns) {
  Testbed tb(overloaded_opts(/*admission=*/true, /*ecn=*/false));
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);
  // B's pool is quiet until traffic arrives, so prime its "pressure" with
  // one allocated mbuf (cap is 1).
  mbuf::Mbuf* hold = tb.b->pool().get();

  bool attempted = false;
  bool connected = false;
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    connected = co_await c.connect(ctx, Testbed::kIpB, 9000);
    attempted = true;
  };
  sim::spawn(client());
  tb.run_until_done(attempted, tb.sim.now() + 300 * sim::kSecond);
  ASSERT_TRUE(attempted);
  // Every SYN (first and retransmitted) was deferred at B's gate: the
  // connection never established and the deferrals were counted.
  EXPECT_FALSE(connected);
  EXPECT_GT(tb.b->stack().stats().syn_admission_deferred, 0u);
  EXPECT_EQ(tb.ovl_b->stats().syn_deferred,
            tb.b->stack().stats().syn_admission_deferred);
  EXPECT_EQ(tb.b->stack().tcp_connections().size(), 0u);
  tb.b->pool().free_one(hold);
}

TEST(OverloadEndToEnd, DescriptorGateForcesCopyPath) {
  // Single-copy eligible write under outboard-memory pressure: the
  // descriptor gate must divert chunks to the copy path (sendbuf pushback)
  // instead of staging more outboard data, and the transfer still completes
  // intact. Pressure comes from pinning ~86% of the sender's NetworkMemory
  // (above the 0.85 high watermark, hysteresis clear at 0.70 unreachable),
  // the nm analogue of the held mbuf above — the gate deliberately ignores
  // mbuf pressure, so mbuf_cap stays at its default here.
  TestbedOptions to;
  to.overload = true;
  to.overload_cfg.admission = true;
  to.overload_cfg.ecn = false;
  Testbed tb(to);
  const std::optional<cab::Handle> pin =
      tb.cab_a->device().nm().alloc(3600 * 1024);
  ASSERT_TRUE(pin.has_value());
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::SocketOptions so;
  so.policy = socket::CopyPolicy::kAlwaysSingleCopy;
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp, so);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);

  const std::size_t total = 128 * 1024;
  bool done = false;
  std::size_t got = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, total);
    src.fill_pattern(9);
    (void)co_await c.send(ctx, src.as_uio());
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 120 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(got, total);
  EXPECT_GT(c.sock_stats().overload_copy_fallbacks, 0u);
  // With nm pinned above the watermark for the whole run, every chunk that
  // asked to stage outboard was diverted, and the manager and the socket
  // layer agree on the count.
  EXPECT_EQ(tb.ovl_a->stats().sc_deferred, c.sock_stats().overload_copy_fallbacks);
  tb.cab_a->device().nm().release(*pin);
}

TEST(OverloadEndToEnd, WeightPlumbsFromSocketOptionsToArbiter) {
  TestbedOptions to;
  to.params_a.cab.sdma.arb = cab::ArbPolicy::kWeightedFair;
  to.params_a.cab.mdma.arb = cab::ArbPolicy::kWeightedFair;
  Testbed tb(to);
  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::SocketOptions so;
  so.tcp.arb_weight = 6;
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp, so);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);
  bool done = false;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    (void)co_await s.accept(ctx);
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    (void)co_await c.connect(ctx, Testbed::kIpB, 9000);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 30 * sim::kSecond);
  ASSERT_TRUE(done);
  const std::uint32_t flow = c.tcp().flow_id();
  ASSERT_NE(flow, 0u);
  EXPECT_EQ(tb.cab_a->device().sdma().arb().flow_weight(flow), 6u);
  EXPECT_EQ(tb.cab_a->device().mdma_xmit().arb().flow_weight(flow), 6u);
}

// --------------------------------------------------------------- ops console

TEST(OpsConsole, StreamsDeltasAndWatermarkState) {
  Testbed tb(overloaded_opts(/*admission=*/false, /*ecn=*/true));
  core::OpsConsoleOptions oc;
  oc.period = sim::msec(1.0);
  core::OpsConsole console(tb.sim, oc);
  console.watch(*tb.a);
  console.watch(*tb.b);
  console.start();

  auto& pa = tb.a->create_process("tx");
  auto& pb = tb.b->create_process("rx");
  socket::Socket c(tb.a->stack(), socket::Socket::Proto::kTcp);
  socket::Socket s(tb.b->stack(), socket::Socket::Proto::kTcp);
  s.listen(9000);
  const std::size_t total = 64 * 1024;
  bool done = false;
  std::size_t got = 0;
  auto server = [&]() -> sim::Task<void> {
    auto ctx = pb.ctx();
    if (!co_await s.accept(ctx)) co_return;
    mem::UserBuffer dst(pb.as, total);
    while (got < total) {
      const std::size_t n = co_await s.recv(ctx, dst.as_uio(got));
      if (n == 0) break;
      got += n;
    }
    done = true;
  };
  auto client = [&]() -> sim::Task<void> {
    auto ctx = pa.ctx();
    if (!co_await c.connect(ctx, Testbed::kIpB, 9000)) co_return;
    mem::UserBuffer src(pa.as, total);
    src.fill_pattern(3);
    (void)co_await c.send(ctx, src.as_uio());
    co_await c.close(ctx);
  };
  sim::spawn(server());
  sim::spawn(client());
  tb.run_until_done(done, tb.sim.now() + 60 * sim::kSecond);
  console.stop();
  ASSERT_TRUE(done);

  ASSERT_GT(console.ticks(), 0u);
  ASSERT_EQ(console.json_lines().size(), console.ticks());
  // Every line parses; at least one carries goodput and ECN activity.
  std::int64_t bytes_seen = 0, marks_seen = 0;
  for (const std::string& line : console.json_lines()) {
    const core::Json j = core::Json::parse(line);
    ASSERT_TRUE(j.has("hosts"));
    for (const auto& jh : j.find("hosts")->items()) {
      for (const auto& jc : jh.find("classes")->items())
        bytes_seen += jc.find("bytes_out")->as_int();
      if (const core::Json* marks =
              jh.find("netstat")->find("overload.ecn_marked"))
        marks_seen += marks->as_int();
    }
  }
  EXPECT_GT(bytes_seen, 0);
  EXPECT_GT(marks_seen, 0);
  EXPECT_FALSE(console.last_table().empty());
  EXPECT_NE(console.last_table().find("ops console"), std::string::npos);
}

TEST(OpsConsole, MovedFieldsAreChangesBetweenDocuments) {
  Testbed tb(overloaded_opts(/*admission=*/false, /*ecn=*/true));
  core::Json before;
  tb.sim.after(sim::msec(2.0), [&] { before = core::Netstat(*tb.a).json(); });
  apps::TtcpConfig cfg;
  cfg.total_bytes = 1024 * 1024;
  ASSERT_TRUE(apps::run_ttcp(tb, cfg).completed);
  ASSERT_TRUE(before.is_object());
  const core::Json after = core::Netstat(*tb.a).json();
  const core::Json moved = core::moved_fields(before, after);

  // Check against the earlier document looked up by path, not paired by
  // position as moved_fields() pairs them.
  std::map<std::string, core::Json> was;
  core::for_each_scalar(before, nullptr,
                        [&](const std::string& path, const core::Json& v,
                            const core::Json*) { was[path] = v; });
  std::size_t unchanged = 0;
  core::for_each_scalar(after, nullptr, [&](const std::string& path,
                                            const core::Json& now,
                                            const core::Json*) {
    const auto it = was.find(path);
    const core::Json* prev = it != was.end() ? &it->second : nullptr;
    const core::Json* change = moved.find(path);
    if (prev != nullptr && prev->dump() == now.dump()) {
      EXPECT_EQ(change, nullptr) << path;
      ++unchanged;
    } else if (now.type() == core::Json::Type::kInt) {
      EXPECT_EQ((prev != nullptr ? prev->as_int() : 0) +
                    (change != nullptr ? change->as_int() : 0),
                now.as_int())
          << path;
    } else if (now.type() == core::Json::Type::kDouble) {
      EXPECT_DOUBLE_EQ((prev != nullptr ? prev->as_double() : 0.0) +
                           (change != nullptr ? change->as_double() : 0.0),
                       now.as_double())
          << path;
    } else {
      ASSERT_NE(change, nullptr) << path;
      EXPECT_EQ(change->dump(), now.dump()) << path;
    }
  });
  EXPECT_GT(unchanged, 0u);
  EXPECT_GT(moved.members().size(), 0u);
}

// --------------------------------------------------------------- reporting

TEST(OverloadNetstat, SectionOnlyWhenEnabledAndCountersExported) {
  Testbed plain;
  EXPECT_FALSE(core::Netstat(*plain.a).json().has("overload"));

  Testbed tb(overloaded_opts(/*admission=*/true, /*ecn=*/true));
  const core::Json j = core::Netstat(*tb.a).json();
  ASSERT_TRUE(j.has("overload"));
  const core::Json* jo = j.find("overload");
  EXPECT_TRUE(jo->has("syn_deferred"));
  EXPECT_TRUE(jo->has("ecn_marked"));
  ASSERT_TRUE(jo->has("resources"));
  EXPECT_EQ(jo->find("resources")->items().size(), 3u);
  // IP/demux/TCP counters appear unconditionally.
  EXPECT_TRUE(j.find("ip")->has("ecn_marked"));
  EXPECT_TRUE(j.find("demux")->has("syn_admission_deferred"));
}

}  // namespace
}  // namespace nectar
