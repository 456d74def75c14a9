// Odds and ends: netstat sections, kernapp pattern helpers, and the
// testbeds' fabric and routing wiring.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/multi_testbed.h"
#include "core/netstat.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "kernapp/kernel_socket.h"

namespace nectar {
namespace {

TEST(KernappHelpers, PatternChainRoundTrip) {
  sim::Simulator simu;
  mbuf::MbufPool pool(simu);
  mbuf::Mbuf* m = kernapp::make_pattern_chain(pool, 20000, 9, 100);
  EXPECT_EQ(mbuf::m_length(m), 20000);
  EXPECT_EQ(kernapp::verify_pattern_chain(m, 9, 100), 0u);
  EXPECT_GT(kernapp::verify_pattern_chain(m, 9, 101), 0u);  // wrong position
  EXPECT_GT(kernapp::verify_pattern_chain(m, 8, 100), 0u);  // wrong seed
  pool.free_chain(m);
}

TEST(Netstat, SectionsRenderOnFreshHost) {
  sim::Simulator simu;
  core::Host h(simu, core::HostParams::alpha3000_400(), "fresh");
  const std::string text = core::netstat(h);
  for (const char* line : {"host \"fresh\"\n", "ip.ipackets 0\n",
                           "mbufs.live 0\n", "cpu.total_busy_s 0\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
}

// What a testbed's fabric chain looks like from outside.
struct ChainView {
  std::vector<std::string> kinds;  // impairments(), outermost first
  std::string fabric;  // what fabric() is: an impairment kind, or "bare"
};

template <class Bed>
ChainView view_chain(Bed& tb, const hippi::Fabric* bare) {
  ChainView v;
  for (const hippi::ImpairedFabric* f : tb.impairments()) {
    v.kinds.emplace_back(f->kind());
    if (&tb.fabric() == f) v.fabric = f->kind();
  }
  if (&tb.fabric() == bare) v.fabric = "bare";
  return v;
}

template <class Options>
Options with_impairments(bool on) {
  Options o;
  if (on) {
    o.loss_rate = 0.1;
    o.reorder_rate = 0.1;
    o.corrupt_rate = 0.1;
    o.dup_rate = 0.1;
    o.rate_limit_bps = 1e6;
    o.partition_windows = {{sim::msec(1), sim::msec(2)}};
  }
  return o;
}

TEST(Testbed, FabricSelectionLayersCorrectly) {
  struct Case {
    const char* name;
    ChainView (*build)(bool impaired);
  };
  const Case cases[] = {
      {"Testbed",
       [](bool on) {
         core::Testbed tb(with_impairments<core::TestbedOptions>(on));
         return view_chain(tb, tb.wire.get());
       }},
      {"MultiTestbed",
       [](bool on) {
         core::MultiTestbed tb(with_impairments<core::MultiTestbedOptions>(on));
         return view_chain(tb, tb.sw.get());
       }},
      {"ShardedTestbed",
       [](bool on) {
         core::ShardedTestbed tb(
             with_impairments<core::ShardedTestbedOptions>(on));
         return view_chain(tb, tb.sw.get());
       }},
  };
  const std::vector<std::string> outermost_first = {
      "rate_limit", "partition", "loss", "dup", "reorder", "corrupt"};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ChainView on = c.build(true);
    EXPECT_EQ(on.kinds, outermost_first);
    EXPECT_EQ(on.fabric, "rate_limit");
    const ChainView off = c.build(false);
    EXPECT_TRUE(off.kinds.empty());
    EXPECT_EQ(off.fabric, "bare");
  }

  // The packet trace wraps the whole chain.
  core::TestbedOptions o;
  o.trace_packets = true;
  o.loss_rate = 0.1;
  core::Testbed traced(o);
  EXPECT_EQ(&traced.fabric(), traced.trace.get());
}

TEST(Testbed, HostsRouteToEachOther) {
  core::Testbed tb;
  auto ra = tb.a->stack().routes().lookup(core::Testbed::kIpB);
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->ifp, tb.cab_a);
  EXPECT_EQ(tb.a->stack().source_addr_for(core::Testbed::kIpB),
            core::Testbed::kIpA);
}

TEST(HostAssembly, ProcessAccountsAreDistinct) {
  sim::Simulator simu;
  core::Host h(simu, core::HostParams::alpha3000_400(), "h");
  auto& p1 = h.create_process("one");
  auto& p2 = h.create_process("two");
  EXPECT_NE(p1.user_acct, p2.user_acct);
  EXPECT_NE(p1.sys_acct, p2.sys_acct);
  EXPECT_EQ(h.cpu().account_name(p1.user_acct), "one.user");
  EXPECT_EQ(h.cpu().account_name(p2.sys_acct), "two.sys");
  // Distinct address spaces with guard semantics.
  const mem::VAddr a1 = p1.as.allocate(64);
  EXPECT_TRUE(p1.as.valid(a1, 64));
  EXPECT_FALSE(p2.as.valid(a1, 64));
}

}  // namespace
}  // namespace nectar
