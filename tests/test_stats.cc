// Unit tests: measurement methodology (the paper's utilization formula), the
// util soaker cross-check, host parameter calibration, and sockbuf stream
// machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/ttcp.h"
#include "apps/util_soaker.h"
#include "core/netstat.h"
#include "net/sockbuf.h"
#include "tests/test_util.h"

namespace nectar {
namespace {

TEST(HostParams, CalibrationConstantsMatchPaper) {
  const auto p = core::HostParams::alpha3000_400();
  EXPECT_DOUBLE_EQ(p.costs.copy_bw_bps * 8 / 1e6, 350.0);
  EXPECT_DOUBLE_EQ(p.costs.cksum_bw_bps * 8 / 1e6, 630.0);
  EXPECT_DOUBLE_EQ(p.vm.pin_base_us, 35.0);
  EXPECT_DOUBLE_EQ(p.vm.pin_per_page_us, 29.0);
  EXPECT_DOUBLE_EQ(p.vm.unpin_per_page_us, 3.9);
  EXPECT_DOUBLE_EQ(p.vm.map_per_page_us, 4.5);
  // §7.3: sender per-packet overhead ~300 us at 32 KB packets.
  const double per_packet = p.costs.tcp_output_us + p.costs.ip_output_us +
                            p.costs.driver_issue_us +
                            (p.costs.intr_us + p.costs.tcp_ack_us) / 2 +
                            p.costs.syscall_us + p.costs.sosend_chunk_us;
  EXPECT_NEAR(per_packet, 300.0, 30.0);
  const auto lx = core::HostParams::alpha3000_300lx();
  EXPECT_DOUBLE_EQ(lx.cpu_scale, 2.0);
  EXPECT_LT(lx.cab.sdma.bandwidth_bps, p.cab.sdma.bandwidth_bps);
}

TEST(Utilization, FormulaMatchesAccounts) {
  sim::Simulator simu;
  core::Host h(simu, core::HostParams::alpha3000_400(), "h");
  auto& proc = h.create_process("p");
  auto t0 = core::CpuSnapshot::take(h);
  auto run = [&]() -> sim::Task<void> {
    co_await h.cpu().run(sim::usec(300), proc.user_acct);
    co_await h.cpu().run(sim::usec(200), proc.sys_acct);
    co_await h.cpu().run(sim::usec(100), h.intr_acct(), sim::Priority::Interrupt);
    co_await sim::delay(simu, sim::usec(400));  // idle
  };
  testutil::run_task_void(simu, run());
  auto t1 = core::CpuSnapshot::take(h);
  auto rep = core::utilization_between(h, proc, t0, t1);
  EXPECT_EQ(rep.elapsed, sim::usec(1000));
  EXPECT_EQ(rep.busy, sim::usec(600));
  EXPECT_DOUBLE_EQ(rep.utilization, 0.6);
  rep.throughput_mbps = 60.0;
  EXPECT_DOUBLE_EQ(rep.efficiency_mbps(), 100.0);
}

TEST(Utilization, UtilSoakerMeasuresIdleLikeThePaper) {
  // Run communication-ish work at Normal priority with util soaking in the
  // background. The paper's formula from util's viewpoint:
  //   utilization = 1 - util_user / elapsed
  // must agree with the direct accounting within one quantum.
  sim::Simulator simu;
  core::Host h(simu, core::HostParams::alpha3000_400(), "h");
  auto& comm = h.create_process("comm");
  auto& util = h.create_process("util");
  apps::UtilSoaker soaker{h, util};
  sim::spawn(soaker.run());

  auto work = [&]() -> sim::Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await h.cpu().run(sim::usec(40), comm.sys_acct);
      co_await sim::delay(simu, sim::usec(60));
    }
    soaker.stop = true;
  };
  bool done = false;
  auto wrap = [&]() -> sim::Task<void> {
    co_await work();
    done = true;
  };
  sim::spawn(wrap());
  while (!done && simu.step()) {
  }
  const double elapsed = static_cast<double>(simu.now());
  const double direct = static_cast<double>(h.cpu().busy(comm.sys_acct)) / elapsed;
  const double via_util =
      1.0 - static_cast<double>(h.cpu().busy(util.user_acct)) / elapsed;
  EXPECT_NEAR(direct, via_util, 0.02);
  // The exact value is below the naive 40/(40+60) because the soaker's
  // non-preemptive 50 us quanta delay each work item (real util skews
  // measurements the same way, which is why the paper charges util's system
  // time back to ttcp).
  EXPECT_GT(direct, 0.2);
  EXPECT_LT(direct, 0.45);
}

// ---- Sockbuf stream machinery (TCP's foundation) ---------------------------

struct SockbufFixture : ::testing::Test {
  sim::Simulator simu;
  mbuf::MbufPool pool{simu};
  net::Sockbuf sb{64 * 1024};
  SockbufFixture() { sb.set_pool(&pool); }

  mbuf::Mbuf* data_mbuf(std::size_t n, std::byte fill) {
    mbuf::Mbuf* m = pool.get_cluster(false);
    std::vector<std::byte> v(n, fill);
    m->append(v);
    return m;
  }
};

TEST_F(SockbufFixture, AppendDropAccounting) {
  sb.append(data_mbuf(1000, std::byte{1}));
  sb.append(data_mbuf(500, std::byte{2}));
  EXPECT_EQ(sb.cc(), 1500u);
  EXPECT_EQ(sb.space(), 64u * 1024 - 1500);
  EXPECT_EQ(sb.base_pos(), 0u);
  sb.drop(1200);
  EXPECT_EQ(sb.cc(), 300u);
  EXPECT_EQ(sb.base_pos(), 1200u);
  EXPECT_EQ(sb.end_pos(), 1500u);
  EXPECT_THROW(sb.drop(301), std::logic_error);
}

TEST_F(SockbufFixture, CopyRangeUsesStreamCoordinates) {
  sb.append(data_mbuf(1000, std::byte{1}));
  sb.drop(400);
  sb.append(data_mbuf(1000, std::byte{2}));
  mbuf::Mbuf* c = sb.copy_range(900, 200);  // 100 of fill-1, 100 of fill-2
  std::vector<std::byte> out(200);
  mbuf::m_copydata(c, 0, 200, out);
  EXPECT_EQ(out[0], std::byte{1});
  EXPECT_EQ(out[99], std::byte{1});
  EXPECT_EQ(out[100], std::byte{2});
  pool.free_chain(c);
  EXPECT_THROW((void)sb.copy_range(300, 10), std::out_of_range);  // dropped
}

TEST_F(SockbufFixture, HomogeneousRunStopsAtTypeBoundary) {
  mem::AddressSpace as("u");
  mem::UserBuffer buf(as, 4096);
  sb.append(data_mbuf(1000, std::byte{1}));
  sb.append(pool.get_uio(buf.as_uio(), 4096, mbuf::UioWcabHdr{}, false));
  EXPECT_EQ(sb.homogeneous_run(0, 8000), 1000u);
  EXPECT_EQ(sb.homogeneous_run(1000, 8000), 4096u);
  EXPECT_EQ(sb.homogeneous_run(500, 300), 300u);
  EXPECT_EQ(sb.type_at(0), mbuf::MbufType::kData);
  EXPECT_EQ(sb.type_at(1000), mbuf::MbufType::kUio);
}

TEST_F(SockbufFixture, MbufRunClampsToOneMbuf) {
  sb.append(data_mbuf(1000, std::byte{1}));
  sb.append(data_mbuf(1000, std::byte{2}));
  EXPECT_EQ(sb.mbuf_run(0, 5000), 1000u);
  EXPECT_EQ(sb.mbuf_run(300, 5000), 700u);
  EXPECT_EQ(sb.mbuf_run(300, 100), 100u);
  EXPECT_EQ(sb.mbuf_run(1500, 5000), 500u);
}

struct FakeOwner final : mbuf::OutboardOwner {
  int refs = 0;
  void outboard_retain(std::uint32_t) override { ++refs; }
  void outboard_release(std::uint32_t) override { --refs; }
};

TEST_F(SockbufFixture, DropReleasesWcabReference) {
  FakeOwner owner;
  mbuf::Wcab w;
  w.owner = &owner;
  w.handle = 1;
  owner.refs = 1;  // the reference the M_WCAB mbuf adopts
  sb.append(data_mbuf(1000, std::byte{1}));
  sb.append(pool.get_wcab(w, 4000, mbuf::UioWcabHdr{}, false));
  sb.drop(3000);  // into the WCAB: trimmed, still referenced
  EXPECT_EQ(owner.refs, 1);
  sb.drop(2000);  // through it: the outboard reference goes with the mbuf
  EXPECT_EQ(owner.refs, 0);
  EXPECT_TRUE(sb.empty());
}

// --- JSON value -------------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  core::Json root = core::Json::object();
  root.set("int", std::int64_t{-42});
  root.set("big", std::uint64_t{1234567890123});
  root.set("pi", 3.25);
  root.set("flag", true);
  root.set("nothing", core::Json());
  root.set("name", "a \"quoted\"\nstring\t\\");
  core::Json arr = core::Json::array();
  arr.push_back(std::int64_t{1});
  arr.push_back("two");
  arr.push_back(core::Json::object().set("k", 3.0));
  root.set("list", std::move(arr));
  root.set("empty_obj", core::Json::object());
  root.set("empty_arr", core::Json::array());

  for (int indent : {0, 2}) {
    const std::string text = root.dump(indent);
    const core::Json back = core::Json::parse(text);
    EXPECT_EQ(back.find("int")->as_int(), -42);
    EXPECT_EQ(back.find("big")->as_int(), 1234567890123);
    EXPECT_DOUBLE_EQ(back.find("pi")->as_double(), 3.25);
    EXPECT_TRUE(back.find("flag")->as_bool());
    EXPECT_TRUE(back.find("nothing")->is_null());
    EXPECT_EQ(back.find("name")->as_string(), "a \"quoted\"\nstring\t\\");
    ASSERT_EQ(back.find("list")->items().size(), 3u);
    EXPECT_EQ(back.find("list")->items()[1].as_string(), "two");
    EXPECT_DOUBLE_EQ(back.find("list")->items()[2].find("k")->as_double(), 3.0);
    EXPECT_TRUE(back.find("empty_obj")->is_object());
    EXPECT_TRUE(back.find("empty_arr")->is_array());
    // Insertion order survives the round trip, so re-dumping is idempotent
    // (what the determinism regression relies on).
    EXPECT_EQ(core::Json::parse(text).dump(indent), text);
  }
}

TEST(Json, SetOverwritesInPlace) {
  core::Json obj = core::Json::object();
  obj.set("a", 1).set("b", 2).set("a", 3);
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "a");  // original position kept
  EXPECT_EQ(obj.find("a")->as_int(), 3);
}

TEST(Json, ForEachScalarPairsFieldsByPath) {
  // `before` has the members in another order, a shorter array, and an
  // object where `now` has a scalar; an empty object yields no field.
  const core::Json before =
      core::Json::parse(R"({"b": {"c": 2}, "a": [1], "d": {"e": 5}})");
  const core::Json now =
      core::Json::parse(R"({"a": [1, "x"], "b": {"c": 3}, "d": 4, "f": {}})");
  std::vector<std::string> seen;
  core::for_each_scalar(now, &before,
                        [&](const std::string& path, const core::Json& v,
                            const core::Json* p) {
                          seen.push_back(path + '=' + v.dump() + '/' +
                                         (p != nullptr ? p->dump() : "-"));
                        });
  EXPECT_EQ(seen, (std::vector<std::string>{"a[0]=1/1", "a[1]=\"x\"/-",
                                            "b.c=3/2", "d=4/-"}));
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(core::Json::parse(""), std::runtime_error);
  EXPECT_THROW(core::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(core::Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(core::Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(core::Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(core::Json::parse("treu"), std::runtime_error);
  EXPECT_THROW(core::Json::parse("{} garbage"), std::runtime_error);
}

// --- Netstat JSON exporter --------------------------------------------------

TEST(NetstatJson, RoundTripsWithExpectedKeys) {
  // Run real traffic so the counters are nonzero, then check the exported
  // JSON parses and carries every section and the per-connection TCP stats.
  core::Testbed tb;
  apps::TtcpConfig cfg;
  cfg.total_bytes = 64 * 1024;
  cfg.write_size = 8 * 1024;
  const auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);

  const std::string text = core::Netstat(*tb.b).to_json();
  const core::Json j = core::Json::parse(text);
  for (const char* key : {"host", "model", "time_s", "interfaces", "ip", "udp",
                          "demux", "tcp", "mbufs", "vm", "pin_cache", "cpu"}) {
    EXPECT_TRUE(j.has(key)) << key;
  }
  EXPECT_EQ(j.find("host")->as_string(), "hostB");
  EXPECT_GT(j.find("time_s")->as_double(), 0.0);

  ASSERT_FALSE(j.find("interfaces")->items().empty());
  const core::Json& cab = j.find("interfaces")->items()[0];
  ASSERT_TRUE(cab.has("cab")) << "first interface should be the CAB";
  EXPECT_GT(cab.find("cab")->find("mdma_rx_packets")->as_int(), 0);
  EXPECT_GT(cab.find("cab")->find("checksum_bytes_summed")->as_int(), 0);
  EXPECT_GT(j.find("ip")->find("ipackets")->as_int(), 0);
  EXPECT_GT(j.find("demux")->find("tcp_in")->as_int(), 0);
  EXPECT_EQ(j.find("demux")->find("bad_checksum")->as_int(), 0);

  // The receiver's connection is still bound (sockets are in scope inside
  // run_ttcp only — after close it may have unbound; accept either, but if
  // present it must carry the mapped counter names).
  for (const core::Json& conn : j.find("tcp")->items()) {
    EXPECT_TRUE(conn.has("conn"));
    EXPECT_TRUE(conn.has("state"));
    for (const char* key : {"segs_in", "retransmits", "dup_acks",
                            "dup_segs_in", "ooo_segs", "checksum_drops"}) {
      EXPECT_TRUE(conn.find("stats")->has(key)) << key;
    }
  }

  // And the sender-side snapshot helper exports the same schema.
  const core::Json snap = core::tcp_stats_json(r.sender_tcp);
  EXPECT_GT(snap.find("segs_out")->as_int(), 0);
  EXPECT_EQ(snap.find("checksum_drops")->as_int(), 0);
}

TEST(NetstatJson, TextReportStillCoversAllSections) {
  core::Testbed tb;
  apps::TtcpConfig cfg;
  cfg.total_bytes = 16 * 1024;
  const auto r = apps::run_ttcp(tb, cfg);
  ASSERT_TRUE(r.completed);
  // The text is derived from the JSON: one "path value" line per scalar.
  const std::string text = "\n" + core::netstat(*tb.a);
  std::size_t fields = 0;
  core::for_each_scalar(
      core::Netstat(*tb.a).json(), nullptr,
      [&](const std::string& path, const core::Json& value, const core::Json*) {
        ++fields;
        EXPECT_NE(text.find('\n' + path + ' ' + value.dump() + '\n'),
                  std::string::npos)
            << path;
      });
  EXPECT_GT(fields, 150u);
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            fields + 1);
}

}  // namespace
}  // namespace nectar
