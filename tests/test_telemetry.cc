// Telemetry subsystem: histogram percentiles against a sorted-vector oracle,
// span begin/end bookkeeping, Chrome trace export well-formedness, and
// same-seed byte-identical exports end to end through a real transfer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "apps/ttcp.h"
#include "core/netstat.h"
#include "core/packet_trace.h"
#include "telemetry/telemetry.h"

namespace nectar {
namespace {

using telemetry::LogHistogram;
using telemetry::Stage;
using telemetry::Telemetry;

// ---------------------------------------------------------------- histogram

// Rank-ceil percentile over the raw samples, matching LogHistogram's rank
// definition exactly.
std::uint64_t oracle_percentile(std::vector<std::uint64_t> v, double p) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(v.size()));
  if (static_cast<double>(rank) * 100.0 < p * static_cast<double>(v.size()))
    ++rank;
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

// The histogram reports the upper edge of the oracle value's bucket (clamped
// to the observed max): never below the oracle, at most ~1/16 above.
void expect_close(const LogHistogram& h, const std::vector<std::uint64_t>& v,
                  double p) {
  const std::uint64_t truth = oracle_percentile(v, p);
  const std::uint64_t got = h.percentile(p);
  EXPECT_GE(got, truth) << "p" << p;
  EXPECT_LE(got, truth + truth / LogHistogram::kSub + 1) << "p" << p;
}

TEST(LogHistogram, PercentilesMatchOracleAcrossDistributions) {
  const double ps[] = {1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0};
  for (std::uint64_t seed : {1u, 7u, 1234u}) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint64_t> uni(0, 1u << 20);
    std::exponential_distribution<double> expo(1.0 / 50000.0);
    std::lognormal_distribution<double> logn(10.0, 2.0);

    std::vector<std::uint64_t> u, e, l;
    LogHistogram hu, he, hl;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t a = uni(rng);
      const auto b = static_cast<std::uint64_t>(expo(rng));
      const auto c = static_cast<std::uint64_t>(logn(rng));
      u.push_back(a);
      hu.record(a);
      e.push_back(b);
      he.record(b);
      l.push_back(c);
      hl.record(c);
    }
    for (const double p : ps) {
      expect_close(hu, u, p);
      expect_close(he, e, p);
      expect_close(hl, l, p);
    }
  }
}

TEST(LogHistogram, CountSumMinMaxMean) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0u);
  for (std::uint64_t v : {5u, 10u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1015u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1015.0 / 3.0);
  // Small exact buckets: values < 16 report exactly.
  LogHistogram small;
  small.record(3);
  EXPECT_EQ(small.percentile(100.0), 3u);
}

TEST(LogHistogram, MergeEqualsCombinedRecording) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint64_t> d(1, 1u << 30);
  LogHistogram a, b, all;
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = d(rng);
    (i % 2 ? a : b).record(v);
    all.record(v);
    samples.push_back(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (const double p : {50.0, 99.0, 99.9})
    EXPECT_EQ(a.percentile(p), all.percentile(p));
  expect_close(a, samples, 99.0);

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max(), 0u);
  EXPECT_EQ(a.percentile(99.0), 0u);
  a.record(42);  // usable after reset
  EXPECT_EQ(a.count(), 1u);
}

TEST(LogHistogram, BucketEdgesRoundTrip) {
  for (std::uint64_t v :
       {0ull, 1ull, 15ull, 16ull, 17ull, 1000ull, (1ull << 32) + 12345ull,
        ~0ull}) {
    const std::size_t idx = LogHistogram::bucket_index(v);
    EXPECT_LE(v, LogHistogram::bucket_upper(idx)) << v;
    if (idx > 0) {
      EXPECT_GT(v, LogHistogram::bucket_upper(idx - 1)) << v;
    }
  }
}

// -------------------------------------------------------------------- spans

TEST(Telemetry, SpanPairingAndBookkeeping) {
  sim::Simulator s;
  Telemetry tel(s);
  const int pid = tel.register_process("host");

  tel.span_begin(Stage::kSosend, pid, 1, 7);
  EXPECT_EQ(tel.open_spans(), 1u);
  sim::Duration measured = 0;
  s.after(sim::usec(5), [&] {
    auto d = tel.span_end(Stage::kSosend, 1);
    ASSERT_TRUE(d.has_value());
    measured = *d;
  });
  s.run();
  EXPECT_EQ(measured, sim::usec(5));
  EXPECT_EQ(tel.open_spans(), 0u);
  EXPECT_EQ(tel.spans_completed(), 1u);
  EXPECT_EQ(tel.stage_hist(Stage::kSosend).count(), 1u);

  // Orphan end: counted, not fatal, no histogram sample.
  EXPECT_FALSE(tel.span_end(Stage::kSosend, 999).has_value());
  EXPECT_EQ(tel.orphan_ends(), 1u);
  EXPECT_EQ(tel.stage_hist(Stage::kSosend).count(), 1u);

  // Re-begin (retransmit): the open span restarts, counted once.
  tel.span_begin(Stage::kSegment, pid, 5, 7);
  tel.span_begin(Stage::kSegment, pid, 5, 7);
  EXPECT_EQ(tel.re_begins(), 1u);
  EXPECT_EQ(tel.open_spans(), 1u);

  // Same key in different stages = different spans.
  tel.span_begin(Stage::kSdmaQueue, pid, 5, 7);
  EXPECT_EQ(tel.open_spans(), 2u);
}

TEST(Telemetry, GaugesAndTicker) {
  sim::Simulator s;
  Telemetry tel(s);
  const int pid = tel.register_process("host");

  double level = 1.0;
  tel.register_gauge("level", pid, [&] { return level; });
  tel.start_ticker(sim::usec(10));
  s.after(sim::usec(15), [&] { level = 2.0; });
  s.run_until(sim::usec(35));
  tel.stop_ticker();
  s.run();

  const core::Json m = tel.metrics_json();
  const core::Json& series = m.find("timeseries")->items().at(0);
  EXPECT_EQ(series.find("name")->as_string(), "level");
  const auto& ts = series.find("t_ns")->items();
  const auto& vs = series.find("value")->items();
  ASSERT_EQ(ts.size(), vs.size());
  ASSERT_GE(ts.size(), 3u);  // t=0 initial sample + ticks at 10, 20, 30 us
  EXPECT_EQ(vs.front().as_double(), 1.0);
  EXPECT_EQ(vs.back().as_double(), 2.0);
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_GT(ts[i].as_int(), ts[i - 1].as_int());
}

// ------------------------------------------------- end-to-end via a testbed

apps::TtcpResult run_traced_ttcp(core::Testbed& tb) {
  apps::TtcpConfig cfg;
  cfg.total_bytes = 1024 * 1024;
  cfg.write_size = 32 * 1024;
  cfg.verify_data = true;
  auto r = apps::run_ttcp(tb, cfg);
  tb.tel->stop_ticker();
  tb.sim.run();
  return r;
}

TEST(Telemetry, CleanTransferLeavesNoOpenSpans) {
  core::TestbedOptions opts;
  opts.telemetry = true;
  core::Testbed tb(opts);
  auto r = run_traced_ttcp(tb);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.data_errors, 0u);

  ASSERT_NE(tb.tel, nullptr);
  EXPECT_EQ(tb.tel->open_spans(), 0u);     // every begin found its end
  EXPECT_EQ(tb.tel->orphan_ends(), 0u);    // clean wire: no dups, no aborts
  EXPECT_EQ(tb.tel->re_begins(), 0u);      // no retransmits
  EXPECT_GT(tb.tel->spans_completed(), 0u);
  EXPECT_EQ(tb.tel->dropped_events(), 0u);

  // Every datapath stage saw traffic — except the offload stages, which are
  // silent while large-segment offload is disabled (the default here).
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    const auto s = static_cast<Stage>(i);
    if (s == Stage::kTsoFanout || s == Stage::kGroHold) {
      EXPECT_EQ(tb.tel->stage_hist(s).count(), 0u) << telemetry::stage_name(s);
      continue;
    }
    EXPECT_GT(tb.tel->stage_hist(s).count(), 0u) << telemetry::stage_name(s);
  }

  // Flow metrics captured RTT and one-way segment latency.
  const core::Json m = tb.tel->metrics_json();
  EXPECT_EQ(m.find("schema_version")->as_int(), Telemetry::kSchemaVersion);
  const core::Json* fm = m.find("flow_metrics");
  ASSERT_NE(fm, nullptr);
  for (const char* name : {"rtt_ns", "seg_latency_ns"}) {
    const core::Json* agg = fm->find(name)->find("aggregate");
    ASSERT_NE(agg, nullptr) << name;
    EXPECT_GT(agg->find("count")->as_int(), 0) << name;
    EXPECT_GT(agg->find("p50")->as_int(), 0) << name;
  }
  // Netstat carries the schema marker too.
  EXPECT_EQ(core::Netstat(*tb.a).json().find("schema_version")->as_int(), 1);
}

TEST(Telemetry, OffloadStagesSeeTraffic) {
  core::TestbedOptions opts;
  opts.telemetry = true;
  opts.offload = true;
  core::Testbed tb(opts);
  auto r = run_traced_ttcp(tb);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.data_errors, 0u);
  // The offload stages carry traffic and every residency span closed: TSO
  // fan-outs end with their last wire segment, GRO holds end at the batch
  // interrupt that drains them (budget or timer flush — never leaked).
  EXPECT_GT(tb.tel->stage_hist(Stage::kTsoFanout).count(), 0u);
  EXPECT_GT(tb.tel->stage_hist(Stage::kGroHold).count(), 0u);
  EXPECT_EQ(tb.tel->dropped_events(), 0u);
}

TEST(Telemetry, ChromeTraceIsWellFormed) {
  core::TestbedOptions opts;
  opts.telemetry = true;
  core::Testbed tb(opts);
  ASSERT_TRUE(run_traced_ttcp(tb).completed);

  // Round-trips through the parser.
  const std::string text = tb.tel->chrome_trace_json().dump(2);
  const core::Json root = core::Json::parse(text);
  EXPECT_EQ(root.find("schema_version")->as_int(), Telemetry::kSchemaVersion);
  const core::Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items().empty());

  std::map<std::string, double> counter_last_ts;
  std::size_t spans = 0, counters = 0, metadata = 0;
  for (const core::Json& ev : events->items()) {
    ASSERT_NE(ev.find("ph"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    const std::string ph = ev.find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.find("name")->as_string(), "process_name");
    } else if (ph == "b" || ph == "e") {
      ++spans;
      EXPECT_NE(ev.find("cat"), nullptr);
      EXPECT_NE(ev.find("id"), nullptr);
      EXPECT_GE(ev.find("ts")->as_double(), 0.0);
    } else if (ph == "C") {
      ++counters;
      // Counter tracks are monotone in ts per counter name.
      const std::string name = ev.find("name")->as_string();
      const double ts = ev.find("ts")->as_double();
      auto it = counter_last_ts.find(name);
      if (it != counter_last_ts.end()) {
        EXPECT_GT(ts, it->second) << name;
      }
      counter_last_ts[name] = ts;
    } else {
      FAIL() << "unexpected ph " << ph;
    }
  }
  EXPECT_GE(metadata, 3u);  // hostA, hostB, wire
  EXPECT_GT(spans, 0u);
  EXPECT_GT(counters, 0u);
  EXPECT_EQ(spans % 2, 0u);  // clean run: begins and ends pair up
}

TEST(Telemetry, SameSeedExportsAreByteIdentical) {
  auto run = [] {
    core::TestbedOptions opts;
    opts.telemetry = true;
    core::Testbed tb(opts);
    EXPECT_TRUE(run_traced_ttcp(tb).completed);
    return std::pair{tb.tel->metrics_json().dump(2),
                     tb.tel->chrome_trace_json().dump(2)};
  };
  const auto [m1, t1] = run();
  const auto [m2, t2] = run();
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(t1, t2);
}

// ------------------------------------------------------------- packet trace

TEST(PacketTraceDropped, RingEvictionIsCounted) {
  sim::Simulator s;
  hippi::DirectWire wire(s);
  core::PacketTrace trace(s, wire, /*max_entries=*/4);

  auto frame = [] {
    hippi::Packet p;
    p.bytes.resize(hippi::kHeaderSize + 16);
    hippi::write_header(p.bytes, hippi::FrameHeader{2, 1, hippi::kTypeIp, 0, 0});
    return p;
  };
  for (int i = 0; i < 10; ++i) trace.submit(frame());

  EXPECT_EQ(trace.total_seen(), 10u);
  EXPECT_EQ(trace.entries().size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  // dump() reports the eviction so a short capture is not mistaken for a
  // short conversation.
  EXPECT_NE(trace.dump().find("6 earlier entries evicted"), std::string::npos);

  core::PacketTrace small(s, wire, 4);
  EXPECT_EQ(small.dropped(), 0u);
  EXPECT_EQ(small.dump().find("evicted"), std::string::npos);
}

}  // namespace
}  // namespace nectar
