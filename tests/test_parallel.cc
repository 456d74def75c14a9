// Parallel sharded engine conformance.
//
// The load-bearing test is the determinism oracle: the 1-worker run of the
// sharded engine executes the identical epoch schedule sequentially, so the
// 2/4/8-worker runs of the same seeded, impaired 16-host topology must
// produce byte-identical Netstat and engine-counter JSON. Around
// it: RNG stream derivation (streams keyed by shard id, not thread), the
// conservative-lookahead plumbing, and the event-queue tombstone stats the
// per-shard Netstat section exposes.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/flow_matrix.h"
#include "core/netstat.h"
#include "core/sharded_testbed.h"
#include "sim/parallel_engine.h"
#include "sim/rng.h"

namespace nectar {
namespace {

using core::ShardedTestbed;
using core::ShardedTestbedOptions;
using sim::ParallelEngine;
using sim::Rng;

// --- RNG stream derivation --------------------------------------------------

TEST(RngStreams, DerivedSeedsDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 256; ++id) {
    const auto s = sim::derive_stream_seed(12345, id);
    EXPECT_EQ(s, sim::derive_stream_seed(12345, id));  // pure function
    EXPECT_TRUE(seen.insert(s).second) << "stream id " << id << " collided";
  }
  // Different global seeds shift every stream.
  EXPECT_NE(sim::derive_stream_seed(1, 0), sim::derive_stream_seed(2, 0));
  // A derived stream is not the root stream.
  EXPECT_NE(sim::derive_stream_seed(7, 0), 7u);
}

TEST(RngStreams, StreamsIndependentOfWorkerCountAndSchedule) {
  // Engines configured for different worker counts expose identical per-shard
  // streams: derivation depends only on (global seed, shard id).
  ParallelEngine e1(8, sim::usec(1), 99);
  e1.set_workers(1);
  ParallelEngine e2(8, sim::usec(1), 99);
  e2.set_workers(5);
  for (std::size_t s = 0; s < 8; ++s) {
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(e1.rng(s).next(), e2.rng(s).next()) << "shard " << s;
  }
  // And neighboring shards draw different sequences.
  Rng a = Rng::for_stream(99, 3), b = Rng::for_stream(99, 4);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

// --- event-queue tombstone stats ---------------------------------------------

TEST(EventQueueStats, TombstonesAndNextTimeExposed) {
  sim::Simulator s;
  std::vector<sim::TimerHandle> hs;
  for (int i = 0; i < 32; ++i)
    hs.push_back(s.timer_after(sim::usec(10 + i), [] {}));
  EXPECT_EQ(s.pending(), 32u);
  EXPECT_EQ(s.tombstones(), 0u);
  for (int i = 1; i < 32; i += 2) hs[i].cancel();
  EXPECT_EQ(s.pending(), 16u);
  EXPECT_EQ(s.tombstones(), 16u);
  // next_time() purges dead entries at the top and reports the earliest live
  // event; an empty queue reports kNoEvent.
  EXPECT_EQ(s.next_time(), sim::usec(10));
  hs[0].cancel();
  EXPECT_EQ(s.next_time(), sim::usec(12));
  s.run_until(sim::usec(1000));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.next_time(), sim::Simulator::kNoEvent);
}

TEST(EventQueueStats, CancelStormCompacts) {
  sim::Simulator s;
  std::vector<sim::TimerHandle> hs;
  for (int i = 0; i < 1024; ++i)
    hs.push_back(s.timer_after(sim::usec(1000 + i), [] {}));
  for (int i = 0; i < 1000; ++i) hs[i].cancel();
  // Threshold: >= 64 tombstones and more than half the heap dead.
  EXPECT_GE(s.compactions(), 1u);
  EXPECT_LT(s.tombstones(), 64u);
  EXPECT_EQ(s.pending(), 24u);
}

// --- engine mechanics ---------------------------------------------------------

TEST(ParallelEngine, RejectsZeroLookahead) {
  EXPECT_THROW(ParallelEngine(4, 0), std::invalid_argument);
}

TEST(ParallelEngine, UplinkRejectsHopShorterThanLookahead) {
  ParallelEngine eng(2, sim::usec(5));
  hippi::Switch sw(eng.sim(0), hippi::MacMode::kLogicalChannels);
  EXPECT_THROW(hippi::ShardUplink(eng, 1, 0, sim::usec(2), sw),
               std::invalid_argument);
}

TEST(ParallelEngine, CrossShardPostsMergeInSourceOrder) {
  // Shards 1 and 2 each post two messages to shard 0 for the same instant;
  // the drain must order them (src 1, src 2) x (post order), regardless of
  // the worker count that ran the epochs.
  for (std::size_t workers : {1u, 3u}) {
    ParallelEngine eng(3, sim::usec(1), 7);
    eng.set_workers(workers);
    std::vector<int> order;
    const sim::Time t = sim::usec(10);
    eng.post(2, 0, t, [&order] { order.push_back(20); });
    eng.post(1, 0, t, [&order] { order.push_back(10); });
    eng.post(1, 0, t, [&order] { order.push_back(11); });
    eng.post(2, 0, t, [&order] { order.push_back(21); });
    EXPECT_FALSE(eng.run(sim::usec(100)));  // no predicate -> false
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21}));
    EXPECT_EQ(eng.shard(0).posts_in, 4u);
    EXPECT_EQ(eng.shard(1).posts_out, 2u);
    EXPECT_GE(eng.epochs(), 1u);
    EXPECT_GE(eng.now(), t);
  }
}

TEST(ParallelEngine, RelayAcrossShardsRespectsLookahead) {
  // A ping-pong relay: each hop re-posts one lookahead later. Checks that
  // multi-epoch chains execute and the clock tracks the chain.
  ParallelEngine eng(2, sim::usec(10));
  eng.set_workers(2);
  int hops = 0;
  // Self-referential chain: captured by reference in a std::function would
  // dangle, so use an explicit recursive lambda object.
  struct Relay {
    ParallelEngine& eng;
    int& hops;
    void bounce(std::size_t from, sim::Time t) {
      ++hops;
      if (hops >= 8) return;
      const std::size_t to = 1 - from;
      eng.post(from, to, t + sim::usec(10),
               [this, to, t] { bounce(to, t + sim::usec(10)); });
    }
  } relay{eng, hops};
  eng.post(0, 1, sim::usec(10), [&relay] { relay.bounce(1, sim::usec(10)); });
  eng.run(sim::msec(1));
  EXPECT_EQ(hops, 8);
  EXPECT_GE(eng.epochs(), 8u);
}

TEST(ParallelEngine, DonePredicateStopsBetweenEpochs) {
  ParallelEngine eng(2, sim::usec(1));
  eng.set_workers(2);
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    eng.sim(1).at(sim::usec(10 * (i + 1)), [&fired] { ++fired; });
  const bool done =
      eng.run_until_done([&fired] { return fired >= 3; }, sim::msec(1));
  EXPECT_TRUE(done);
  EXPECT_GE(fired, 3);
  EXPECT_LT(fired, 10);  // stopped early, not drained
}

// --- sharded testbed ----------------------------------------------------------

apps::FlowMatrixResult run_sharded(std::size_t workers, std::string* dump) {
  ShardedTestbedOptions so;
  so.num_pairs = 8;  // 16 hosts + fabric = 17 shards
  so.workers = workers;
  so.seed = 20260809;
  so.wire_hop = sim::usec(4);
  so.loss_rate = 0.02;
  so.reorder_rate = 0.02;
  so.corrupt_rate = 0.01;
  ShardedTestbed tb(so);

  apps::FlowMatrixConfig cfg;
  cfg.num_flows = 16;
  cfg.bytes_per_flow = 24 * 1024;
  cfg.verify_data = true;
  auto r = apps::run_flow_matrix(tb, cfg);

  if (dump != nullptr) {
    std::string d;
    for (std::size_t i = 0; i < tb.num_pairs(); ++i) {
      d += core::Netstat(*tb.clients[i]).to_json();
      d += core::Netstat(*tb.servers[i]).to_json();
    }
    d += core::parallel_engine_json(tb.engine).dump(2);
    *dump = std::move(d);
  }
  return r;
}

TEST(ParallelSharded, ImpairedMatrixCompletes) {
  std::string dump;
  const auto r = run_sharded(2, &dump);
  ASSERT_EQ(r.flows.size(), 16u);
  EXPECT_TRUE(r.completed);
  for (const auto& f : r.flows) {
    EXPECT_EQ(f.bytes, 24u * 1024) << "flow " << f.flow;
    EXPECT_EQ(f.data_errors, 0u) << "flow " << f.flow;
  }
  // The impairments actually bit: something was retransmitted somewhere.
  std::uint64_t rexmt = 0;
  for (const auto& f : r.flows) rexmt += f.tx_tcp.rexmt_segs;
  EXPECT_GT(rexmt, 0u);
  EXPECT_NE(dump.find("\"shard\""), std::string::npos);
}

TEST(ParallelSharded, DeterminismOracleAcrossWorkerCounts) {
  // The 1-worker sharded run is the oracle; 2/4/8 workers must reproduce its
  // Netstat + engine JSON byte-for-byte from the same seed.
  std::string oracle;
  const auto r1 = run_sharded(1, &oracle);
  ASSERT_FALSE(oracle.empty());
  for (std::size_t workers : {2u, 4u, 8u}) {
    std::string d;
    const auto rn = run_sharded(workers, &d);
    EXPECT_EQ(rn.completed, r1.completed) << workers << " workers";
    EXPECT_EQ(rn.total_bytes, r1.total_bytes) << workers << " workers";
    EXPECT_EQ(rn.elapsed, r1.elapsed) << workers << " workers";
    EXPECT_EQ(d, oracle) << workers
                         << " workers diverged from the 1-worker oracle";
  }
}

TEST(ParallelSharded, EngineJsonShape) {
  ShardedTestbedOptions so;
  so.num_pairs = 2;
  ShardedTestbed tb(so);
  apps::FlowMatrixConfig cfg;
  cfg.num_flows = 2;
  cfg.bytes_per_flow = 8 * 1024;
  apps::run_flow_matrix(tb, cfg);
  const core::Json j = core::parallel_engine_json(tb.engine);
  const std::string s = j.dump(0);
  EXPECT_NE(s.find("\"lookahead_ns\""), std::string::npos);
  EXPECT_NE(s.find("\"posts_out\""), std::string::npos);
  EXPECT_NE(s.find("\"max_pending\""), std::string::npos);
  // 2 pairs -> 5 shards, all listed, all with traffic through the fabric.
  EXPECT_EQ(tb.engine.num_shards(), 5u);
  EXPECT_GT(tb.engine.shard(0).posts_out, 0u);   // fabric delivered frames
  EXPECT_GT(tb.engine.shard(1).posts_out, 0u);   // client 0 sent frames
  EXPECT_GT(tb.engine.epochs(), 0u);
}

}  // namespace
}  // namespace nectar
