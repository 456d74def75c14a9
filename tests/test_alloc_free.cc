// Steady-state allocation contract: once the event core, the timer wheel,
// sim::Condition, the mbuf pool and the demux table have grown to their
// high-water marks, they recycle their own storage and never reach operator
// new. Each test warms its structure up, then counts operator new calls over
// at least 100 000 operations and requires zero.
//
// This file replaces the global operator new with a counting one, which is
// why it is a binary of its own (nectar_alloc_tests). The contract covers
// these five structures, plus sim::spawn of a task that already exists:
// the per-packet datapath above them (CPU charges, CAB DMA requests, page
// pinning) still allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "mbuf/mbuf.h"
#include "net/conn_table.h"
#include "net/netstack.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "sim/timer_wheel.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nectar {
namespace {

constexpr std::uint64_t kOps = 100'000;

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x >> 60;
}

// Reschedules itself 1-16 ns later, so the heap churns instead of running a
// FIFO pattern.
struct Chain {
  sim::Simulator* s;
  std::uint64_t seed;
  void operator()() { s->after(1 + static_cast<sim::Duration>(lcg(seed)), *this); }
};

TEST(AllocFree, SimulatorEventChains) {
  sim::Simulator s;
  constexpr int kChains = 256;
  for (int i = 0; i < kChains; ++i)
    s.after(1 + i, Chain{&s, 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i)});
  while (s.events_processed() < 16 * kChains) s.step();

  const std::uint64_t ev0 = s.events_processed();
  const std::uint64_t before = news();
  while (s.events_processed() < ev0 + kOps) s.step();
  EXPECT_EQ(news() - before, 0u);
  EXPECT_EQ(s.pending(), static_cast<std::size_t>(kChains));
}

// A TCP-shaped timer load: every event cancels its chain's armed "retransmit"
// decoy, arms a fresh one 100 ms out, and re-arms itself, so the heap carries
// live timers and tombstones, and compacts.
struct TimerCtx {
  sim::Simulator s;
  std::vector<sim::TimerHandle> decoys;
  std::uint64_t fired = 0;
};

struct TimerChain {
  TimerCtx* c;
  std::size_t id;
  std::uint64_t seed;
  void operator()() {
    ++c->fired;
    c->decoys[id].cancel();
    c->decoys[id] = c->s.timer_after(sim::msec(100), [] {});
    c->s.timer_after(1 + static_cast<sim::Duration>(lcg(seed)), *this);
  }
};

TEST(AllocFree, SimulatorTimerCancelAndRearm) {
  TimerCtx c;
  constexpr std::size_t kChains = 256;
  c.decoys.resize(kChains);
  for (std::size_t i = 0; i < kChains; ++i)
    c.s.after(static_cast<sim::Duration>(1 + i), TimerChain{&c, i, 0xdeadbeef12345ull + i});
  // The heap peaks just before a compaction; two of them bound its size.
  while (c.s.compactions() < 2) c.s.step();

  const std::uint64_t fired0 = c.fired;
  const std::uint64_t compactions0 = c.s.compactions();
  const std::uint64_t before = news();
  while (c.fired < fired0 + kOps) c.s.step();
  EXPECT_EQ(news() - before, 0u);
  EXPECT_GT(c.s.compactions(), compactions0);
  EXPECT_GE(c.s.events_cancelled(), kOps);
}

// Wheel timers that reschedule themselves 50 us - 40 ms out (level 0 and
// level 1, so entries cascade) and cancel and re-arm a decoy each time.
struct WheelCtx {
  sim::Simulator s;
  sim::TimerWheel w{s};
  std::vector<sim::TimerHandle> decoys;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t ops = 0;

  sim::Duration delay() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return sim::usec(50) +
           static_cast<sim::Duration>(x % static_cast<std::uint64_t>(sim::msec(40)));
  }
  void arm(std::size_t id) {
    w.schedule_after(delay(), [this, id] {
      decoys[id].cancel();
      decoys[id] = w.schedule_after(sim::kSecond, [] {});
      arm(id);
      ops += 4;  // fire, cancel, and two schedules
    });
  }
};

TEST(AllocFree, TimerWheelScheduleCancelFire) {
  WheelCtx c;
  constexpr std::size_t kTimers = 1024;
  c.decoys.resize(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) c.arm(i);
  // The due-bucket scratch vectors grow while the busiest bucket yet seen
  // sets a new record; that settles within the first two simulated seconds.
  c.s.run_until(sim::kSecond * 2);

  const std::uint64_t ops0 = c.ops;
  const std::uint64_t cascaded0 = c.w.stats().cascaded;
  const std::uint64_t before = news();
  c.s.run_until(sim::kSecond * 6);
  EXPECT_EQ(news() - before, 0u);
  EXPECT_GE(c.ops - ops0, kOps);
  EXPECT_GT(c.w.stats().cascaded, cascaded0);
  EXPECT_EQ(c.w.pending(), 2 * kTimers);
}

// Four coroutines wait on one Condition; each round notifies them all and
// runs their resumptions, so every round empties and refills the waiter
// list.
TEST(AllocFree, ConditionWaitNotify) {
  sim::Simulator s;
  sim::Condition c(s);
  std::uint64_t wakes = 0;
  bool stop = false;
  auto waiter = [](sim::Condition& cond, std::uint64_t& n,
                   const bool& halt) -> sim::Task<void> {
    while (!halt) {
      co_await cond.wait();
      ++n;
    }
  };
  constexpr int kWaiters = 4;
  for (int i = 0; i < kWaiters; ++i) sim::spawn(waiter(c, wakes, stop));
  const auto round = [&] {
    c.notify_all();
    s.run();
  };
  for (int i = 0; i < 16; ++i) round();

  const std::uint64_t before = news();
  while (wakes < kOps) round();
  EXPECT_EQ(news() - before, 0u);
  EXPECT_EQ(c.waiting(), static_cast<std::size_t>(kWaiters));
  stop = true;
  round();  // let the coroutines finish and free their frames
  EXPECT_EQ(c.waiting(), 0u);
}

// sim::spawn detaches the task's own frame: spawning a task that already
// exists and finishes without suspending allocates nothing more.
TEST(AllocFree, SpawnOfACreatedTaskAllocatesNothing) {
  std::uint64_t ran = 0;
  auto finish_at_once = [](std::uint64_t& n) -> sim::Task<void> {
    ++n;
    co_return;
  };
  std::uint64_t spawn_news = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    sim::Task<void> t = finish_at_once(ran);
    const std::uint64_t before = news();
    sim::spawn(std::move(t));
    spawn_news += news() - before;
  }
  EXPECT_EQ(spawn_news, 0u);
  EXPECT_EQ(ran, kOps);
}

TEST(AllocFree, MbufPoolGetFreeClusterAndChain) {
  sim::Simulator s;
  mbuf::MbufPool pool(s);
  const auto chain = [&pool] {
    mbuf::Mbuf* head = pool.get_hdr();
    mbuf::Mbuf** link = &head->next;
    for (int k = 0; k < 3; ++k) {
      *link = pool.get_cluster(false);
      link = &(*link)->next;
    }
    pool.free_chain(head);
  };
  for (int i = 0; i < 64; ++i) {
    pool.free_chain(pool.get_cluster(true));
    chain();
  }

  const std::uint64_t before = news();
  for (std::uint64_t i = 0; i < kOps; ++i) pool.free_chain(pool.get());
  for (std::uint64_t i = 0; i < kOps; ++i) pool.free_chain(pool.get_cluster(true));
  for (std::uint64_t i = 0; i < kOps / 4; ++i) chain();
  EXPECT_EQ(news() - before, 0u);
  EXPECT_EQ(pool.in_use(), 0);
}

TEST(AllocFree, ConnTableLookups) {
  constexpr std::size_t kConns = 512;
  sim::Rng rng(7);
  std::vector<net::ConnKey> keys(kConns);
  net::ConnTable<net::ConnKey, const net::ConnKey*> table;
  for (std::size_t i = 0; i < kConns; ++i) {
    keys[i].laddr = 0x0a010001;
    keys[i].lport = static_cast<std::uint16_t>(1024 + i);
    keys[i].faddr = 0x0a020000 + static_cast<std::uint32_t>(rng.next() & 0xffff);
    keys[i].fport = static_cast<std::uint16_t>(5001 + rng.next() % 4096);
    ASSERT_TRUE(table.insert(keys[i], &keys[i]));
  }
  // Every eighth probe names a port nobody bound.
  std::vector<net::ConnKey> probes(1024);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i] = keys[rng.next() % kConns];
    if (i % 8 == 7) probes[i].fport = static_cast<std::uint16_t>(probes[i].fport + 17000);
  }

  std::uint64_t hits = 0;
  const std::uint64_t before = news();
  for (std::uint64_t i = 0; i < kOps; ++i) hits += table.find(probes[i % probes.size()]) != nullptr;
  EXPECT_EQ(news() - before, 0u);
  EXPECT_EQ(hits, kOps - kOps / 8);
}

}  // namespace
}  // namespace nectar
