// Wall-clock perf harness: unlike the paper-figure benches (which report
// *simulated* time), this binary measures how fast the simulator itself runs
// on the host — events/sec through the event core, mbuf get/free ops/sec,
// checksum GB/s, and end-to-end ttcp simulated-Mb/s per wall-clock second.
// It also counts real heap allocations (via a local operator-new hook) so the
// steady-state allocation behaviour of the hot paths is a measured number,
// not a claim. Emits BENCH_wallclock.json with --json.
//
// Methodology notes live in EXPERIMENTS.md ("Wall-clock methodology").
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.h"
#include "apps/ttcp.h"
#include "checksum/internet_checksum.h"
#include "checksum/simd.h"
#include "core/json.h"
#include "core/netstat.h"
#include "mbuf/mbuf.h"
#include "net/conn_table.h"
#include "net/netstack.h"
#include "overload/overload.h"
#include "sim/event_queue.h"
#include "sim/parallel_engine.h"
#include "sim/rng.h"
#include "telemetry/telemetry.h"

// --- heap allocation counter -------------------------------------------------
// Every operator-new in the process (including the standard library) lands
// here. Relaxed atomic: the threads cell allocates from engine workers, and
// the counter only ever feeds per-op averages. GCC warns that free() pairs
// with this replacement operator new — that pairing is exactly the point, so
// the warning is silenced for this file.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace nectar;
using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- event core --------------------------------------------------------------

// A self-rescheduling chain: each fired event schedules its successor with a
// pseudo-random small delay, so the heap sees realistic churn rather than a
// single FIFO pattern.
struct PlainChain {
  sim::Simulator* s;
  std::uint64_t seed;
  void operator()() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    s->after(1 + static_cast<sim::Duration>(seed >> 60), *this);
  }
};

struct EventBenchResult {
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  double heap_allocs_per_event = 0;
  std::uint64_t cancels = 0;
};

EventBenchResult bench_plain_events(std::uint64_t target) {
  sim::Simulator s;
  constexpr int kChains = 256;
  for (int i = 0; i < kChains; ++i)
    s.after(1 + i, PlainChain{&s, 0x9e3779b97f4a7c15ull + i});
  // Warm-up: let every chain fire a few times so steady state is measured.
  while (s.events_processed() < 4 * kChains) s.step();
  const std::uint64_t ev0 = s.events_processed();
  const std::uint64_t heap0 = g_heap_allocs;
  const auto t0 = Clock::now();
  while (s.events_processed() < ev0 + target) s.step();
  EventBenchResult r;
  r.wall_s = elapsed_s(t0);
  r.events = s.events_processed() - ev0;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  r.heap_allocs_per_event =
      static_cast<double>(g_heap_allocs - heap0) / static_cast<double>(r.events);
  return r;
}

// Sharded engine throughput: the PlainChain workload spread over the shards
// of a ParallelEngine, with an occasional cross-shard hop (one lookahead out)
// so every epoch exercises the outbox/drain path, swept over worker counts.
// On a single-core host the >1-worker cells measure pure coordination
// overhead; hardware_threads is recorded next to the numbers so a reader can
// tell which regime they are looking at.
struct ShardChain {
  sim::ParallelEngine* e;
  std::size_t shard;
  std::uint64_t seed;
  void operator()() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    sim::Simulator& s = e->sim(shard);
    if ((seed & 63) == 0) {
      const std::size_t dst = (shard + 1) % e->num_shards();
      e->post(shard, dst, s.now() + e->lookahead(), ShardChain{e, dst, seed});
    } else {
      s.after(1 + static_cast<sim::Duration>(seed >> 60), *this);
    }
  }
};

struct ThreadCell {
  std::size_t workers = 0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  double wall_s = 0;
  double events_per_sec = 0;
};

ThreadCell bench_parallel_events(std::size_t workers, std::uint64_t target) {
  constexpr std::size_t kShards = 8;
  constexpr int kChainsPerShard = 32;
  sim::ParallelEngine eng(kShards, sim::usec(1));
  eng.set_workers(workers);
  for (std::size_t s = 0; s < kShards; ++s)
    for (int i = 0; i < kChainsPerShard; ++i)
      eng.sim(s).after(1 + i, ShardChain{&eng, s, 0x9e3779b97f4a7c15ull +
                                                      s * 1000 + i});
  ThreadCell r;
  r.workers = workers;
  const auto t0 = Clock::now();
  eng.run_until_done([&eng, target] { return eng.total_events() >= target; },
                     sim::Time{1} << 60);
  r.wall_s = elapsed_s(t0);
  r.events = eng.total_events();
  r.epochs = eng.epochs();
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  return r;
}

// Timer workload modelled on TCP: every fired event cancels a previously
// armed "retransmit" timer, arms a fresh one far in the future, and re-arms
// itself — so the queue carries live timers, tombstones, and data events.
struct TimerCtx {
  sim::Simulator s;
  std::vector<sim::TimerHandle> decoys;
  std::uint64_t fired = 0;
  std::uint64_t cancels = 0;
};

struct TimerChain {
  TimerCtx* c;
  int id;
  std::uint64_t seed;
  void operator()() {
    ++c->fired;
    if (c->decoys[static_cast<std::size_t>(id)].armed()) ++c->cancels;
    c->decoys[static_cast<std::size_t>(id)].cancel();
    c->decoys[static_cast<std::size_t>(id)] =
        c->s.timer_after(sim::msec(100), [] {});
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    c->s.timer_after(1 + static_cast<sim::Duration>(seed >> 60), *this);
  }
};

EventBenchResult bench_timer_events(std::uint64_t target) {
  TimerCtx c;
  constexpr int kChains = 256;
  c.decoys.resize(kChains);
  for (int i = 0; i < kChains; ++i)
    c.s.after(1 + i, TimerChain{&c, i, 0xdeadbeef12345ull + i});
  while (c.fired < 4 * kChains) c.s.step();
  const std::uint64_t f0 = c.fired;
  const std::uint64_t heap0 = g_heap_allocs;
  const auto t0 = Clock::now();
  while (c.fired < f0 + target) c.s.step();
  EventBenchResult r;
  r.wall_s = elapsed_s(t0);
  r.events = c.fired - f0;
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  r.heap_allocs_per_event =
      static_cast<double>(g_heap_allocs - heap0) / static_cast<double>(r.events);
  r.cancels = c.cancels;
  return r;
}

// --- mbuf pool ---------------------------------------------------------------

struct MbufBenchResult {
  double get_free_per_sec = 0;
  double cluster_per_sec = 0;
  double chain_per_sec = 0;
  double heap_allocs_per_get_free = 0;
  double heap_allocs_per_cluster = 0;
  mbuf::MbufPool::Stats stats;
};

MbufBenchResult bench_mbuf(std::uint64_t iters) {
  sim::Simulator s;
  mbuf::MbufPool pool(s);
  MbufBenchResult r;
  // Warm-up pass so a recycling pool reaches steady state before measuring.
  for (int i = 0; i < 64; ++i) pool.free_chain(pool.get_cluster(true));

  {
    const std::uint64_t heap0 = g_heap_allocs;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      mbuf::Mbuf* m = pool.get();
      pool.free_chain(m);
    }
    const double w = elapsed_s(t0);
    r.get_free_per_sec = static_cast<double>(iters) / w;
    r.heap_allocs_per_get_free =
        static_cast<double>(g_heap_allocs - heap0) / static_cast<double>(iters);
  }
  {
    const std::uint64_t heap0 = g_heap_allocs;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      mbuf::Mbuf* m = pool.get_cluster(true);
      pool.free_chain(m);
    }
    const double w = elapsed_s(t0);
    r.cluster_per_sec = static_cast<double>(iters) / w;
    r.heap_allocs_per_cluster =
        static_cast<double>(g_heap_allocs - heap0) / static_cast<double>(iters);
  }
  {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters / 4; ++i) {
      mbuf::Mbuf* head = pool.get_hdr();
      mbuf::Mbuf** link = &head->next;
      for (int k = 0; k < 3; ++k) {
        mbuf::Mbuf* cl = pool.get_cluster(false);
        *link = cl;
        link = &cl->next;
      }
      pool.free_chain(head);
    }
    const double w = elapsed_s(t0);
    r.chain_per_sec = static_cast<double>(iters / 4) / w;
  }
  r.stats = pool.stats();
  return r;
}

inline void keep(std::uint32_t v) { asm volatile("" : : "r"(v) : "memory"); }

// --- demux: ConnTable vs std::map --------------------------------------------
// The TCP demux runs one lookup per received segment. Compare the hashed
// ConnTable against the std::map it replaced, on the same keys and the same
// mixed hit/miss pattern, and count heap allocations per lookup (the table's
// contract is zero).

struct DemuxBenchResult {
  std::size_t conns = 0;
  double table_lookups_per_sec = 0;
  double map_lookups_per_sec = 0;
  double table_heap_allocs_per_lookup = 0;
  double speedup = 0;
};

DemuxBenchResult bench_demux(std::uint64_t iters) {
  constexpr std::size_t kConns = 512;
  std::vector<net::ConnKey> keys;
  keys.reserve(kConns);
  sim::Rng rng(7);
  for (std::size_t i = 0; i < kConns; ++i) {
    net::ConnKey k;
    k.laddr = 0x0a010001;
    k.lport = static_cast<std::uint16_t>(1024 + i);
    k.faddr = 0x0a020000 + static_cast<std::uint32_t>(rng.next() & 0xffff);
    k.fport = static_cast<std::uint16_t>(5001 + (rng.next() % 4096));
    keys.push_back(k);
  }

  net::ConnTable<net::ConnKey, const net::ConnKey*> table;
  std::map<net::ConnKey, const net::ConnKey*> bymap;
  for (const auto& k : keys) {
    table.insert(k, &k);
    bymap.emplace(k, &k);
  }
  // Lookup stream: mostly hits, every 8th a miss (port nobody bound), in a
  // pseudo-random order so neither structure enjoys a warm sequential walk.
  std::vector<net::ConnKey> probes;
  probes.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    net::ConnKey k = keys[rng.next() % kConns];
    if (i % 8 == 7) k.fport = static_cast<std::uint16_t>(k.fport + 17000);
    probes.push_back(k);
  }

  DemuxBenchResult r;
  r.conns = kConns;
  std::uint64_t sink = 0;
  {
    const std::uint64_t heap0 = g_heap_allocs;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
      sink += table.find(probes[i & 1023]) != nullptr;
    const double w = elapsed_s(t0);
    r.table_lookups_per_sec = static_cast<double>(iters) / w;
    r.table_heap_allocs_per_lookup =
        static_cast<double>(g_heap_allocs - heap0) / static_cast<double>(iters);
  }
  {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      auto it = bymap.find(probes[i & 1023]);
      sink += it != bymap.end();
    }
    const double w = elapsed_s(t0);
    r.map_lookups_per_sec = static_cast<double>(iters) / w;
  }
  keep(static_cast<std::uint32_t>(sink));
  r.speedup = r.table_lookups_per_sec / r.map_lookups_per_sec;
  return r;
}

// --- checksum ----------------------------------------------------------------

struct CsumPoint {
  std::string impl;
  std::size_t size = 0;
  double gb_per_sec = 0;
};

double time_csum(std::span<const std::byte> buf, std::uint64_t iters,
                 std::uint32_t (*fn)(std::span<const std::byte>, std::uint32_t)) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) keep(fn(buf, 0));
  const double w = elapsed_s(t0);
  return static_cast<double>(buf.size()) * static_cast<double>(iters) / w / 1e9;
}

std::vector<CsumPoint> bench_checksum(bool quick) {
  std::vector<std::byte> buf(256 * 1024);
  sim::Rng rng(42);
  rng.fill(buf);
  std::vector<CsumPoint> out;
  const std::uint64_t scale = quick ? 1 : 8;
  for (std::size_t size : {std::size_t{1500}, std::size_t{65536}}) {
    const std::span<const std::byte> s(buf.data(), size);
    const std::uint64_t iters = scale * (size <= 4096 ? 40000 : 2000);
    for (checksum::SumImpl impl : checksum::available_impls()) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < iters; ++i)
        keep(checksum::ones_sum_with(impl, s, 0));
      const double w = elapsed_s(t0);
      out.push_back({checksum::impl_name(impl), size,
                     static_cast<double>(size) * static_cast<double>(iters) / w / 1e9});
    }
    // What ones_sum() actually runs, through the dispatch indirection.
    out.push_back({"dispatch", size, time_csum(s, iters, checksum::ones_sum)});
  }
  return out;
}

// --- ttcp end-to-end ---------------------------------------------------------

struct TtcpBenchResult {
  double sim_mbps = 0;
  double wall_s = 0;
  double sim_mbps_per_wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t bytes = 0;
};

TtcpBenchResult bench_ttcp(bool quick, bool telemetry = false) {
  core::TestbedOptions opts;
  opts.telemetry = telemetry;
  core::Testbed tb(opts);
  apps::TtcpConfig cfg;
  cfg.total_bytes = quick ? 4 * 1024 * 1024 : 32 * 1024 * 1024;
  cfg.write_size = 64 * 1024;
  const auto t0 = Clock::now();
  const auto res = apps::run_ttcp(tb, cfg);
  TtcpBenchResult r;
  r.wall_s = elapsed_s(t0);
  if (tb.tel) tb.tel->stop_ticker();
  r.sim_mbps = res.throughput_mbps;
  r.bytes = res.bytes;
  r.sim_mbps_per_wall_s = res.throughput_mbps / r.wall_s;
  r.events_per_sec =
      static_cast<double>(tb.sim.events_processed()) / r.wall_s;
  if (!res.completed) std::fprintf(stderr, "warning: ttcp did not complete\n");
  return r;
}

// --- telemetry overhead ------------------------------------------------------
// The disabled cost is the contract: every datapath hook is one null-pointer
// test, so a telemetry-less run must be indistinguishable from a build
// without the hooks. Measure the guard itself, the enabled span/record
// primitives, and the end-to-end ttcp delta with the registry live.

struct TelemetryBenchResult {
  double disabled_guard_ns = 0;  // the hook's cost when telemetry is off
  double span_pair_ns = 0;       // span_begin + span_end, enabled
  double hist_record_ns = 0;     // LogHistogram::record
  double ttcp_enabled_wall_s = 0;
  double ttcp_enabled_overhead_pct = 0;  // vs the disabled ttcp run
};

TelemetryBenchResult bench_telemetry(bool quick, const TtcpBenchResult& off) {
  TelemetryBenchResult r;
  const std::uint64_t iters = quick ? 2'000'000 : 20'000'000;
  {
    // volatile: the compiler must reload the (always-null) pointer and keep
    // the branch, exactly like HostEnv::telemetry on the disabled path.
    telemetry::Telemetry* volatile tel = nullptr;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      if (tel != nullptr) sink += i;
    }
    keep(static_cast<std::uint32_t>(sink));
    r.disabled_guard_ns = elapsed_s(t0) * 1e9 / static_cast<double>(iters);
  }
  {
    sim::Simulator s;
    telemetry::Telemetry tel(s);
    tel.set_max_events(0);  // measure the span table + histogram, not the log
    const int pid = tel.register_process("bench");
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      tel.span_begin(telemetry::Stage::kSosend, pid, i, 1);
      (void)tel.span_end(telemetry::Stage::kSosend, i);
    }
    r.span_pair_ns = elapsed_s(t0) * 1e9 / static_cast<double>(iters);
  }
  {
    telemetry::LogHistogram h;
    std::uint64_t v = 0x9e3779b97f4a7c15ull;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      v ^= v << 13;
      v ^= v >> 7;
      h.record(v >> 40);
    }
    keep(static_cast<std::uint32_t>(h.count()));
    r.hist_record_ns = elapsed_s(t0) * 1e9 / static_cast<double>(iters);
  }
  const auto on = bench_ttcp(quick, /*telemetry=*/true);
  r.ttcp_enabled_wall_s = on.wall_s;
  r.ttcp_enabled_overhead_pct = (on.wall_s / off.wall_s - 1.0) * 100.0;
  return r;
}

// --- overload hook overhead --------------------------------------------------
// Same contract as telemetry: with the subsystem disabled (HostEnv::overload
// is null) the admission-gate and ECN-mark hooks must cost a single-digit
// handful of nanoseconds — one volatile pointer load and a branch. The
// enabled-but-idle cost (manager present, knobs on, samplers cheap) is
// recorded next to it so the polling price is a measured number too.

struct OverloadBenchResult {
  double disabled_guard_ns = 0;  // hook cost with no manager attached
  double enabled_mark_ns = 0;    // mark_ecn() with three live samplers
  double enabled_admit_ns = 0;   // admit_syn() with three live samplers
};

OverloadBenchResult bench_overload_hooks(bool quick) {
  OverloadBenchResult r;
  const std::uint64_t iters = quick ? 2'000'000 : 20'000'000;
  {
    // The disabled datapath: Ip::output and transport_input test a pointer
    // that is null for every host that never called set_overload.
    overload::OverloadManager* volatile ovl = nullptr;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      if (ovl != nullptr) sink += i;
    }
    keep(static_cast<std::uint32_t>(sink));
    r.disabled_guard_ns = elapsed_s(t0) * 1e9 / static_cast<double>(iters);
  }
  {
    overload::OverloadManager mgr;
    std::uint64_t occ = 0;
    for (int res = 0; res < 3; ++res)
      mgr.add_sampler(static_cast<overload::Resource>(res), [&occ] {
        return std::pair<std::uint64_t, std::uint64_t>(++occ & 15, 64);
      });
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters / 4; ++i) sink += mgr.mark_ecn();
    r.enabled_mark_ns = elapsed_s(t0) * 1e9 / static_cast<double>(iters / 4);
    const auto t1 = Clock::now();
    for (std::uint64_t i = 0; i < iters / 4; ++i) sink += mgr.admit_syn();
    r.enabled_admit_ns = elapsed_s(t1) * 1e9 / static_cast<double>(iters / 4);
    keep(static_cast<std::uint32_t>(sink));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_wallclock.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  const std::uint64_t ev_target = quick ? 200'000 : 2'000'000;
  const std::uint64_t mbuf_iters = quick ? 200'000 : 2'000'000;

  std::printf("wallclock: host-time throughput of the simulator hot paths\n\n");

  const auto plain = bench_plain_events(ev_target);
  std::printf("events (plain)  : %10.0f ev/s  (%.2f heap allocs/ev)\n",
              plain.events_per_sec, plain.heap_allocs_per_event);
  const auto timer = bench_timer_events(ev_target / 4);
  std::printf("events (timers) : %10.0f ev/s  (%.2f heap allocs/ev, %llu cancels)\n",
              timer.events_per_sec, timer.heap_allocs_per_event,
              static_cast<unsigned long long>(timer.cancels));

  std::vector<ThreadCell> threads;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    threads.push_back(bench_parallel_events(w, ev_target / 2));
    const auto& tc = threads.back();
    std::printf("events (%zu thr)  : %10.0f ev/s  (8 shards, %llu epochs%s)\n",
                tc.workers, tc.events_per_sec,
                static_cast<unsigned long long>(tc.epochs),
                tc.workers > std::thread::hardware_concurrency()
                    ? ", oversubscribed"
                    : "");
  }

  const auto mb = bench_mbuf(mbuf_iters);
  std::printf("mbuf get/free   : %10.0f op/s  (%.2f heap allocs/op)\n",
              mb.get_free_per_sec, mb.heap_allocs_per_get_free);
  std::printf("mbuf cluster    : %10.0f op/s  (%.2f heap allocs/op)\n",
              mb.cluster_per_sec, mb.heap_allocs_per_cluster);
  std::printf("mbuf 4-chain    : %10.0f chains/s  (%llu node hits, %llu cluster hits, high water %lld)\n",
              mb.chain_per_sec,
              static_cast<unsigned long long>(mb.stats.freelist_hits),
              static_cast<unsigned long long>(mb.stats.cluster_freelist_hits),
              static_cast<long long>(mb.stats.high_water));

  const auto dx = bench_demux(mbuf_iters);
  std::printf("demux table     : %10.0f lookups/s  (%.2f heap allocs/lookup)\n",
              dx.table_lookups_per_sec, dx.table_heap_allocs_per_lookup);
  std::printf("demux std::map  : %10.0f lookups/s  (table %.2fx, %zu conns)\n",
              dx.map_lookups_per_sec, dx.speedup, dx.conns);

  std::printf("checksum active : %s\n",
              checksum::impl_name(checksum::active_impl()));
  const auto cs = bench_checksum(quick);
  for (const auto& p : cs)
    std::printf("checksum %-8s: %7.2f GB/s  (%zu B)\n", p.impl.c_str(),
                p.gb_per_sec, p.size);

  const auto tt = bench_ttcp(quick);
  std::printf("ttcp            : %7.1f sim-Mb/s in %.2f wall-s -> %8.1f sim-Mb/s per wall-s (%0.f ev/s)\n",
              tt.sim_mbps, tt.wall_s, tt.sim_mbps_per_wall_s, tt.events_per_sec);

  const auto tel = bench_telemetry(quick, tt);
  std::printf("telemetry off   : %7.2f ns/hook (null guard)\n",
              tel.disabled_guard_ns);
  std::printf("telemetry on    : %7.1f ns/span pair, %5.1f ns/hist record, ttcp %+.1f%% wall\n",
              tel.span_pair_ns, tel.hist_record_ns,
              tel.ttcp_enabled_overhead_pct);

  const auto ovl = bench_overload_hooks(quick);
  std::printf("overload off    : %7.2f ns/hook (null guard)\n",
              ovl.disabled_guard_ns);
  std::printf("overload on     : %7.1f ns/mark_ecn, %5.1f ns/admit_syn (3 samplers)\n",
              ovl.enabled_mark_ns, ovl.enabled_admit_ns);

  if (json.on) {
    core::Json root = core::Json::object();
    root.set("bench", "wallclock");
    root.set("schema_version", 1);
    root.set("quick", quick);
    core::Json ev = core::Json::object();
    ev.set("plain_events_per_sec", plain.events_per_sec);
    ev.set("plain_heap_allocs_per_event", plain.heap_allocs_per_event);
    ev.set("timer_events_per_sec", timer.events_per_sec);
    ev.set("timer_heap_allocs_per_event", timer.heap_allocs_per_event);
    ev.set("timer_cancels", timer.cancels);
    root.set("events", std::move(ev));
    core::Json jth = core::Json::object();
    jth.set("hardware_threads",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    jth.set("shards", 8);
    core::Json jtc = core::Json::array();
    for (const auto& tc : threads) {
      core::Json j = core::Json::object();
      j.set("workers", static_cast<std::uint64_t>(tc.workers));
      j.set("events", tc.events);
      j.set("epochs", tc.epochs);
      j.set("wall_s", tc.wall_s);
      j.set("events_per_sec", tc.events_per_sec);
      jtc.push_back(std::move(j));
    }
    jth.set("cells", std::move(jtc));
    root.set("threads", std::move(jth));
    core::Json jm = core::Json::object();
    jm.set("get_free_per_sec", mb.get_free_per_sec);
    jm.set("heap_allocs_per_get_free", mb.heap_allocs_per_get_free);
    jm.set("cluster_per_sec", mb.cluster_per_sec);
    jm.set("heap_allocs_per_cluster", mb.heap_allocs_per_cluster);
    jm.set("chain_per_sec", mb.chain_per_sec);
    jm.set("freelist_hits", mb.stats.freelist_hits);
    jm.set("cluster_freelist_hits", mb.stats.cluster_freelist_hits);
    jm.set("high_water", static_cast<std::uint64_t>(mb.stats.high_water));
    root.set("mbuf", std::move(jm));
    core::Json jx = core::Json::object();
    jx.set("conns", static_cast<std::uint64_t>(dx.conns));
    jx.set("table_lookups_per_sec", dx.table_lookups_per_sec);
    jx.set("table_heap_allocs_per_lookup", dx.table_heap_allocs_per_lookup);
    jx.set("map_lookups_per_sec", dx.map_lookups_per_sec);
    jx.set("speedup", dx.speedup);
    root.set("demux", std::move(jx));
    root.set("checksum_active", checksum::impl_name(checksum::active_impl()));
    core::Json jc = core::Json::array();
    for (const auto& p : cs) {
      core::Json j = core::Json::object();
      j.set("impl", p.impl);
      j.set("size", static_cast<std::uint64_t>(p.size));
      j.set("gb_per_sec", p.gb_per_sec);
      jc.push_back(std::move(j));
    }
    root.set("checksum", std::move(jc));
    core::Json jt = core::Json::object();
    jt.set("sim_mbps", tt.sim_mbps);
    jt.set("wall_s", tt.wall_s);
    jt.set("sim_mbps_per_wall_s", tt.sim_mbps_per_wall_s);
    jt.set("events_per_sec", tt.events_per_sec);
    jt.set("bytes", tt.bytes);
    root.set("ttcp", std::move(jt));
    core::Json jtel = core::Json::object();
    jtel.set("disabled_guard_ns", tel.disabled_guard_ns);
    jtel.set("span_pair_ns", tel.span_pair_ns);
    jtel.set("hist_record_ns", tel.hist_record_ns);
    jtel.set("ttcp_enabled_wall_s", tel.ttcp_enabled_wall_s);
    jtel.set("ttcp_enabled_overhead_pct", tel.ttcp_enabled_overhead_pct);
    root.set("telemetry", std::move(jtel));
    core::Json jovl = core::Json::object();
    jovl.set("disabled_guard_ns", ovl.disabled_guard_ns);
    jovl.set("enabled_mark_ns", ovl.enabled_mark_ns);
    jovl.set("enabled_admit_ns", ovl.enabled_admit_ns);
    root.set("overload", std::move(jovl));
    if (!bench::write_json(json, root)) return 1;
  }
  return 0;
}
