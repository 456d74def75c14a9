// Flow-count sweep: N concurrent ttcp-style flows through one switched
// MultiTestbed, N in {1, 8, 64, 256, 1024}. Reports aggregate goodput,
// per-flow fairness (Jain index), wall-clock events/s, and the CAB
// arbitration / demux-table gauges, as BENCH_flow_scaling.json.
//
// Determinism is part of the contract: the N=64 cell runs twice and the
// per-flow byte counts and Jain index must match exactly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.h"
#include "apps/flow_matrix.h"
#include "core/netstat.h"
#include "core/sharded_testbed.h"
#include "core/testbed.h"
#include "socket/listener.h"

namespace {

using namespace nectar;

struct CellResult {
  apps::FlowMatrixResult r;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  core::Json cab_json;    // pair-0 client CAB gauges
  core::Json demux_json;  // pair-0 server demux gauges
};

CellResult run_cell(std::size_t flows, std::uint64_t bytes_per_flow,
                    cab::ArbPolicy arb) {
  core::MultiTestbedOptions mo;
  mo.num_pairs = std::min<std::size_t>(8, flows);
  mo.arb = arb;
  // Provision DMA request slots for the flow multiplex: each of the
  // flows-per-pair connections can have a handful of SDMA requests queued at
  // once (data copy-in plus header staging), and post() refusing a request
  // is a hard driver error, not backpressure.
  const std::size_t per_pair = (flows + mo.num_pairs - 1) / mo.num_pairs;
  mo.params.cab.sdma.queue_depth =
      std::max(mo.params.cab.sdma.queue_depth, 8 * per_pair);
  // Outboard memory likewise: every flow can hold a send window of
  // retransmit data (tx side) or staged receive data (rx side) in network
  // memory at once. 256 KB per flow keeps the 4 MB default for small N and
  // grows for the big multiplexes.
  mo.params.cab.memory_bytes =
      std::max(mo.params.cab.memory_bytes, per_pair * 256 * 1024);
  core::MultiTestbed tb(mo);

  apps::FlowMatrixConfig cfg;
  cfg.num_flows = flows;
  cfg.bytes_per_flow = bytes_per_flow;

  const auto t0 = std::chrono::steady_clock::now();
  CellResult c;
  c.r = apps::run_flow_matrix(tb, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  c.wall_s = std::chrono::duration<double>(t1 - t0).count();
  c.events = tb.sim.events_processed();
  c.events_per_sec = c.wall_s > 0 ? static_cast<double>(c.events) / c.wall_s : 0;

  // Gauges from one representative CAB and stack (all pairs are symmetric in
  // configuration; traffic symmetry is what the Jain index measures).
  const core::Json cfull = core::Netstat(*tb.clients[0]).json();
  if (const core::Json* ifs = cfull.find("interfaces")) {
    for (const auto& ifj : ifs->items())
      if (const core::Json* cj = ifj.find("cab")) c.cab_json = *cj;
  }
  const core::Json sfull = core::Netstat(*tb.servers[0]).json();
  if (const core::Json* dj = sfull.find("demux")) c.demux_json = *dj;
  return c;
}

core::Json cell_json(const char* name, std::size_t flows,
                     std::uint64_t bytes_per_flow, cab::ArbPolicy arb,
                     const CellResult& c) {
  core::Json j = core::Json::object();
  j.set("cell", name);
  j.set("flows", static_cast<std::uint64_t>(flows));
  j.set("bytes_per_flow", bytes_per_flow);
  j.set("arb_policy", cab::arb_policy_name(arb));
  j.set("completed", c.r.completed);
  j.set("total_bytes", c.r.total_bytes);
  j.set("aggregate_mbps", c.r.aggregate_mbps);
  j.set("jain_index", c.r.jain);
  j.set("elapsed_sim_s", sim::to_seconds(c.r.elapsed));
  j.set("wall_s", c.wall_s);
  j.set("events", c.events);
  j.set("events_per_sec", c.events_per_sec);
  core::Json per_flow = core::Json::array();
  for (const auto& f : c.r.flows) {
    core::Json pf = core::Json::object();
    pf.set("flow", static_cast<std::uint64_t>(f.flow));
    pf.set("bytes", f.bytes);
    pf.set("goodput_mbps", f.goodput_mbps);
    pf.set("retransmits", f.tx_tcp.rexmt_segs);
    per_flow.push_back(std::move(pf));
  }
  j.set("per_flow", std::move(per_flow));
  j.set("cab_client0", c.cab_json);
  j.set("demux_server0", c.demux_json);
  return j;
}

// --- connection churn cell ---------------------------------------------------
//
// Control-plane scaling: how fast can the stack set up and tear down idle
// connections, and what does each one cost at steady state? The cell ramps
// `target` connections (client a -> server b, round-robin over `nports`
// listen ports so the ephemeral-port space never binds the total), holds
// them idle, then closes every one. Reported: conns/s for setup and
// teardown (wall and simulated), resident bytes per idle connection pair
// (VmRSS delta over the ramp — both endpoints live in this process), the
// demux / timer-wheel / TIME-WAIT gauges at scale, and whether the compact
// TIME-WAIT records and close zombies drain back to zero afterwards.

std::uint64_t read_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct ChurnShared {
  std::size_t target = 0;
  std::size_t connected = 0;
  std::size_t connect_failures = 0;
  std::size_t workers_done = 0;
  std::size_t workers = 0;
  std::size_t accepted = 0;
  std::size_t acceptors_done = 0;
  std::size_t acceptors = 0;
  bool ramp_done = false;       // every worker finished and every acceptor drained
  std::size_t client_closed = 0;
  std::size_t server_closed = 0;
  std::size_t closers_done = 0;
  std::size_t closers = 0;
  bool teardown_done = false;
};

sim::Task<void> churn_connector(core::Testbed& tb, core::Host::Process& proc,
                                socket::SocketOptions so,
                                std::vector<std::unique_ptr<socket::Socket>>& tx,
                                std::size_t w, std::size_t stride,
                                std::size_t nports, std::uint16_t port_base,
                                ChurnShared& sh) {
  auto ctx = proc.ctx();
  for (std::size_t i = w; i < sh.target; i += stride) {
    tx[i] = std::make_unique<socket::Socket>(tb.a->stack(),
                                             socket::Socket::Proto::kTcp, so);
    const auto port = static_cast<std::uint16_t>(port_base + i % nports);
    if (co_await tx[i]->connect(ctx, core::Testbed::kIpB, port)) {
      ++sh.connected;
    } else {
      ++sh.connect_failures;
    }
  }
  if (++sh.workers_done == sh.workers && sh.acceptors_done == sh.acceptors)
    sh.ramp_done = true;
}

sim::Task<void> churn_acceptor(socket::Listener& ln, std::size_t expected,
                               std::vector<std::unique_ptr<socket::Socket>>& rx,
                               ChurnShared& sh) {
  for (std::size_t k = 0; k < expected; ++k) {
    auto s = co_await ln.accept();
    if (s == nullptr) continue;
    rx.push_back(std::move(s));
    ++sh.accepted;
  }
  if (++sh.acceptors_done == sh.acceptors && sh.workers_done == sh.workers)
    sh.ramp_done = true;
}

sim::Task<void> churn_closer(std::vector<std::unique_ptr<socket::Socket>>& socks,
                             core::Host::Process& proc, std::size_t w,
                             std::size_t stride, std::size_t* counter,
                             ChurnShared& sh) {
  auto ctx = proc.ctx();
  for (std::size_t i = w; i < socks.size(); i += stride) {
    if (socks[i] != nullptr) {
      co_await socks[i]->close(ctx);
      ++*counter;
    }
  }
  if (++sh.closers_done == sh.closers) sh.teardown_done = true;
}

struct ChurnCell {
  bool ok = false;
  std::size_t target = 0, nports = 0, concurrency = 0;
  std::size_t accepted = 0, connect_failures = 0;
  double setup_wall_s = 0, setup_sim_s = 0;
  double setup_cps_wall = 0, setup_cps_sim = 0;
  double teardown_wall_s = 0, teardown_sim_s = 0;
  double teardown_cps_wall = 0, teardown_cps_sim = 0;
  std::uint64_t rss_baseline_kb = 0, rss_idle_kb = 0;
  double idle_bytes_per_conn_pair = 0;  // both endpoints of each connection
  std::size_t demux_live_idle = 0;      // server demux at steady state
  std::uint64_t demux_max_probe = 0;
  std::uint64_t cookies_sent = 0;
  std::size_t timewait_peak = 0;   // both hosts, right after teardown
  std::size_t timewait_after = 0;  // both hosts, after the drain period
  std::size_t zombies_after = 0;
  std::uint64_t wheel_max_pending = 0;  // client host
  std::uint64_t wheel_scheduled = 0, wheel_fired = 0, wheel_cancelled = 0;
  std::uint64_t wheel_cascaded = 0, wheel_alarms = 0;
  std::uint64_t events = 0;
};

ChurnCell run_churn_cell(std::size_t target, std::size_t nports,
                         std::size_t concurrency, int backlog) {
  core::Testbed tb;
  auto& cproc = tb.a->create_process("churn_tx");
  auto& sproc = tb.b->create_process("churn_rx");
  const std::uint16_t port_base = 6001;
  socket::SocketOptions so;

  ChurnCell c;
  c.target = target;
  c.nports = nports;
  c.concurrency = concurrency;

  std::vector<std::unique_ptr<socket::Listener>> listeners;
  listeners.reserve(nports);
  for (std::size_t j = 0; j < nports; ++j) {
    listeners.push_back(std::make_unique<socket::Listener>(
        tb.b->stack(), static_cast<std::uint16_t>(port_base + j), so, backlog));
  }

  std::vector<std::unique_ptr<socket::Socket>> tx(target);
  std::vector<std::unique_ptr<socket::Socket>> rx;
  rx.reserve(target);

  ChurnShared sh;
  sh.target = target;
  sh.workers = concurrency;
  sh.acceptors = nports;
  sh.closers = 2 * concurrency;

  c.rss_baseline_kb = read_rss_kb();
  const auto w0 = std::chrono::steady_clock::now();
  const sim::Time s0 = tb.sim.now();
  for (std::size_t j = 0; j < nports; ++j) {
    // Port j serves connections with i % nports == j.
    const std::size_t expected = target / nports + (j < target % nports ? 1 : 0);
    sim::spawn(churn_acceptor(*listeners[j], expected, rx, sh));
  }
  for (std::size_t w = 0; w < concurrency; ++w)
    sim::spawn(churn_connector(tb, cproc, so, tx, w, concurrency, nports,
                               port_base, sh));
  tb.run_until_done(sh.ramp_done, tb.sim.now() + 600 * sim::kSecond);
  const auto w1 = std::chrono::steady_clock::now();
  const sim::Time s1 = tb.sim.now();
  c.accepted = sh.accepted;
  c.connect_failures = sh.connect_failures;
  c.setup_wall_s = std::chrono::duration<double>(w1 - w0).count();
  c.setup_sim_s = sim::to_seconds(s1 - s0);
  if (c.setup_wall_s > 0)
    c.setup_cps_wall = static_cast<double>(sh.connected) / c.setup_wall_s;
  if (c.setup_sim_s > 0)
    c.setup_cps_sim = static_cast<double>(sh.connected) / c.setup_sim_s;

  // Idle hold: let stragglers (delayed ACKs, accept rearms) quiesce, then
  // measure what each established-but-idle connection costs.
  tb.sim.run_until(tb.sim.now() + sim::msec(500));
  c.rss_idle_kb = read_rss_kb();
  if (c.rss_idle_kb > c.rss_baseline_kb && target > 0) {
    c.idle_bytes_per_conn_pair =
        static_cast<double>((c.rss_idle_kb - c.rss_baseline_kb) * 1024) /
        static_cast<double>(target);
  }
  c.demux_live_idle = tb.b->stack().tcp_demux().size();
  c.demux_max_probe = tb.b->stack().tcp_demux().stats().max_probe;
  c.cookies_sent = tb.b->stack().stats().syn_cookies_sent;

  const auto w2 = std::chrono::steady_clock::now();
  const sim::Time s2 = tb.sim.now();
  for (std::size_t w = 0; w < concurrency; ++w) {
    sim::spawn(churn_closer(tx, cproc, w, concurrency, &sh.client_closed, sh));
    sim::spawn(churn_closer(rx, sproc, w, concurrency, &sh.server_closed, sh));
  }
  tb.run_until_done(sh.teardown_done, tb.sim.now() + 600 * sim::kSecond);
  const auto w3 = std::chrono::steady_clock::now();
  const sim::Time s3 = tb.sim.now();
  c.teardown_wall_s = std::chrono::duration<double>(w3 - w2).count();
  c.teardown_sim_s = sim::to_seconds(s3 - s2);
  const auto closed = sh.client_closed + sh.server_closed;
  if (c.teardown_wall_s > 0)
    c.teardown_cps_wall = static_cast<double>(closed) / 2.0 / c.teardown_wall_s;
  if (c.teardown_sim_s > 0)
    c.teardown_cps_sim = static_cast<double>(closed) / 2.0 / c.teardown_sim_s;
  c.timewait_peak =
      tb.a->stack().timewait_count() + tb.b->stack().timewait_count();

  // Drain: past 2*MSL (compact TIME-WAIT expiry) and the zombie linger,
  // everything the churn left behind must be gone.
  tb.sim.run_until(tb.sim.now() + 40 * sim::kSecond);
  c.timewait_after =
      tb.a->stack().timewait_count() + tb.b->stack().timewait_count();
  c.zombies_after = tb.a->stack().zombie_count() + tb.b->stack().zombie_count();

  const auto& tws = tb.a->timer_wheel().stats();
  c.wheel_max_pending = tws.max_pending;
  c.wheel_scheduled = tws.scheduled;
  c.wheel_fired = tws.fired;
  c.wheel_cancelled = tws.cancelled;
  c.wheel_cascaded = tws.cascaded;
  c.wheel_alarms = tws.alarms;
  c.events = tb.sim.events_processed();

  c.ok = sh.connected == target && c.connect_failures == 0 &&
         c.accepted == target && sh.client_closed == target &&
         sh.server_closed == c.accepted && c.timewait_after == 0 &&
         c.zombies_after == 0;
  return c;
}

core::Json churn_json(const ChurnCell& c) {
  core::Json j = core::Json::object();
  j.set("target_conns", static_cast<std::uint64_t>(c.target));
  j.set("listen_ports", static_cast<std::uint64_t>(c.nports));
  j.set("concurrency", static_cast<std::uint64_t>(c.concurrency));
  j.set("ok", c.ok);
  j.set("accepted", static_cast<std::uint64_t>(c.accepted));
  j.set("connect_failures", static_cast<std::uint64_t>(c.connect_failures));
  j.set("setup_wall_s", c.setup_wall_s);
  j.set("setup_sim_s", c.setup_sim_s);
  j.set("setup_conns_per_wall_s", c.setup_cps_wall);
  j.set("setup_conns_per_sim_s", c.setup_cps_sim);
  j.set("teardown_wall_s", c.teardown_wall_s);
  j.set("teardown_sim_s", c.teardown_sim_s);
  j.set("teardown_conns_per_wall_s", c.teardown_cps_wall);
  j.set("teardown_conns_per_sim_s", c.teardown_cps_sim);
  j.set("rss_baseline_kb", c.rss_baseline_kb);
  j.set("rss_idle_kb", c.rss_idle_kb);
  j.set("idle_bytes_per_conn_pair", c.idle_bytes_per_conn_pair);
  j.set("demux_live_idle", static_cast<std::uint64_t>(c.demux_live_idle));
  j.set("demux_max_probe", c.demux_max_probe);
  j.set("syn_cookies_sent", c.cookies_sent);
  j.set("timewait_peak", static_cast<std::uint64_t>(c.timewait_peak));
  j.set("timewait_after_drain", static_cast<std::uint64_t>(c.timewait_after));
  j.set("zombies_after_drain", static_cast<std::uint64_t>(c.zombies_after));
  j.set("wheel_max_pending", c.wheel_max_pending);
  j.set("wheel_scheduled", c.wheel_scheduled);
  j.set("wheel_fired", c.wheel_fired);
  j.set("wheel_cancelled", c.wheel_cancelled);
  j.set("wheel_cascaded", c.wheel_cascaded);
  j.set("wheel_alarms", c.wheel_alarms);
  j.set("events", c.events);
  return j;
}

// --- parallel engine sweep ---------------------------------------------------

struct ParallelCell {
  apps::FlowMatrixResult r;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::string engine_dump;  // parallel_engine_json, for cross-worker identity
};

ParallelCell run_parallel_cell(std::size_t pairs, std::size_t flows,
                               std::uint64_t bytes_per_flow,
                               std::size_t workers) {
  core::ShardedTestbedOptions so;
  so.num_pairs = pairs;
  so.workers = workers;
  so.arb = cab::ArbPolicy::kRoundRobin;
  // Same multiplex provisioning as the sequential cells.
  const std::size_t per_pair = (flows + pairs - 1) / pairs;
  so.params.cab.sdma.queue_depth =
      std::max(so.params.cab.sdma.queue_depth, 8 * per_pair);
  so.params.cab.memory_bytes =
      std::max(so.params.cab.memory_bytes, per_pair * 256 * 1024);
  core::ShardedTestbed tb(so);

  apps::FlowMatrixConfig cfg;
  cfg.num_flows = flows;
  cfg.bytes_per_flow = bytes_per_flow;

  const auto t0 = std::chrono::steady_clock::now();
  ParallelCell c;
  c.r = apps::run_flow_matrix(tb, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  c.wall_s = std::chrono::duration<double>(t1 - t0).count();
  c.events = tb.engine.total_events();
  c.epochs = tb.engine.epochs();
  c.events_per_sec = c.wall_s > 0 ? static_cast<double>(c.events) / c.wall_s : 0;
  c.engine_dump = core::parallel_engine_json(tb.engine).dump(0);
  return c;
}

core::Json parallel_cell_json(std::size_t workers, const ParallelCell& c,
                              double speedup) {
  core::Json j = core::Json::object();
  j.set("workers", static_cast<std::uint64_t>(workers));
  j.set("completed", c.r.completed);
  j.set("total_bytes", c.r.total_bytes);
  j.set("aggregate_mbps", c.r.aggregate_mbps);
  j.set("jain_index", c.r.jain);
  j.set("elapsed_sim_s", sim::to_seconds(c.r.elapsed));
  j.set("wall_s", c.wall_s);
  j.set("events", c.events);
  j.set("events_per_sec", c.events_per_sec);
  j.set("epochs", c.epochs);
  j.set("speedup_vs_1w", speedup);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_flow_scaling.json"};
  bench::Flag churn_only{"--churn-only"};
  bench::parse_flags(argc, argv, {&quick_flag, &json, &churn_only});
  const bool quick = quick_flag.on;

  const std::vector<std::size_t> sweep =
      quick ? std::vector<std::size_t>{1, 8, 64}
            : std::vector<std::size_t>{1, 8, 64, 256, 1024};
  // Bounded total work: big per-flow transfers at small N, connection-
  // machinery dominated cells at large N.
  const auto bytes_for = [quick](std::size_t flows) -> std::uint64_t {
    const std::uint64_t budget = quick ? (2u << 20) : (8u << 20);
    const std::uint64_t floor_bytes = 32 * 1024;
    const std::uint64_t per = budget / flows;
    return per > floor_bytes ? per : floor_bytes;
  };

  std::printf("Flow scaling sweep (%s)\n", quick ? "quick" : "full");
  std::printf("%6s %12s | %4s %9s %7s | %10s %8s\n", "flows", "B/flow", "ok",
              "aggMb/s", "jain", "events/s", "wall_s");
  std::printf("----------------------------------------------------------------\n");

  core::Json out = core::Json::object();
  out.set("bench", "flow_scaling");
  out.set("schema_version", 1);
  out.set("quick", quick);
  bool all_ok = true;

  // Connection churn: control-plane setup/teardown rate and per-connection
  // idle cost. Quick mode is the CI smoke size; full mode holds >= 100k
  // concurrent connections.
  {
    const std::size_t target = quick ? 5000 : 100000;
    const std::size_t nports = 4;
    const std::size_t concurrency = quick ? 256 : 512;
    const int backlog = 256;
    const auto c = run_churn_cell(target, nports, concurrency, backlog);
    std::printf("connection churn: %zu conns over %zu ports (%s)\n", c.target,
                c.nports, c.ok ? "ok" : "FAILED");
    std::printf("  setup    %10.0f conns/s wall  %10.0f conns/s sim  (%.2f s)\n",
                c.setup_cps_wall, c.setup_cps_sim, c.setup_wall_s);
    std::printf("  teardown %10.0f conns/s wall  %10.0f conns/s sim  (%.2f s)\n",
                c.teardown_cps_wall, c.teardown_cps_sim, c.teardown_wall_s);
    std::printf("  idle: %.0f B/conn-pair (RSS %llu -> %llu KB), demux %zu live"
                " max probe %llu\n",
                c.idle_bytes_per_conn_pair,
                static_cast<unsigned long long>(c.rss_baseline_kb),
                static_cast<unsigned long long>(c.rss_idle_kb),
                c.demux_live_idle,
                static_cast<unsigned long long>(c.demux_max_probe));
    std::printf("  wheel peak %llu pending, tw peak %zu -> %zu after drain, "
                "%zu zombies\n",
                static_cast<unsigned long long>(c.wheel_max_pending),
                c.timewait_peak, c.timewait_after, c.zombies_after);
    all_ok = all_ok && c.ok;
    out.set("churn", churn_json(c));
  }

  if (churn_only.on) {
    out.set("all_ok", all_ok);
    if (!bench::write_json(json, out)) return 1;
    return all_ok ? 0 : 1;
  }

  core::Json jcells = core::Json::array();

  for (const std::size_t n : sweep) {
    const std::uint64_t bpf = bytes_for(n);
    const auto c = run_cell(n, bpf, cab::ArbPolicy::kRoundRobin);
    std::printf("%6zu %12llu | %4s %9.1f %7.4f | %10.0f %8.2f\n", n,
                static_cast<unsigned long long>(bpf),
                c.r.completed ? "yes" : "NO", c.r.aggregate_mbps, c.r.jain,
                c.events_per_sec, c.wall_s);
    all_ok = all_ok && c.r.completed;
    jcells.push_back(cell_json("sweep", n, bpf, cab::ArbPolicy::kRoundRobin, c));
  }
  out.set("cells", std::move(jcells));

  // Same-seed determinism: an identical N=64 run must reproduce every
  // per-flow byte count (the whole simulation is seeded and event-driven).
  {
    const std::size_t n = 64;
    const std::uint64_t bpf = bytes_for(n);
    const auto c1 = run_cell(n, bpf, cab::ArbPolicy::kRoundRobin);
    const auto c2 = run_cell(n, bpf, cab::ArbPolicy::kRoundRobin);
    bool same = c1.r.flows.size() == c2.r.flows.size() && c1.r.jain == c2.r.jain;
    for (std::size_t i = 0; same && i < c1.r.flows.size(); ++i) {
      same = c1.r.flows[i].bytes == c2.r.flows[i].bytes &&
             c1.r.flows[i].finished == c2.r.flows[i].finished;
    }
    std::printf("determinism (N=64, two runs): %s\n", same ? "ok" : "MISMATCH");
    all_ok = all_ok && same;
    core::Json jd = core::Json::object();
    jd.set("flows", static_cast<std::uint64_t>(n));
    jd.set("identical", same);
    out.set("determinism", std::move(jd));
  }

  // Arbitration policy face-off at N=64: round-robin should not be less fair
  // than FIFO.
  {
    const std::size_t n = 64;
    const std::uint64_t bpf = bytes_for(n);
    const auto cf = run_cell(n, bpf, cab::ArbPolicy::kFifo);
    const auto cr = run_cell(n, bpf, cab::ArbPolicy::kRoundRobin);
    std::printf("policy @64 flows: fifo jain %.4f, round-robin jain %.4f\n",
                cf.r.jain, cr.r.jain);
    core::Json jp = core::Json::array();
    jp.push_back(cell_json("policy", n, bpf, cab::ArbPolicy::kFifo, cf));
    jp.push_back(cell_json("policy", n, bpf, cab::ArbPolicy::kRoundRobin, cr));
    out.set("policy_compare", std::move(jp));
    all_ok = all_ok && cf.r.completed && cr.r.completed;
  }

  // Parallel sharded engine: the 64-host / 10k-flow matrix on the
  // ParallelEngine, swept over worker counts. Simulated results must be
  // bit-identical at every worker count (the 1-worker run is the oracle);
  // events/s measures how much the worker pool buys on this machine, so the
  // hardware thread count is recorded next to it. Quick mode shrinks the
  // topology and stops at 2 workers — that is the TSan smoke lane.
  {
    const std::size_t pairs = quick ? 8 : 32;     // 16 or 64 hosts
    const std::size_t flows = quick ? 256 : 10000;
    const std::uint64_t bpf = 16 * 1024;
    const std::vector<std::size_t> worker_sweep =
        quick ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 2, 4, 8};

    std::printf("parallel engine: %zu hosts, %zu flows (%u hw threads)\n",
                2 * pairs, flows, std::thread::hardware_concurrency());
    std::printf("%8s | %4s %9s | %10s %8s %8s %9s\n", "workers", "ok",
                "aggMb/s", "events/s", "wall_s", "epochs", "speedup");

    core::Json jp = core::Json::object();
    jp.set("hosts", static_cast<std::uint64_t>(2 * pairs));
    jp.set("flows", static_cast<std::uint64_t>(flows));
    jp.set("bytes_per_flow", bpf);
    jp.set("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    core::Json jcells2 = core::Json::array();
    double base_wall = 0.0;
    std::string oracle_dump;
    std::uint64_t oracle_bytes = 0;
    bool deterministic = true;
    for (const std::size_t w : worker_sweep) {
      const auto c = run_parallel_cell(pairs, flows, bpf, w);
      if (w == 1) {
        base_wall = c.wall_s;
        oracle_dump = c.engine_dump;
        oracle_bytes = c.r.total_bytes;
      } else {
        deterministic = deterministic && c.engine_dump == oracle_dump &&
                        c.r.total_bytes == oracle_bytes;
      }
      const double speedup = c.wall_s > 0 ? base_wall / c.wall_s : 0.0;
      std::printf("%8zu | %4s %9.1f | %10.0f %8.2f %8llu %8.2fx\n", w,
                  c.r.completed ? "yes" : "NO", c.r.aggregate_mbps,
                  c.events_per_sec, c.wall_s,
                  static_cast<unsigned long long>(c.epochs), speedup);
      all_ok = all_ok && c.r.completed;
      jcells2.push_back(parallel_cell_json(w, c, speedup));
    }
    std::printf("determinism across worker counts: %s\n",
                deterministic ? "ok" : "MISMATCH");
    all_ok = all_ok && deterministic;
    jp.set("deterministic_across_workers", deterministic);
    jp.set("cells", std::move(jcells2));
    out.set("parallel", std::move(jp));
  }

  out.set("all_ok", all_ok);
  if (!bench::write_json(json, out)) return 1;
  return all_ok ? 0 : 1;
}
