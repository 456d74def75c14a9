// Offload sweep: large-segment offload (TSO/GRO analogue) on vs off across
// wire MTUs. Two questions, one harness:
//
//  * simulated goodput — does batching MDMA fan-out and receive coalescing
//    change the flow the paper's cost model sees (fewer per-packet host
//    charges, fewer interrupts)?
//  * simulator wall-clock — small MTUs multiply packet events; offload
//    collapses them back into super-segment descriptors and batched
//    interrupts, so the host-time cost of simulating a transfer (sim-Mb/s
//    per wall-second) is the headline wallclock cell.
//
// Every run is byte-verified; a tso_max sweep at the smallest MTU shows the
// marginal value of each extra staged segment. Emits BENCH_offload.json
// (--json), schema_version 1.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "apps/ttcp.h"
#include "core/json.h"
#include "core/netstat.h"
#include "core/testbed.h"
#include "drivers/cab_driver.h"

namespace {

using namespace nectar;
using Clock = std::chrono::steady_clock;

struct Cell {
  std::string name;
  std::size_t mtu = 0;
  std::size_t tso_max = 0;  // 0 = offload off
  bool completed = false;
  std::uint64_t data_errors = 0;
  double sim_mbps = 0;
  double wall_s = 0;
  double sim_mbps_per_wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t events = 0;
  drivers::CabDriver::OffloadStats tx;  // sender side
  drivers::CabDriver::OffloadStats rx;  // receiver side
};

Cell run_cell(std::size_t mtu, std::size_t tso_max, std::size_t total) {
  core::TestbedOptions opts;
  opts.cab_mtu = mtu;
  if (tso_max > 0) {
    opts.offload = true;
    opts.offload_cfg.tso_max = tso_max;
  }
  core::Testbed tb(opts);

  apps::TtcpConfig cfg;
  cfg.total_bytes = total;
  cfg.write_size = 128 * 1024;
  cfg.verify_data = true;
  const auto t0 = Clock::now();
  const auto r = apps::run_ttcp(tb, cfg);
  tb.sim.run();  // drain flush timers so counters are final
  Cell c;
  c.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  c.mtu = mtu;
  c.tso_max = tso_max;
  c.completed = r.completed;
  c.data_errors = r.data_errors;
  c.sim_mbps = r.throughput_mbps;
  c.sim_mbps_per_wall_s = r.throughput_mbps / c.wall_s;
  c.events = tb.sim.events_processed();
  c.events_per_sec = static_cast<double>(c.events) / c.wall_s;
  c.tx = tb.cab_a->off_stats;
  c.rx = tb.cab_b->off_stats;
  return c;
}

core::Json cell_json(const Cell& c) {
  core::Json j = core::Json::object();
  j.set("name", c.name);
  j.set("mtu", static_cast<std::uint64_t>(c.mtu));
  j.set("tso_max", static_cast<std::uint64_t>(c.tso_max));
  j.set("completed", c.completed);
  j.set("data_errors", c.data_errors);
  j.set("sim_mbps", c.sim_mbps);
  j.set("wall_s", c.wall_s);
  j.set("sim_mbps_per_wall_s", c.sim_mbps_per_wall_s);
  j.set("events", c.events);
  j.set("events_per_sec", c.events_per_sec);
  j.set("tx_super_segs", c.tx.tx_super_segs);
  j.set("tx_wire_segs", c.tx.tx_wire_segs);
  j.set("tx_tso_bytes", c.tx.tx_tso_bytes);
  j.set("rx_batches", c.rx.rx_batches);
  j.set("rx_batched_descs", c.rx.rx_batched_descs);
  j.set("rx_merged_segs", c.rx.rx_merged_segs);
  j.set("rx_merged_bytes", c.rx.rx_merged_bytes);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_offload.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  const std::size_t total = quick ? 4 * 1024 * 1024 : 32 * 1024 * 1024;
  const std::vector<std::size_t> mtus =
      quick ? std::vector<std::size_t>{4 * 1024, 32 * 1024}
            : std::vector<std::size_t>{2 * 1024, 4 * 1024, 8 * 1024,
                                       16 * 1024, 32 * 1024};

  std::printf("Offload sweep: %zu MB per cell, offload off vs tso_max=4\n",
              total / (1024 * 1024));
  std::printf("%7s | %9s %9s | %9s %9s | %7s %7s\n", "MTU", "off Mb/s",
              "on Mb/s", "off M/w-s", "on M/w-s", "supers", "merged");
  std::printf("-------------------------------------------------------------------\n");

  core::Json out = core::Json::object();
  out.set("bench", "offload_sweep");
  out.set("schema_version", 1);
  out.set("quick", quick);
  out.set("total_bytes", static_cast<std::uint64_t>(total));
  core::Json jmtu = core::Json::array();

  bool all_ok = true;
  bool small_mtu_wins = true;
  for (const std::size_t mtu : mtus) {
    Cell off = run_cell(mtu, 0, total);
    off.name = "off";
    Cell on = run_cell(mtu, 4, total);
    on.name = "tso4";
    std::printf("%6zuK | %9.1f %9.1f | %9.1f %9.1f | %7llu %7llu\n", mtu / 1024,
                off.sim_mbps, on.sim_mbps, off.sim_mbps_per_wall_s,
                on.sim_mbps_per_wall_s,
                static_cast<unsigned long long>(on.tx.tx_super_segs),
                static_cast<unsigned long long>(on.rx.rx_merged_segs));
    all_ok = all_ok && off.completed && on.completed &&
             off.data_errors == 0 && on.data_errors == 0;
    if (mtu <= 4 * 1024 &&
        on.sim_mbps_per_wall_s <= off.sim_mbps_per_wall_s)
      small_mtu_wins = false;
    core::Json row = core::Json::object();
    row.set("mtu", static_cast<std::uint64_t>(mtu));
    row.set("off", cell_json(off));
    row.set("on", cell_json(on));
    row.set("sim_mbps_ratio", on.sim_mbps / off.sim_mbps);
    row.set("wall_efficiency_ratio",
            on.sim_mbps_per_wall_s / off.sim_mbps_per_wall_s);
    jmtu.push_back(std::move(row));
  }
  out.set("mtu_sweep", std::move(jmtu));

  // Marginal value of each extra staged segment at the smallest MTU, where
  // per-packet host costs dominate.
  const std::size_t small = mtus.front();
  std::printf("\ntso_max sweep at %zuK MTU:\n", small / 1024);
  core::Json jtso = core::Json::array();
  for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}}) {
    Cell c = run_cell(small, t, total);
    c.name = t == 0 ? "off" : "tso" + std::to_string(t);
    std::printf("  %-5s : %8.1f sim-Mb/s, %6.2f wall-s, %9.1f sim-Mb/s per wall-s\n",
                c.name.c_str(), c.sim_mbps, c.wall_s, c.sim_mbps_per_wall_s);
    all_ok = all_ok && c.completed && c.data_errors == 0;
    jtso.push_back(cell_json(c));
  }
  out.set("tso_sweep", std::move(jtso));

  // The wallclock headline: host cost of simulating the same transfer at the
  // smallest MTU. (Recorded, not gated: machine speed is not a correctness
  // property, so CI smoke runs never fail on a slow or noisy host.)
  out.set("small_mtu_offload_wins_wallclock", small_mtu_wins);
  out.set("all_ok", all_ok);
  if (!small_mtu_wins)
    std::printf("\nwarning: offload-on did not beat off in sim-Mb/s per "
                "wall-s at MTU <= 4K on this run\n");

  if (!bench::write_json(json, out)) return 1;
  return all_ok ? 0 : 1;
}
