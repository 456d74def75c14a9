// Overload-survival bench: drives the src/overload subsystem end to end and
// emits BENCH_overload.json. Three scenario cells plus a determinism cell:
//
//   overload_soak  a flash crowd at ~10x the steady population slams weighted
//                  service classes (gold weight 4, bulk weight 1) over an
//                  impaired wire while adaptor faults fire mid-surge, with
//                  admission control + ECN backpressure enabled and an ops
//                  console watching the servers. Gates: every admitted
//                  request completes intact (zero integrity violations), the
//                  response-latency p99.9 stays bounded, and the weighted
//                  arbiters' per-flow service is fair (Jain index over
//                  weight-normalized service shares);
//
//   ecn_ab         the acceptance experiment: the identical offered load run
//                  twice against deliberately small outboard memory, once
//                  with ECN marking on and once off (admission off in both,
//                  so the offered load really is identical). The marked run
//                  must finish with measurably fewer datapath drops;
//
//   determinism    the soak rerun under the same seed must serialize to a
//                  byte-identical cell.
//
// All cells are byte-exact under a fixed seed, so the committed JSON is
// reproducible: regenerate with `overload --json BENCH_overload.json`.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "core/netstat.h"
#include "fault/fault.h"
#include "overload/ops_console.h"
#include "wload/population.h"

namespace {

using namespace nectar;

core::Json cohort_cell(const wload::CohortResult& c) {
  core::Json j = core::Json::object();
  j.set("name", c.name);
  j.set("users", static_cast<std::uint64_t>(c.users));
  j.set("requests_done", c.requests_done);
  j.set("requests_failed", c.requests_failed);
  j.set("bytes_received", c.bytes_received);
  j.set("goodput_mbps", c.goodput_mbps);
  j.set("resp_p50_us", static_cast<double>(c.resp_ns.percentile(50)) / 1000.0);
  j.set("resp_p99_us", static_cast<double>(c.resp_ns.percentile(99)) / 1000.0);
  j.set("resp_p999_us",
        static_cast<double>(c.resp_ns.percentile(99.9)) / 1000.0);
  return j;
}

// Datapath drops a host pair actually suffered: receive-side packets refused
// for lack of outboard memory, outboard allocation failures, and transmits
// the driver could not stage. These are the losses admission control and ECN
// backpressure exist to prevent.
std::uint64_t datapath_drops(const core::MultiTestbed& tb) {
  std::uint64_t drops = 0;
  for (const auto* vec : {&tb.cab_clients, &tb.cab_servers}) {
    for (drivers::CabDriver* drv : *vec) {
      drops += drv->device().mdma_recv().stats().drops_no_memory;
      drops += drv->device().nm().alloc_failures();
      drops += drv->drv_stats.tx_no_memory;
    }
  }
  return drops;
}

// Per-class Jain fairness: within each weight class, how evenly the server
// arbiters served that class's flows (x_f = arb pops of flow f). 1.0 means
// every same-weight flow got identical service; demand skew (Pareto response
// sizes) legitimately pulls it below 1. Cross-class *proportionality* is the
// property test's job (WeightedFair.SharesMatchWeightsWithinOneRechargeRound);
// this reports the measured within-class equity of the soak.
struct ClassFairness {
  std::uint32_t weight = 0;
  std::size_t flows = 0;
  std::uint64_t pops = 0;
  double jain = 0.0;
};

std::vector<ClassFairness> class_fairness(const core::MultiTestbed& tb) {
  std::map<std::uint32_t, std::map<std::uint32_t, std::uint64_t>> by_class;
  const auto tally = [&](const auto& q) {
    for (const auto& [flow, fs] : q.flow_stats()) {
      if (fs.pops == 0) continue;
      by_class[q.flow_weight(flow)][flow] += fs.pops;
    }
  };
  for (drivers::CabDriver* drv : tb.cab_servers) {
    tally(drv->device().sdma().arb());
    tally(drv->device().mdma_xmit().arb());
  }
  std::vector<ClassFairness> out;
  for (const auto& [w, flows] : by_class) {
    ClassFairness cf;
    cf.weight = w;
    cf.flows = flows.size();
    double sum = 0.0, sumsq = 0.0;
    for (const auto& [flow, pops] : flows) {
      cf.pops += pops;
      const double x = static_cast<double>(pops);
      sum += x;
      sumsq += x * x;
    }
    cf.jain = sumsq == 0.0 ? 0.0
                           : sum * sum / (static_cast<double>(cf.flows) * sumsq);
    out.push_back(cf);
  }
  return out;
}

wload::PopulationConfig soak_config(bool quick) {
  wload::PopulationConfig cfg;
  cfg.seed = 1995;
  wload::CohortConfig gold;
  gold.name = "gold";
  gold.users = quick ? 2 : 4;
  gold.requests_per_user = quick ? 2 : 3;
  gold.pareto_xm = 4096;
  gold.size_cap = 64 * 1024;
  gold.think_mean = sim::msec(1.0);
  gold.arb_weight = 4;
  wload::CohortConfig bulk;
  bulk.name = "bulk";
  bulk.users = quick ? 2 : 4;
  bulk.requests_per_user = quick ? 2 : 3;
  bulk.pareto_xm = 16 * 1024;
  bulk.size_cap = 256 * 1024;
  bulk.think_mean = sim::msec(1.0);
  bulk.arb_weight = 1;
  cfg.cohorts = {gold, bulk};
  cfg.listen_backlog = 4;
  // ~10x the steady population arrives at once on the bulk service.
  cfg.flash.enabled = true;
  cfg.flash.at = sim::msec(5.0);
  cfg.flash.users = quick ? 40 : 80;
  cfg.flash.cohort = 1;
  cfg.flash.resp_bytes = 8192;
  cfg.deadline = 300 * sim::kSecond;
  return cfg;
}

// The tentpole cell; its serialized form doubles as the determinism probe.
core::Json run_soak(bool quick, bool* ok) {
  core::MultiTestbedOptions mo;
  mo.num_pairs = 2;
  mo.arb = cab::ArbPolicy::kWeightedFair;
  mo.loss_rate = 0.001;
  mo.corrupt_rate = 0.0005;
  mo.overload = true;
  // Small enough that the surge trips the mbuf watermark (steady-state pool
  // high-water sits well below these caps; the flash crowd pushes past).
  mo.overload_cfg.mbuf_cap = quick ? 32 : 64;
  core::MultiTestbed tb(mo);

  // Adaptor faults mid-surge: a burst of SDMA transfer errors and a window
  // with the checksum datapath broken, both on server 0 — the recovery
  // machinery must ride through them while the overload policy sheds load.
  fault::FaultInjector inj(tb.sim);
  inj.register_adaptor("srv0", *tb.cab_servers[0]);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.add({.target = "srv0",
            .kind = fault::FaultKind::kSdmaError,
            .at = sim::msec(6.0),
            .count = 3});
  plan.add({.target = "srv0",
            .kind = fault::FaultKind::kChecksumFail,
            .at = sim::msec(8.0),
            .duration = sim::msec(2.0)});
  inj.arm(plan);

  core::OpsConsoleOptions oc;
  oc.period = sim::msec(5.0);
  core::OpsConsole console(tb.sim, oc);
  for (auto& h : tb.servers) console.watch(*h);
  console.start();

  const wload::PopulationConfig cfg = soak_config(quick);
  const wload::PopulationResult r = wload::run_population(tb, cfg);
  console.stop();
  tb.sim.run();  // drain FIN tails and TIME-WAIT expiries

  std::uint64_t syn_deferred = 0, sc_deferred = 0, ecn_marked = 0;
  std::uint64_t wm_enters = 0, wm_exits = 0;
  for (const auto& m : tb.overload_mgrs) {
    syn_deferred += m->stats().syn_deferred;
    sc_deferred += m->stats().sc_deferred;
    ecn_marked += m->stats().ecn_marked;
    for (std::size_t res = 0; res < overload::kNumResources; ++res) {
      wm_enters += m->stats().enters[res];
      wm_exits += m->stats().exits[res];
    }
  }
  std::uint64_t leaked_conns = 0;
  std::int64_t mbufs_in_use = 0;
  for (std::size_t p = 0; p < tb.num_pairs(); ++p) {
    leaked_conns += tb.servers[p]->stack().tcp_connections().size() +
                    tb.clients[p]->stack().tcp_connections().size() +
                    tb.servers[p]->stack().zombie_count();
    mbufs_in_use +=
        tb.servers[p]->pool().in_use() + tb.clients[p]->pool().in_use();
  }

  // Bounded tail latency: the worst p99.9 across classes and the surge must
  // land well inside the drain deadline (an unbounded queue would blow it).
  std::uint64_t worst_p999 = r.flash.resp_ns.percentile(99.9);
  for (const auto& c : r.cohorts)
    if (c.resp_ns.percentile(99.9) > worst_p999)
      worst_p999 = c.resp_ns.percentile(99.9);
  const std::vector<ClassFairness> fairness = class_fairness(tb);
  bool fairness_ok = !fairness.empty();
  for (const auto& cf : fairness) fairness_ok = fairness_ok && cf.jain > 0.0;

  const bool cell_ok =
      r.conserved() && r.flash.requests_done == cfg.flash.users &&
      ecn_marked > 0 && wm_enters > 0 && leaked_conns == 0 &&
      mbufs_in_use == 0 && console.ticks() > 0 && fairness_ok &&
      worst_p999 > 0 && worst_p999 < static_cast<std::uint64_t>(cfg.deadline);
  *ok = *ok && cell_ok;

  std::printf("  soak   | %3zu surge users    | p99.9 %10.1f us | syn deferred "
              "%llu, ecn marked %llu, faults %llu\n",
              r.flash.users, static_cast<double>(worst_p999) / 1000.0,
              static_cast<unsigned long long>(syn_deferred),
              static_cast<unsigned long long>(ecn_marked),
              static_cast<unsigned long long>(inj.injections()));
  for (const auto& cf : fairness)
    std::printf("  class  | weight %u: %zu flows, %llu pops, jain %.3f\n",
                cf.weight, cf.flows, static_cast<unsigned long long>(cf.pops),
                cf.jain);

  core::Json cell = core::Json::object();
  cell.set("scenario", "overload_soak");
  cell.set("ok", cell_ok);
  cell.set("completed", r.completed);
  cell.set("conserved", r.conserved());
  cell.set("surge_users", static_cast<std::uint64_t>(r.flash.users));
  cell.set("surge_done", r.flash.requests_done);
  cell.set("surge_recovery_ns", static_cast<std::uint64_t>(r.flash.recovery));
  cell.set("worst_p999_ns", worst_p999);
  core::Json jf = core::Json::array();
  for (const auto& cf : fairness) {
    core::Json j = core::Json::object();
    j.set("weight", static_cast<std::uint64_t>(cf.weight));
    j.set("flows", static_cast<std::uint64_t>(cf.flows));
    j.set("pops", cf.pops);
    j.set("jain", cf.jain);
    jf.push_back(std::move(j));
  }
  cell.set("class_fairness", std::move(jf));
  cell.set("syn_deferred", syn_deferred);
  cell.set("sc_deferred", sc_deferred);
  cell.set("ecn_marked", ecn_marked);
  cell.set("watermark_enters", wm_enters);
  cell.set("watermark_exits", wm_exits);
  cell.set("listen_overflows", r.flash.listen_overflows);
  cell.set("syn_cookies_sent", r.flash.syn_cookies_sent);
  cell.set("datapath_drops", datapath_drops(tb));
  cell.set("fault_injections", inj.injections());
  cell.set("console_ticks", console.ticks());
  cell.set("leaked_conns", leaked_conns);
  cell.set("mbufs_in_use_after_drain", static_cast<std::uint64_t>(mbufs_in_use));
  core::Json cohorts = core::Json::array();
  for (const auto& c : r.cohorts) cohorts.push_back(cohort_cell(c));
  cell.set("cohorts", std::move(cohorts));
  return cell;
}

// One arm of the ECN A/B: the same population against small outboard memory,
// ECN marking on or off. Admission stays off so both arms offer exactly the
// same load; the only difference is whether senders get backpressure.
struct AbArm {
  bool conserved = false;
  std::uint64_t drops = 0;
  std::uint64_t ecn_marked = 0;
};

AbArm run_ab_arm(bool quick, bool ecn) {
  core::MultiTestbedOptions mo;
  mo.num_pairs = 1;  // concentrate every flow on one CAB pair
  mo.params.cab.memory_bytes = 256 * 1024;  // tight: the load must overrun it
  mo.overload = true;
  mo.overload_cfg.admission = false;
  mo.overload_cfg.ecn = ecn;
  core::MultiTestbed tb(mo);

  wload::PopulationConfig cfg;
  cfg.seed = 606;
  wload::CohortConfig load;
  load.name = "load";
  load.users = 10;  // ten concurrent heavy senders keep nm pinned high
  load.requests_per_user = quick ? 2 : 4;
  load.pareto_xm = 32 * 1024;
  load.size_cap = 256 * 1024;
  load.think_mean = sim::msec(0.5);
  cfg.cohorts = {load};
  cfg.deadline = 300 * sim::kSecond;

  const wload::PopulationResult r = wload::run_population(tb, cfg);

  AbArm arm;
  tb.sim.run();
  arm.conserved = r.conserved();
  arm.drops = datapath_drops(tb);
  for (const auto& m : tb.overload_mgrs) arm.ecn_marked += m->stats().ecn_marked;
  return arm;
}

core::Json run_ecn_ab(bool quick, bool* ok) {
  const AbArm off = run_ab_arm(quick, /*ecn=*/false);
  const AbArm on = run_ab_arm(quick, /*ecn=*/true);

  // The acceptance criterion: at identical offered load, the ECN-marked run
  // suffers measurably fewer datapath drops than the unmarked one.
  const bool cell_ok = off.conserved && on.conserved && off.drops > 0 &&
                       on.drops < off.drops && on.ecn_marked > 0 &&
                       off.ecn_marked == 0;
  *ok = *ok && cell_ok;
  std::printf("  ecn_ab | drops %llu (ecn off) vs %llu (ecn on) | %llu marks\n",
              static_cast<unsigned long long>(off.drops),
              static_cast<unsigned long long>(on.drops),
              static_cast<unsigned long long>(on.ecn_marked));

  core::Json cell = core::Json::object();
  cell.set("scenario", "ecn_ab");
  cell.set("ok", cell_ok);
  cell.set("conserved_off", off.conserved);
  cell.set("conserved_on", on.conserved);
  cell.set("drops_ecn_off", off.drops);
  cell.set("drops_ecn_on", on.drops);
  cell.set("ecn_marked", on.ecn_marked);
  cell.set("drop_reduction_pct",
           off.drops == 0 ? 0.0
                          : 100.0 * (1.0 - static_cast<double>(on.drops) /
                                               static_cast<double>(off.drops)));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_overload.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  bool all_ok = true;
  std::printf("Overload-survival bench (%s)\n", quick ? "quick" : "full");

  core::Json out = core::Json::object();
  out.set("bench", "overload");
  out.set("schema_version", 1);
  out.set("quick", quick);
  core::Json cells = core::Json::array();

  std::printf("overload_soak:\n");
  core::Json soak = run_soak(quick, &all_ok);
  const std::string soak_dump = soak.dump(2);
  cells.push_back(std::move(soak));

  std::printf("ecn_ab:\n");
  cells.push_back(run_ecn_ab(quick, &all_ok));
  out.set("scenarios", std::move(cells));

  // Same seed, fresh world: the soak cell — deferral counts, fault times,
  // every latency percentile — must serialize byte-identically.
  {
    bool rerun_ok = true;
    std::printf("determinism rerun:\n");
    const std::string again = run_soak(quick, &rerun_ok).dump(2);
    const bool same = rerun_ok && again == soak_dump;
    std::printf("determinism (overload_soak, two runs): %s\n",
                same ? "ok" : "MISMATCH");
    all_ok = all_ok && same;
    core::Json jd = core::Json::object();
    jd.set("identical", same);
    out.set("determinism", std::move(jd));
  }
  out.set("all_ok", all_ok);

  if (!bench::write_json(json, out)) return 1;
  return all_ok ? 0 : 1;
}
