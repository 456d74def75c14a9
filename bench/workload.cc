// Real-workload frontend bench: drives the wload subsystem end to end and
// emits BENCH_workload.json. Three scenario cells plus a determinism cell:
//
//   population_steady  two-cohort (web/bulk) user population with a diurnal
//                      arrival ramp — per-cohort goodput and response-latency
//                      p50/p99/p99.9;
//   flash_crowd        a one-shot surge against a small listen backlog — the
//                      SYN-cookie slow lane must absorb it; reports recovery
//                      time and server cookie/overflow counters;
//   trace_replay       closes the capture loop: a traced transfer is written
//                      with write_pcap (snaplen-truncated), parsed back with
//                      read_pcap, and re-offered over a fresh testbed — every
//                      captured payload byte must be delivered;
//   determinism        the steady population rerun under the same seed must
//                      serialize to a byte-identical cell.
//
// All cells are byte-exact under a fixed seed, so the committed JSON is
// reproducible: regenerate with `workload --json BENCH_workload.json`.
#include <cstdio>
#include <string>

#include "bench_flags.h"
#include "apps/ttcp.h"
#include "core/netstat.h"
#include "wload/population.h"
#include "wload/trace_replay.h"

namespace {

using namespace nectar;

core::Json cohort_cell(const wload::CohortResult& c) {
  core::Json j = core::Json::object();
  j.set("name", c.name);
  j.set("users", static_cast<std::uint64_t>(c.users));
  j.set("requests_done", c.requests_done);
  j.set("requests_failed", c.requests_failed);
  j.set("eaddrnotavail", c.eaddrnotavail);
  j.set("bytes_received", c.bytes_received);
  j.set("goodput_mbps", c.goodput_mbps);
  j.set("resp_ns", c.resp_ns.to_json());
  return j;
}

void print_cohort(const wload::CohortResult& c) {
  std::printf("  %-6s | %3zu users %5llu reqs | goodput %8.1f Mb/s | resp us "
              "p50 %8.1f  p99 %8.1f  p99.9 %8.1f\n",
              c.name.c_str(), c.users,
              static_cast<unsigned long long>(c.requests_done), c.goodput_mbps,
              static_cast<double>(c.resp_ns.percentile(50)) / 1000.0,
              static_cast<double>(c.resp_ns.percentile(99)) / 1000.0,
              static_cast<double>(c.resp_ns.percentile(99.9)) / 1000.0);
}

wload::PopulationConfig steady_config(bool quick, std::uint64_t seed) {
  wload::PopulationConfig cfg;
  cfg.seed = seed;
  wload::CohortConfig web;
  web.name = "web";
  web.users = quick ? 8 : 24;
  web.requests_per_user = quick ? 3 : 6;
  web.pareto_xm = 1024;
  web.size_cap = 128 * 1024;
  web.think_mean = sim::msec(1.0);
  wload::CohortConfig bulk;
  bulk.name = "bulk";
  bulk.users = quick ? 2 : 6;
  bulk.requests_per_user = 2;
  bulk.pareto_xm = 64 * 1024;
  bulk.size_cap = 1 << 20;
  bulk.think_mean = sim::msec(4.0);
  cfg.cohorts = {web, bulk};
  // Evening-heavy 24-bin ramp squeezed into the arrival window.
  cfg.diurnal_weights = {1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3,
                         4, 4, 4, 5, 5, 6, 8, 8, 6, 4, 2, 1};
  cfg.arrival_window = sim::msec(10.0);
  cfg.deadline = 60 * sim::kSecond;
  return cfg;
}

// Steady-state population cell; the serialized form doubles as the
// determinism probe.
core::Json run_steady(bool quick, bool* ok) {
  core::MultiTestbedOptions mo;
  mo.num_pairs = quick ? 2 : 4;
  core::MultiTestbed tb(mo);
  const wload::PopulationResult r =
      wload::run_population(tb, steady_config(quick, 42));
  tb.sim.run();  // protocol drain, so leaked state would show up in netstat

  *ok = *ok && r.conserved();
  core::Json cell = core::Json::object();
  cell.set("scenario", "population_steady");
  cell.set("completed", r.completed);
  cell.set("conserved", r.conserved());
  cell.set("conns_total", r.conns_total);
  cell.set("eph_port_exhausted", r.eph_port_exhausted);
  core::Json cohorts = core::Json::array();
  for (const auto& c : r.cohorts) {
    print_cohort(c);
    cohorts.push_back(cohort_cell(c));
  }
  cell.set("cohorts", std::move(cohorts));
  return cell;
}

core::Json run_flash(bool quick, bool* ok) {
  core::MultiTestbedOptions mo;
  mo.num_pairs = 2;
  core::MultiTestbed tb(mo);

  wload::PopulationConfig cfg;
  cfg.seed = 2026;
  wload::CohortConfig steady;
  steady.name = "steady";
  steady.users = 4;
  steady.requests_per_user = 2;
  steady.pareto_xm = 2048;
  steady.size_cap = 16 * 1024;
  steady.think_mean = sim::msec(2.0);
  cfg.cohorts = {steady};
  cfg.listen_backlog = 4;  // deliberately small: the surge must overflow it
  cfg.flash.enabled = true;
  cfg.flash.at = sim::msec(10.0);
  cfg.flash.users = quick ? 64 : 192;
  cfg.flash.cohort = 0;
  cfg.flash.resp_bytes = 2048;
  cfg.deadline = 120 * sim::kSecond;

  const wload::PopulationResult r = wload::run_population(tb, cfg);
  tb.sim.run();

  const bool cell_ok = r.conserved() && r.flash.requests_done == cfg.flash.users &&
                       r.flash.listen_overflows > 0 &&
                       r.flash.syn_cookies_sent > 0 &&
                       r.flash.syn_cookies_accepted > 0;
  *ok = *ok && cell_ok;
  std::printf("  flash  | %3zu users surge    | recovery %8.1f us | cookies "
              "sent %llu accepted %llu overflows %llu\n",
              r.flash.users, sim::to_usec(r.flash.recovery),
              static_cast<unsigned long long>(r.flash.syn_cookies_sent),
              static_cast<unsigned long long>(r.flash.syn_cookies_accepted),
              static_cast<unsigned long long>(r.flash.listen_overflows));

  core::Json cell = core::Json::object();
  cell.set("scenario", "flash_crowd");
  cell.set("completed", r.completed);
  cell.set("ok", cell_ok);
  cell.set("surge_users", static_cast<std::uint64_t>(r.flash.users));
  cell.set("requests_done", r.flash.requests_done);
  cell.set("recovery_ns", static_cast<std::uint64_t>(r.flash.recovery));
  cell.set("syn_cookies_sent", r.flash.syn_cookies_sent);
  cell.set("syn_cookies_accepted", r.flash.syn_cookies_accepted);
  cell.set("listen_overflows", r.flash.listen_overflows);
  cell.set("resp_ns", r.flash.resp_ns.to_json());
  core::Json cohorts = core::Json::array();
  for (const auto& c : r.cohorts) cohorts.push_back(cohort_cell(c));
  cell.set("steady_cohorts", std::move(cohorts));
  return cell;
}

core::Json run_replay(bool quick, const std::string& pcap_path, bool* ok) {
  // Capture: a traced bulk transfer, snaplen-truncated so replay must size
  // segments from the captured headers rather than the captured bytes.
  std::uint64_t captured_payload = 0;
  {
    core::TestbedOptions opts;
    opts.trace_packets = true;
    core::Testbed tb(opts);
    tb.trace->enable_capture(96);
    apps::TtcpConfig cfg;
    cfg.total_bytes = quick ? 512 * 1024 : 4 * 1024 * 1024;
    cfg.write_size = 64 * 1024;
    const auto r = apps::run_ttcp(tb, cfg);
    *ok = *ok && r.completed;
    for (const auto& e : tb.trace->entries())
      if (e.proto == net::kProtoTcp && e.payload > 0 && !e.fragment)
        captured_payload += e.payload;
    if (!tb.trace->write_pcap(pcap_path)) *ok = false;
  }

  // Replay: parse the capture back and re-offer it over a fresh testbed.
  wload::TraceWorkload wl;
  core::Json cell = core::Json::object();
  cell.set("scenario", "trace_replay");
  if (!wload::TraceWorkload::from_pcap(pcap_path, wl)) {
    std::fprintf(stderr, "trace_replay: failed to parse %s\n", pcap_path.c_str());
    *ok = false;
    cell.set("ok", false);
    return cell;
  }
  core::Testbed tb2;
  const wload::TraceReplayResult rr = wload::run_trace_replay(tb2, wl);
  tb2.sim.run();

  const bool cell_ok = rr.conserved() && rr.bytes_delivered == captured_payload;
  *ok = *ok && cell_ok;
  std::printf("  replay | %3zu flows %4zu segs | delivered %llu / %llu bytes | "
              "makespan %.1f us\n",
              wl.flows.size(), wl.flows.empty() ? 0 : wl.flows[0].segs.size(),
              static_cast<unsigned long long>(rr.bytes_delivered),
              static_cast<unsigned long long>(rr.bytes_offered),
              sim::to_usec(rr.makespan));

  cell.set("ok", cell_ok);
  cell.set("records", static_cast<std::uint64_t>(wl.records));
  cell.set("truncated", static_cast<std::uint64_t>(wl.truncated));
  cell.set("undecodable", static_cast<std::uint64_t>(wl.undecodable));
  cell.set("flows", static_cast<std::uint64_t>(wl.flows.size()));
  cell.set("bytes_offered", rr.bytes_offered);
  cell.set("bytes_delivered", rr.bytes_delivered);
  cell.set("makespan_ns", static_cast<std::uint64_t>(rr.makespan));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_workload.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  bool all_ok = true;
  std::printf("Workload frontend bench (%s)\n", quick ? "quick" : "full");

  core::Json out = core::Json::object();
  out.set("bench", "workload");
  out.set("schema_version", 1);
  out.set("quick", quick);
  core::Json cells = core::Json::array();

  std::printf("population_steady:\n");
  core::Json steady = run_steady(quick, &all_ok);
  const std::string steady_dump = steady.dump(2);
  cells.push_back(std::move(steady));

  std::printf("flash_crowd:\n");
  cells.push_back(run_flash(quick, &all_ok));

  std::printf("trace_replay:\n");
  const std::string pcap_path = std::string(json.path) + ".pcap";
  cells.push_back(run_replay(quick, pcap_path, &all_ok));
  out.set("scenarios", std::move(cells));

  // Same seed, fresh world: the steady cell — goodputs, every histogram
  // bucket — must serialize byte-identically.
  {
    bool rerun_ok = true;
    std::printf("determinism rerun:\n");
    const std::string again = run_steady(quick, &rerun_ok).dump(2);
    const bool same = rerun_ok && again == steady_dump;
    std::printf("determinism (population_steady, two runs): %s\n",
                same ? "ok" : "MISMATCH");
    all_ok = all_ok && same;
    core::Json jd = core::Json::object();
    jd.set("identical", same);
    out.set("determinism", std::move(jd));
  }
  out.set("all_ok", all_ok);
  std::remove(pcap_path.c_str());

  if (!bench::write_json(json, out)) return 1;
  return all_ok ? 0 : 1;
}
