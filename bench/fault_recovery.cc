// Fault-recovery goodput sweep: seeded ttcp transfers with the adaptor
// fault injector poking the CAB mid-flight and the driver's recovery
// machinery (watchdog, reset state machine, graceful degradation) bringing
// the flow home. Every scenario must finish byte-exact; the JSON output
// (BENCH_fault_recovery.json) records goodput per scenario plus the
// degraded-mode goodput curve (checksum-unit outage of increasing length)
// against the healthy path.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "apps/ttcp.h"
#include "core/netstat.h"
#include "fault/fault.h"

namespace {

using namespace nectar;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

struct Scenario {
  std::string name;
  std::function<FaultPlan()> plan;
};

FaultSpec spec(const char* target, FaultKind kind, double at_ms) {
  FaultSpec s;
  s.target = target;
  s.kind = kind;
  s.at = sim::msec(at_ms);
  return s;
}

struct RunOut {
  apps::TtcpResult r;
  core::Json cell;
};

RunOut run_one(const std::string& name, const FaultPlan& plan,
               std::size_t total) {
  core::TestbedOptions opts;
  opts.with_partition = true;
  core::Testbed tb(opts);
  tb.cab_a->enable_recovery();
  tb.cab_b->enable_recovery();
  fault::FaultInjector inj(tb.sim);
  inj.register_adaptor("cab_a", *tb.cab_a);
  inj.register_adaptor("cab_b", *tb.cab_b);
  inj.register_link("link", *tb.partition);
  inj.arm(plan);

  apps::TtcpConfig cfg;
  cfg.total_bytes = total;
  cfg.write_size = 32 * 1024;
  cfg.verify_data = true;
  RunOut out;
  out.r = apps::run_ttcp(tb, cfg);
  tb.sim.run();  // drain resets/windows so the exported state is final

  const auto& ra = tb.cab_a->rec_stats;
  const auto& rb = tb.cab_b->rec_stats;
  core::Json j = core::Json::object();
  j.set("scenario", name);
  j.set("completed", out.r.completed);
  j.set("throughput_mbps", out.r.throughput_mbps);
  j.set("elapsed_s", sim::to_seconds(out.r.elapsed));
  j.set("data_errors", out.r.data_errors);
  j.set("resets", ra.resets + rb.resets);
  j.set("reset_completes", ra.reset_completes + rb.reset_completes);
  j.set("degrade_enters",
        ra.degrade_enter_csum + ra.degrade_enter_nomem + rb.degrade_enter_csum +
            rb.degrade_enter_nomem);
  j.set("tx_dma_failed", ra.tx_dma_failed + rb.tx_dma_failed);
  j.set("rx_bounced", ra.rx_bounced + rb.rx_bounced);
  j.set("rexmt", out.r.sender_tcp.rexmt_segs + out.r.sender_tcp.rexmt_timeouts);
  j.set("faults", core::fault_injector_json(inj));
  j.set("netstat_a", core::Netstat(*tb.a).json());
  j.set("netstat_b", core::Netstat(*tb.b).json());
  out.cell = std::move(j);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_fault_recovery.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  const std::size_t total = quick ? 1024 * 1024 : 8 * 1024 * 1024;

  const std::vector<Scenario> scenarios = {
      {"healthy", [] { return FaultPlan{}; }},
      {"sdma_errors",
       [] {
         FaultPlan p;
         auto s = spec("cab_a", FaultKind::kSdmaError, 1.0);
         s.count = 4;
         s.period = sim::msec(2);
         s.repeats = 3;
         p.add(s);
         return p;
       }},
      {"sdma_stall_5ms",
       [] {
         FaultPlan p;
         auto s = spec("cab_a", FaultKind::kSdmaStall, 2.0);
         s.duration = sim::msec(5);
         p.add(s);
         return p;
       }},
      {"checksum_fail_10ms",
       [] {
         FaultPlan p;
         auto s = spec("cab_a", FaultKind::kChecksumFail, 2.0);
         s.duration = sim::msec(10);
         p.add(s);
         return p;
       }},
      {"netmem_exhaust_10ms",
       [] {
         FaultPlan p;
         auto s = spec("cab_a", FaultKind::kNetmemExhaust, 2.0);
         s.duration = sim::msec(10);
         p.add(s);
         return p;
       }},
      {"netmem_leak",
       [] {
         FaultPlan p;
         auto s = spec("cab_a", FaultKind::kNetmemLeak, 2.0);
         s.leak_pages = 1000;
         p.add(s);
         return p;
       }},
      {"firmware_stall_20ms",
       [] {
         FaultPlan p;
         auto s = spec("cab_a", FaultKind::kFirmwareStall, 2.0);
         s.duration = sim::msec(20);
         p.add(s);
         return p;
       }},
      {"link_flap_20ms",
       [] {
         FaultPlan p;
         auto s = spec("link", FaultKind::kLinkFlap, 2.0);
         s.duration = sim::msec(20);
         p.add(s);
         return p;
       }},
  };

  std::printf("Fault-recovery sweep: %zu KB per scenario\n", total / 1024);
  std::printf("%-20s | %5s %9s %6s | %6s %6s %7s %7s\n", "scenario", "ok",
              "Mb/s", "errs", "resets", "degr", "rexmt", "bounce");
  std::printf("----------------------------------------------------------------------\n");

  core::Json out = core::Json::object();
  out.set("bench", "fault_recovery");
  out.set("schema_version", 1);
  out.set("total_bytes", static_cast<std::uint64_t>(total));
  core::Json jcells = core::Json::array();

  bool all_ok = true;
  for (const auto& sc : scenarios) {
    auto run = run_one(sc.name, sc.plan(), total);
    const auto& c = run.cell;
    std::printf("%-20s | %5s %9.1f %6llu | %6llu %6llu %7llu %7llu\n",
                sc.name.c_str(), run.r.completed ? "yes" : "NO",
                run.r.throughput_mbps,
                static_cast<unsigned long long>(run.r.data_errors),
                static_cast<unsigned long long>(c.find("resets")->as_int()),
                static_cast<unsigned long long>(c.find("degrade_enters")->as_int()),
                static_cast<unsigned long long>(c.find("rexmt")->as_int()),
                static_cast<unsigned long long>(c.find("rx_bounced")->as_int()));
    all_ok = all_ok && run.r.completed && run.r.data_errors == 0;
    jcells.push_back(std::move(run.cell));
  }
  out.set("scenarios", std::move(jcells));

  // Degraded-mode goodput curve: a checksum-unit outage of increasing length
  // forces a growing share of the transfer onto the host bounce path; the
  // healthy point (0 ms) is the outboard baseline.
  std::printf("\nDegraded-mode goodput (checksum outage, %zu KB transfer):\n",
              total / 1024);
  core::Json curve = core::Json::array();
  const std::vector<double> outages =
      quick ? std::vector<double>{0.0, 10.0, 40.0}
            : std::vector<double>{0.0, 5.0, 10.0, 20.0, 40.0, 80.0};
  for (const double ms : outages) {
    FaultPlan p;
    if (ms > 0.0) {
      auto s = spec("cab_a", FaultKind::kChecksumFail, 2.0);
      s.duration = sim::msec(ms);
      p.add(s);
    }
    auto run = run_one("csum_outage", p, total);
    std::printf("  outage %6.1f ms -> %8.1f Mb/s%s\n", ms,
                run.r.throughput_mbps, run.r.completed ? "" : "  (INCOMPLETE)");
    all_ok = all_ok && run.r.completed && run.r.data_errors == 0;
    core::Json pt = core::Json::object();
    pt.set("outage_ms", ms);
    pt.set("throughput_mbps", run.r.throughput_mbps);
    pt.set("completed", run.r.completed);
    curve.push_back(std::move(pt));
  }
  out.set("degraded_goodput_curve", std::move(curve));
  out.set("all_ok", all_ok);

  if (!bench::write_json(json, out)) return 1;
  return all_ok ? 0 : 1;
}
