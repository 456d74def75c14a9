// Latency profile: per-stage span timings and per-flow tail latency for
// three scenarios — a single bulk flow, a many-flow multiplex, and a bulk
// flow surviving a firmware stall + adaptor reset. Emits BENCH_latency.json
// with the per-stage LogHistogram percentiles (p50/p90/p99/p999) and the
// RTT / one-way segment-latency distributions; --trace additionally writes
// the single-flow run's Chrome trace (open in Perfetto or about:tracing).
//
// Determinism is part of the contract: the single-flow scenario runs twice
// and both the metrics document and the Chrome trace must match byte for
// byte.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "apps/flow_matrix.h"
#include "apps/ttcp.h"
#include "fault/fault.h"
#include "telemetry/telemetry.h"

namespace {

using namespace nectar;

// One scenario's exported slice: stage histograms + flow-latency aggregates
// + span bookkeeping, pulled from the testbed's Telemetry registry.
core::Json telemetry_cell(const telemetry::Telemetry& tel) {
  core::Json j = core::Json::object();
  core::Json stages = core::Json::object();
  for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
    const auto& h = tel.stage_hist(static_cast<telemetry::Stage>(s));
    if (h.count() == 0) continue;
    stages.set(telemetry::stage_name(static_cast<telemetry::Stage>(s)),
               h.to_json());
  }
  j.set("stages", std::move(stages));
  // Flow metrics (rtt_ns, seg_latency_ns): keep the aggregates; the per-flow
  // histograms stay in the full metrics document, not the bench summary.
  const core::Json m = tel.metrics_json();
  if (const core::Json* fm = m.find("flow_metrics")) {
    core::Json agg = core::Json::object();
    for (const auto& [name, v] : fm->members()) {
      if (const core::Json* a = v.find("aggregate")) agg.set(name, *a);
    }
    j.set("flow_metrics", std::move(agg));
  }
  core::Json spans = core::Json::object();
  spans.set("open", static_cast<std::uint64_t>(tel.open_spans()));
  spans.set("completed", tel.spans_completed());
  spans.set("orphan_ends", tel.orphan_ends());
  spans.set("re_begins", tel.re_begins());
  spans.set("dropped_events", tel.dropped_events());
  j.set("spans", std::move(spans));
  return j;
}

void print_cell(const char* name, const core::Json& cell) {
  const core::Json* fm = cell.find("flow_metrics");
  const core::Json* seg = fm ? fm->find("seg_latency_ns") : nullptr;
  const core::Json* rtt = fm ? fm->find("rtt_ns") : nullptr;
  const auto us = [](const core::Json* h, const char* p) {
    const core::Json* v = h ? h->find(p) : nullptr;
    return v ? static_cast<double>(v->as_int()) / 1000.0 : 0.0;
  };
  std::printf("%-16s | seg lat us p50 %8.1f  p99 %8.1f  p99.9 %8.1f | rtt us p50 %8.1f  p99.9 %8.1f\n",
              name, us(seg, "p50"), us(seg, "p99"), us(seg, "p999"),
              us(rtt, "p50"), us(rtt, "p999"));
}

struct SingleRun {
  apps::TtcpResult r;
  core::Json cell;
  std::string metrics_dump;  // full metrics document (determinism check)
  std::string trace_dump;    // Chrome trace (determinism check / --trace)
};

SingleRun run_single_flow(std::size_t total) {
  core::TestbedOptions opts;
  opts.telemetry = true;
  core::Testbed tb(opts);

  apps::TtcpConfig cfg;
  cfg.total_bytes = total;
  cfg.write_size = 32 * 1024;
  SingleRun out;
  out.r = apps::run_ttcp(tb, cfg);
  tb.tel->stop_ticker();
  tb.sim.run();  // drain closes/timers so the span table reaches steady state

  out.cell = telemetry_cell(*tb.tel);
  out.cell.set("scenario", "single_flow");
  out.cell.set("completed", out.r.completed);
  out.cell.set("throughput_mbps", out.r.throughput_mbps);
  out.metrics_dump = tb.tel->metrics_json().dump(2);
  out.trace_dump = tb.tel->chrome_trace_json().dump(2);
  return out;
}

core::Json run_many_flows(std::size_t flows, std::uint64_t bytes_per_flow,
                          bool* ok) {
  core::MultiTestbedOptions mo;
  mo.num_pairs = std::min<std::size_t>(8, flows);
  mo.telemetry = true;
  // Same provisioning as bench/flow_scaling: the flow multiplex needs DMA
  // queue slots and outboard memory proportional to flows-per-pair.
  const std::size_t per_pair = (flows + mo.num_pairs - 1) / mo.num_pairs;
  mo.params.cab.sdma.queue_depth =
      std::max(mo.params.cab.sdma.queue_depth, 8 * per_pair);
  mo.params.cab.memory_bytes =
      std::max(mo.params.cab.memory_bytes, per_pair * 256 * 1024);
  core::MultiTestbed tb(mo);

  apps::FlowMatrixConfig cfg;
  cfg.num_flows = flows;
  cfg.bytes_per_flow = bytes_per_flow;
  const auto r = apps::run_flow_matrix(tb, cfg);
  tb.tel->stop_ticker();
  tb.sim.run();

  *ok = *ok && r.completed;
  core::Json cell = telemetry_cell(*tb.tel);
  cell.set("scenario", "flows_" + std::to_string(flows));
  cell.set("flows", static_cast<std::uint64_t>(flows));
  cell.set("completed", r.completed);
  cell.set("aggregate_mbps", r.aggregate_mbps);
  cell.set("jain_index", r.jain);
  return cell;
}

core::Json run_fault_recovery(std::size_t total, bool* ok) {
  core::TestbedOptions opts;
  opts.telemetry = true;
  opts.with_partition = true;
  core::Testbed tb(opts);
  tb.cab_a->enable_recovery();
  tb.cab_b->enable_recovery();

  // A 20 ms firmware stall 2 ms in: the watchdog resets the adaptor
  // mid-transfer, so the tail of the segment-latency distribution crosses an
  // abort/retransmit cycle (that is what p99.9 is here to show).
  fault::FaultInjector inj(tb.sim);
  inj.register_adaptor("cab_a", *tb.cab_a);
  inj.register_adaptor("cab_b", *tb.cab_b);
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.target = "cab_a";
  s.kind = fault::FaultKind::kFirmwareStall;
  s.at = sim::msec(2);
  s.duration = sim::msec(20);
  plan.add(s);
  inj.arm(plan);

  apps::TtcpConfig cfg;
  cfg.total_bytes = total;
  cfg.write_size = 32 * 1024;
  cfg.verify_data = true;
  const auto r = apps::run_ttcp(tb, cfg);
  tb.tel->stop_ticker();
  tb.sim.run();

  *ok = *ok && r.completed && r.data_errors == 0;
  core::Json cell = telemetry_cell(*tb.tel);
  cell.set("scenario", "firmware_stall_20ms");
  cell.set("completed", r.completed);
  cell.set("throughput_mbps", r.throughput_mbps);
  cell.set("rexmt", r.sender_tcp.rexmt_segs + r.sender_tcp.rexmt_timeouts);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_latency.json"};
  bench::Flag trace{"--trace", "BENCH_latency_trace.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json, &trace});
  const bool quick = quick_flag.on;

  const std::size_t total = quick ? 1024 * 1024 : 8 * 1024 * 1024;
  const std::size_t flows = quick ? 32 : 256;
  const std::uint64_t bytes_per_flow = quick ? 64 * 1024 : 128 * 1024;
  bool all_ok = true;

  std::printf("Latency profile (%s): %zu KB single-flow, %zu flows\n",
              quick ? "quick" : "full", total / 1024, flows);

  core::Json out = core::Json::object();
  out.set("bench", "latency_profile");
  out.set("schema_version", 1);
  out.set("quick", quick);
  core::Json cells = core::Json::array();

  auto single = run_single_flow(total);
  all_ok = all_ok && single.r.completed;
  print_cell("single_flow", single.cell);
  cells.push_back(std::move(single.cell));

  {
    core::Json c = run_many_flows(flows, bytes_per_flow, &all_ok);
    print_cell(("flows_" + std::to_string(flows)).c_str(), c);
    cells.push_back(std::move(c));
  }
  {
    core::Json c = run_fault_recovery(total, &all_ok);
    print_cell("firmware_stall", c);
    cells.push_back(std::move(c));
  }
  out.set("scenarios", std::move(cells));

  // Same-seed determinism: identical workload, byte-identical exports.
  {
    auto rerun = run_single_flow(total);
    const bool same = rerun.metrics_dump == single.metrics_dump &&
                      rerun.trace_dump == single.trace_dump;
    std::printf("determinism (single_flow, two runs): %s\n",
                same ? "ok" : "MISMATCH");
    all_ok = all_ok && same;
    core::Json jd = core::Json::object();
    jd.set("identical", same);
    out.set("determinism", std::move(jd));
  }
  out.set("all_ok", all_ok);

  if (trace.on) {
    std::FILE* f = std::fopen(trace.path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", trace.path);
      return 1;
    }
    std::fputs(single.trace_dump.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", trace.path);
  }
  if (!bench::write_json(json, out)) return 1;
  return all_ok ? 0 : 1;
}
