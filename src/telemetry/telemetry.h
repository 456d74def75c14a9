// Telemetry: the opt-in observability registry for a whole testbed.
//
// One instance serves every host plus the wire. It records three kinds of
// data, all deterministic for a given seed and workload:
//
//  * Spans — begin/end pairs keyed by (stage, 64-bit key) marking one
//    packet's residence in one datapath stage. Ends feed per-stage
//    LogHistograms; begin/end events accumulate in a bounded log exported as
//    Chrome trace-event JSON ("b"/"e" async events, loadable in Perfetto).
//  * Metrics — named LogHistograms, including per-flow series (record_flow
//    updates an aggregate and a per-flow histogram). Stack counters live in
//    core::Netstat, not here.
//  * Gauges — named closures sampled on a sim-time ticker into time series;
//    exported both as JSON arrays and as Chrome "C" counter tracks.
//
// Cost model: when telemetry is off there is no Telemetry object at all —
// every instrumentation site guards on a null pointer in HostEnv (or the
// engine), so the disabled cost is one predictable branch. When on, span
// ops are an O(log n) map touch plus an append; histogram records are O(1),
// and perfbench's trace.overhead reports what a telemetry-on run costs.
//
// Key discipline: span keys must be globally unique per live span within a
// stage. Producers with their own id counters (SDMA/MDMA requests, outboard
// allocations, wire frames) hold a SpanSource (telemetry/span_source.h),
// which prefixes their ids with a key namespace from alloc_key_namespace();
// ad-hoc spans take next_key(); TCP segments use telemetry::segment_key so
// sender and receiver derive the same key independently.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/json.h"
#include "sim/event_queue.h"
#include "telemetry/histogram.h"
#include "telemetry/stage.h"

namespace nectar::telemetry {

class Telemetry {
 public:
  // Bumped whenever the export layout changes; mirrored by every BENCH_*.json.
  static constexpr int kSchemaVersion = 1;

  explicit Telemetry(sim::Simulator& sim) : sim_(sim) {}
  ~Telemetry() { stop_ticker(); }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }

  // --- identity ------------------------------------------------------------
  // A "process" is one trace track group (a host, or the wire). Returns the
  // trace pid (1-based; 0 means unregistered).
  int register_process(std::string name);

  // Fresh span key for producers without a natural id.
  [[nodiscard]] std::uint64_t next_key() noexcept { return ++key_seq_; }
  // High-bits salt for producers with their own dense id counters: the
  // caller ORs its ids into the low 40 bits so two engines' id=7 requests
  // cannot collide in the open-span table.
  [[nodiscard]] std::uint64_t alloc_key_namespace() noexcept {
    return ++ns_seq_ << 40;
  }

  // --- spans ---------------------------------------------------------------
  void span_begin(Stage s, int pid, std::uint64_t key, std::uint32_t flow = 0);
  // Returns the span duration when `key` was open, nullopt on an orphan end
  // (no matching begin — counted, not fatal: impaired wires duplicate
  // segments and resets abort requests).
  std::optional<sim::Duration> span_end(Stage s, std::uint64_t key);

  [[nodiscard]] std::size_t open_spans() const noexcept { return open_.size(); }
  [[nodiscard]] std::uint64_t spans_completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t orphan_ends() const noexcept { return orphan_ends_; }
  [[nodiscard]] std::uint64_t re_begins() const noexcept { return re_begins_; }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return dropped_events_; }
  [[nodiscard]] const LogHistogram& stage_hist(Stage s) const noexcept {
    return stage_hist_[static_cast<std::size_t>(s)];
  }

  // --- metrics -------------------------------------------------------------
  [[nodiscard]] LogHistogram& histogram(const std::string& name) {
    return hists_[name];
  }
  // Aggregate + per-flow histogram update (RTT, one-way segment latency).
  void record_flow(const std::string& metric, std::uint32_t flow,
                   std::uint64_t value) {
    auto& m = flow_metrics_[metric];
    m.aggregate.record(value);
    m.per_flow[flow].record(value);
  }

  // --- gauges + ticker -----------------------------------------------------
  void register_gauge(std::string name, int pid, std::function<double()> fn);
  // Sample every gauge now and then every `period` of sim time. The ticker
  // is a self-rearming cancelable timer: call stop_ticker() before draining
  // the simulator to completion or it will keep the event queue alive.
  void start_ticker(sim::Duration period);
  void stop_ticker();

  // --- export --------------------------------------------------------------
  // Chrome trace-event JSON: {"schema_version", "traceEvents":[...]} with
  // "M" process_name metadata, "b"/"e" async span events (ts in us), and
  // "C" counter events per gauge sample.
  [[nodiscard]] core::Json chrome_trace_json() const;
  // Metrics document: per-stage span histograms, flow metrics, named
  // histograms, gauge time series, span bookkeeping.
  [[nodiscard]] core::Json metrics_json() const;

 private:
  struct TraceEvent {
    char ph;  // 'b' | 'e'
    Stage stage;
    int pid;
    std::uint32_t flow;
    std::uint64_t key;
    sim::Time ts;
  };
  struct OpenSpan {
    sim::Time start;
    int pid;
    std::uint32_t flow;
  };
  struct Gauge {
    std::string name;
    int pid;
    std::function<double()> fn;
    std::vector<std::pair<sim::Time, double>> samples;
  };
  struct FlowMetric {
    LogHistogram aggregate;
    std::map<std::uint32_t, LogHistogram> per_flow;
  };

  // Cap on retained trace events; excess increments dropped_events but
  // histograms keep recording.
  static constexpr std::size_t kMaxEvents = 1u << 20;

  void push_event(char ph, Stage s, int pid, std::uint32_t flow,
                  std::uint64_t key) {
    if (events_.size() >= kMaxEvents) {
      ++dropped_events_;
      return;
    }
    events_.push_back(TraceEvent{ph, s, pid, flow, key, sim_.now()});
  }
  void sample_gauges();
  void arm_ticker();

  sim::Simulator& sim_;
  std::vector<std::string> processes_;
  std::uint64_t key_seq_ = 0;
  std::uint64_t ns_seq_ = 0;

  std::map<std::pair<std::uint8_t, std::uint64_t>, OpenSpan> open_;
  LogHistogram stage_hist_[kStageCount];
  std::uint64_t completed_ = 0;
  std::uint64_t orphan_ends_ = 0;
  std::uint64_t re_begins_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::vector<TraceEvent> events_;

  std::map<std::string, LogHistogram> hists_;
  std::map<std::string, FlowMetric> flow_metrics_;

  std::vector<Gauge> gauges_;
  sim::Duration ticker_period_ = 0;
  bool ticker_on_ = false;
  sim::TimerHandle ticker_;
};

}  // namespace nectar::telemetry
