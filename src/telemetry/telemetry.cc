#include "telemetry/telemetry.h"

#include <cinttypes>
#include <cstdio>

namespace nectar::telemetry {

int Telemetry::register_process(std::string name) {
  processes_.push_back(std::move(name));
  return static_cast<int>(processes_.size());
}

void Telemetry::span_begin(Stage s, int pid, std::uint64_t key,
                           std::uint32_t flow) {
  const auto k = std::make_pair(static_cast<std::uint8_t>(s), key);
  auto [it, inserted] = open_.try_emplace(k, OpenSpan{sim_.now(), pid, flow});
  if (!inserted) {
    // A retransmitted segment (same key) restarts its span: the span then
    // measures the latency of the copy that was actually delivered.
    ++re_begins_;
    it->second = OpenSpan{sim_.now(), pid, flow};
  }
  push_event('b', s, pid, flow, key);
}

std::optional<sim::Duration> Telemetry::span_end(Stage s, std::uint64_t key) {
  const auto k = std::make_pair(static_cast<std::uint8_t>(s), key);
  auto it = open_.find(k);
  if (it == open_.end()) {
    ++orphan_ends_;
    return std::nullopt;
  }
  const sim::Duration d = sim_.now() - it->second.start;
  push_event('e', s, it->second.pid, it->second.flow, key);
  stage_hist_[static_cast<std::size_t>(s)].record(
      static_cast<std::uint64_t>(d));
  ++completed_;
  open_.erase(it);
  return d;
}

void Telemetry::register_gauge(std::string name, int pid,
                               std::function<double()> fn) {
  gauges_.push_back(Gauge{std::move(name), pid, std::move(fn), {}});
}

void Telemetry::sample_gauges() {
  const sim::Time now = sim_.now();
  for (auto& g : gauges_) g.samples.emplace_back(now, g.fn());
}

void Telemetry::arm_ticker() {
  ticker_ = sim_.timer_after(ticker_period_, [this] {
    sample_gauges();
    if (ticker_on_) arm_ticker();
  });
}

void Telemetry::start_ticker(sim::Duration period) {
  stop_ticker();
  ticker_period_ = period;
  ticker_on_ = true;
  sample_gauges();
  arm_ticker();
}

void Telemetry::stop_ticker() {
  ticker_on_ = false;
  ticker_.cancel();
}

namespace {

// Trace timestamps are microseconds (the Chrome trace unit); sim time is
// integral ns, so this is exact to 1/1000 us and deterministic.
double to_trace_ts(sim::Time t) { return static_cast<double>(t) / 1000.0; }

std::string key_id(std::uint64_t key) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, key);
  return buf;
}

}  // namespace

core::Json Telemetry::chrome_trace_json() const {
  core::Json root = core::Json::object();
  root.set("schema_version", kSchemaVersion);
  core::Json events = core::Json::array();

  for (std::size_t i = 0; i < processes_.size(); ++i) {
    core::Json m = core::Json::object();
    m.set("ph", "M");
    m.set("name", "process_name");
    m.set("pid", static_cast<std::int64_t>(i + 1));
    m.set("tid", 0);
    m.set("ts", 0.0);
    core::Json args = core::Json::object();
    args.set("name", processes_[i]);
    m.set("args", std::move(args));
    events.push_back(std::move(m));
  }

  for (const auto& e : events_) {
    core::Json j = core::Json::object();
    j.set("ph", std::string(1, e.ph));
    j.set("cat", stage_name(e.stage));
    j.set("name", stage_name(e.stage));
    j.set("id", key_id(e.key));
    j.set("pid", e.pid);
    j.set("tid", static_cast<int>(e.stage) + 1);
    j.set("ts", to_trace_ts(e.ts));
    core::Json args = core::Json::object();
    args.set("flow", static_cast<std::int64_t>(e.flow));
    j.set("args", std::move(args));
    events.push_back(std::move(j));
  }

  for (const auto& g : gauges_) {
    for (const auto& [t, v] : g.samples) {
      core::Json j = core::Json::object();
      j.set("ph", "C");
      j.set("name", g.name);
      j.set("pid", g.pid);
      j.set("tid", 0);
      j.set("ts", to_trace_ts(t));
      core::Json args = core::Json::object();
      args.set("value", v);
      j.set("args", std::move(args));
      events.push_back(std::move(j));
    }
  }

  root.set("traceEvents", std::move(events));
  return root;
}

core::Json Telemetry::metrics_json() const {
  core::Json root = core::Json::object();
  root.set("schema_version", kSchemaVersion);
  root.set("now_ns", static_cast<std::int64_t>(sim_.now()));

  core::Json procs = core::Json::array();
  for (const auto& p : processes_) procs.push_back(p);
  root.set("processes", std::move(procs));

  core::Json spans = core::Json::object();
  spans.set("open", static_cast<std::uint64_t>(open_.size()));
  spans.set("completed", completed_);
  spans.set("orphan_ends", orphan_ends_);
  spans.set("re_begins", re_begins_);
  spans.set("dropped_events", dropped_events_);
  spans.set("trace_events", static_cast<std::uint64_t>(events_.size()));
  root.set("spans", std::move(spans));

  core::Json stages = core::Json::object();
  for (std::size_t i = 0; i < kStageCount; ++i)
    stages.set(stage_name(static_cast<Stage>(i)), stage_hist_[i].to_json());
  root.set("stages", std::move(stages));

  core::Json fm = core::Json::object();
  for (const auto& [name, m] : flow_metrics_) {
    core::Json e = core::Json::object();
    e.set("aggregate", m.aggregate.to_json());
    core::Json flows = core::Json::object();
    for (const auto& [flow, h] : m.per_flow)
      flows.set(std::to_string(flow), h.to_json());
    e.set("flows", std::move(flows));
    fm.set(name, std::move(e));
  }
  root.set("flow_metrics", std::move(fm));

  core::Json hs = core::Json::object();
  for (const auto& [name, h] : hists_) hs.set(name, h.to_json());
  root.set("histograms", std::move(hs));

  core::Json ts = core::Json::array();
  for (const auto& g : gauges_) {
    core::Json e = core::Json::object();
    e.set("name", g.name);
    e.set("pid", g.pid);
    core::Json times = core::Json::array();
    core::Json values = core::Json::array();
    for (const auto& [t, v] : g.samples) {
      times.push_back(static_cast<std::int64_t>(t));
      values.push_back(v);
    }
    e.set("t_ns", std::move(times));
    e.set("value", std::move(values));
    ts.push_back(std::move(e));
  }
  root.set("timeseries", std::move(ts));
  return root;
}

}  // namespace nectar::telemetry
