#include "overload/ops_console.h"

#include <sstream>

#include "core/netstat.h"

namespace nectar::core {

namespace {

std::uint64_t delta(std::uint64_t now, std::uint64_t prev) {
  return now >= prev ? now - prev : 0;
}

// The table's state column: "ok", or "OVERLOAD" and each resource over its
// watermark.
std::string overload_state(const Json& netstat) {
  const Json* jo = netstat.find("overload");
  if (jo == nullptr || !jo->find("overloaded")->as_bool()) return "ok";
  std::string state = "OVERLOAD";
  for (const auto& jr : jo->find("resources")->items()) {
    if (jr.find("over")->as_bool()) {
      state += ' ' + jr.find("resource")->as_string();
    }
  }
  return state;
}

}  // namespace

Json moved_fields(const Json& prev, const Json& now) {
  Json out = Json::object();
  for_each_scalar(now, &prev, [&out](const std::string& path, const Json& v,
                                     const Json* p) {
    if (v.type() == Json::Type::kInt) {
      const std::int64_t d = v.as_int() - (p != nullptr ? p->as_int() : 0);
      if (d != 0) out.set(path, d);
    } else if (v.type() == Json::Type::kDouble) {
      const double d = v.as_double() - (p != nullptr ? p->as_double() : 0.0);
      if (d != 0.0) out.set(path, d);
    } else if (p == nullptr || p->dump() != v.dump()) {
      out.set(path, v);
    }
  });
  return out;
}

OpsConsole::OpsConsole(sim::Simulator& sim, OpsConsoleOptions opts)
    : sim_(sim), opts_(opts) {}

OpsConsole::~OpsConsole() { stop(); }

void OpsConsole::watch(Host& h) {
  Watched w;
  w.host = &h;
  watched_.push_back(std::move(w));
}

void OpsConsole::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void OpsConsole::stop() {
  running_ = false;
  if (timer_.armed()) timer_.cancel();
}

void OpsConsole::arm() {
  timer_ = sim_.timer_after(opts_.period, [this] {
    tick();
    if (running_) arm();
  });
}

Json OpsConsole::host_record(Watched& w) {
  Host& h = *w.host;
  Json rec = Json::object();
  rec.set("host", h.name());

  // Per-class goodput: live connections grouped by arbitration weight.
  std::map<std::uint32_t, ClassCounters> now;
  for (const auto& [key, tp] : h.stack().tcp_connections()) {
    ClassCounters& c = now[tp->params().arb_weight];
    c.segs_out += tp->stats().segs_out;
    c.bytes_out += tp->stats().bytes_out;
    c.bytes_in += tp->stats().bytes_in;
    ++c.conns;
  }
  Json classes = Json::array();
  for (const auto& [weight, c] : now) {
    const ClassCounters prev = w.prev_classes.count(weight) != 0
                                   ? w.prev_classes[weight]
                                   : ClassCounters{};
    Json jc = Json::object();
    jc.set("weight", static_cast<std::int64_t>(weight));
    jc.set("conns", static_cast<std::int64_t>(c.conns));
    jc.set("segs_out", static_cast<std::int64_t>(delta(c.segs_out, prev.segs_out)));
    jc.set("bytes_out",
           static_cast<std::int64_t>(delta(c.bytes_out, prev.bytes_out)));
    jc.set("bytes_in", static_cast<std::int64_t>(delta(c.bytes_in, prev.bytes_in)));
    classes.push_back(std::move(jc));
  }
  w.prev_classes = std::move(now);
  rec.set("classes", std::move(classes));

  // Netstat's counters, gauges and states, as their changes since the last
  // tick. The poll refreshes watermark occupancies even if no hook fired.
  if (auto* ovl = h.overload()) ovl->poll();
  const Json doc = Netstat(h).json();
  Json netstat = Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "tcp") netstat.set(key, value);
  }
  rec.set("netstat", moved_fields(w.prev_netstat, netstat));
  w.prev_netstat = std::move(netstat);
  return rec;
}

void OpsConsole::tick() {
  ++ticks_;
  // Text table: one row per (host, class) plus a status column.
  std::ostringstream os;
  os << "ops console @ " << sim::to_usec(sim_.now()) << " us (tick " << ticks_
     << ")\n";
  os << "  host           cls conns  segs_out   bytes_out  state\n";
  Json hosts = Json::array();
  for (auto& w : watched_) {
    Json rec = host_record(w);
    std::string name = w.host->name();
    if (name.size() < 15) name.resize(15, ' ');
    const std::string state = overload_state(w.prev_netstat);
    for (const auto& jc : rec.find("classes")->items()) {
      os << "  " << name << jc.find("weight")->as_int() << "   "
         << jc.find("conns")->as_int() << "   " << jc.find("segs_out")->as_int()
         << "   " << jc.find("bytes_out")->as_int() << "  " << state << "\n";
    }
    if (rec.find("classes")->items().empty()) {
      os << "  " << name << "-   -   -   -  " << state << "\n";
    }
    hosts.push_back(std::move(rec));
  }
  Json record = Json::object();
  record.set("tick", static_cast<std::int64_t>(ticks_));
  record.set("t_us", sim::to_usec(sim_.now()));
  record.set("hosts", std::move(hosts));
  lines_.push_back(record.dump(0));
  last_table_ = os.str();
}

}  // namespace nectar::core
