// OpsConsole: a live operations view of hosts under overload.
//
// Watches any number of Hosts and, on a periodic simulated-time tick, emits
// one record per tick with per-host changes since the previous tick:
//   * per-class goodput: live TCP connections grouped by arbitration
//     weight, a grouping Netstat does not have;
//   * every Netstat field that moved (moved_fields), by path. Netstat's
//     per-connection `tcp` array is left out: its rows come and go with
//     connections, and the class rows already cover them.
// Each tick first polls the host's OverloadManager, if it has one, so the
// watermark state is fresh even when no decision hook fired, then reads
// Netstat. The first record reports totals since t = 0.
//
// Each record is captured twice: as a compact JSON line (machine tail -f)
// and as a human-readable text table — the two formats an operator console
// actually needs.
//
// Connections that retire between ticks take their counters with them, so a
// per-class delta can appear negative; it is clamped to zero (the retired
// bytes were reported while the connection lived).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/host.h"
#include "core/json.h"

namespace nectar::core {

// The console's change rule: the scalar fields of `now` that differ from
// `prev`, as one object keyed by path in `now`'s document order. A number
// maps to its change (a field `prev` lacks counts as 0), a boolean or
// string to its new value. Fields only `prev` has are left out.
[[nodiscard]] Json moved_fields(const Json& prev, const Json& now);

struct OpsConsoleOptions {
  sim::Duration period = sim::msec(10.0);
};

class OpsConsole {
 public:
  OpsConsole(sim::Simulator& sim, OpsConsoleOptions opts = {});
  ~OpsConsole();
  OpsConsole(const OpsConsole&) = delete;
  OpsConsole& operator=(const OpsConsole&) = delete;

  // Register a host to report on. Call before start().
  void watch(Host& h);

  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  // One compact JSON document per elapsed tick, in tick order.
  [[nodiscard]] const std::vector<std::string>& json_lines() const noexcept {
    return lines_;
  }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  // The most recent tick rendered as a text table (empty before any tick).
  [[nodiscard]] const std::string& last_table() const noexcept {
    return last_table_;
  }

 private:
  struct ClassCounters {
    std::uint64_t segs_out = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t conns = 0;  // live connections in the class (not a delta)
  };
  struct Watched {
    Host* host = nullptr;
    std::map<std::uint32_t, ClassCounters> prev_classes;  // by arb weight
    Json prev_netstat = Json::object();  // without `tcp`
  };

  void arm();
  void tick();
  Json host_record(Watched& w);

  sim::Simulator& sim_;
  OpsConsoleOptions opts_;
  std::vector<Watched> watched_;
  std::vector<std::string> lines_;
  std::string last_table_;
  std::uint64_t ticks_ = 0;
  bool running_ = false;
  sim::TimerHandle timer_;
};

}  // namespace nectar::core
