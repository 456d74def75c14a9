// Measurement helpers implementing the paper's §7.1 methodology.
//
// utilization = (ttcp_user + ttcp_sys + util_sys) / elapsed, where in the
// simulation util_sys is exactly the interrupt-context time (util soaks all
// remaining cycles, so any kernel time charged to it is communication work
// done in interrupt context on ttcp's behalf). Efficiency is the Mbit/s the
// host could sustain at 100% CPU: throughput / utilization.
#pragma once

#include <vector>

#include "core/host.h"

namespace nectar::core {

// Snapshot of one host's CPU accounts at a point in simulated time.
struct CpuSnapshot {
  sim::Time when = 0;
  std::vector<sim::Duration> busy;  // indexed by AccountId

  static CpuSnapshot take(Host& h);
};

struct UtilizationReport {
  double utilization = 0.0;       // of the measured process + interrupts
  sim::Duration busy = 0;         // the numerator
  sim::Duration elapsed = 0;
  double throughput_mbps = 0.0;   // filled by the caller
  [[nodiscard]] double efficiency_mbps() const {
    return utilization > 0.0 ? throughput_mbps / utilization : 0.0;
  }
};

// Utilization of `proc` (+ interrupts) between two snapshots of `h`.
UtilizationReport utilization_between(Host& h, const Host::Process& proc,
                                      const CpuSnapshot& t0, const CpuSnapshot& t1);

}  // namespace nectar::core
