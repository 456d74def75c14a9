// Direct point-to-point HIPPI wire between two endpoints.
//
// Fault-injection wrappers (LossyFabric, ReorderFabric, CorruptFabric, ...)
// live in hippi/impairment.h; it is included here so existing users of
// link.h keep seeing LossyFabric/ReorderFabric.
#pragma once

#include <unordered_map>

#include "hippi/framing.h"
#include "hippi/impairment.h"
#include "sim/event_queue.h"
#include "telemetry/span_source.h"

namespace nectar::hippi {

class DirectWire final : public Fabric {
 public:
  DirectWire(sim::Simulator& sim, sim::Duration propagation = sim::usec(1.0))
      : sim_(sim), propagation_(propagation) {}

  void attach(Addr addr, Endpoint* ep) override { eps_[addr] = ep; }

  // The sender's MDMA engine already serialized the packet; a direct wire
  // only adds propagation. Unknown destinations are dropped (counted).
  void submit(Packet&& p) override;

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // Opt-in span tracing: link_transit spans (submit -> remote receive), one
  // per delivered frame.
  void set_telemetry(telemetry::Telemetry* tel, int pid) { spans_.attach(tel, pid); }

 private:
  sim::Simulator& sim_;
  sim::Duration propagation_;
  std::unordered_map<Addr, Endpoint*> eps_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  telemetry::SpanSource spans_;
};

}  // namespace nectar::hippi
