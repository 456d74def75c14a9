// MultiTestbed: the many-flow experiment topology — P client/server host
// pairs on one HIPPI switch, with the same impairment chain Testbed builds.
//
//   client 0 (10.1.0.1) --CAB--+                 +--CAB-- server 0 (10.2.0.1)
//   client 1 (10.1.0.2) --CAB--+--[switch+imps]--+--CAB-- server 1 (10.2.0.2)
//   ...                        +                 +        ...
//
// Flows are multiplexed across the pairs (flow i talks over pair i mod P),
// so "1024 flows" does not mean 1024 hosts: many connections share each
// host's one CAB — its network memory, its SDMA engine, its MDMA
// transmitter — which is exactly the contention this topology exists to
// create. Host count stays small (each CAB carries 4 MB of simulated
// outboard memory).
#pragma once

#include <memory>
#include <vector>

#include "core/testbed_core.h"
#include "hippi/switch.h"

namespace nectar::core {

struct MultiTestbedOptions : ImpairmentSpec, TelemetrySpec {
  std::size_t num_pairs = 4;  // client/server host pairs on the switch
  HostParams params = HostParams::alpha3000_400();
  // DMA service discipline for every CAB (overrides params.cab.*.arb).
  cab::ArbPolicy arb = cab::ArbPolicy::kFifo;
  // Overload-survival subsystem (admission control + ECN backpressure): one
  // OverloadManager per host — pressure on one host must not mark or defer
  // another host's traffic.
  bool overload = false;
  overload::OverloadConfig overload_cfg = {};
};

class MultiTestbed : public FlatSim, public ImpairmentChain, public PairPlan {
 public:
  explicit MultiTestbed(MultiTestbedOptions opts = {});

  MultiTestbedOptions opts;

  std::unique_ptr<hippi::Switch> sw;
  std::unique_ptr<telemetry::Telemetry> tel;  // when opts.telemetry
  // Per-host overload managers (when opts.overload): clients then servers,
  // same order as the host vectors.
  std::vector<std::unique_ptr<overload::OverloadManager>> overload_mgrs;

  std::vector<std::unique_ptr<Host>> clients;
  std::vector<std::unique_ptr<Host>> servers;
};

}  // namespace nectar::core
