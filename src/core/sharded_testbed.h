// ShardedTestbed: the MultiTestbed topology — P client/server host pairs on
// one HIPPI switch with the standard impairment chain — rebuilt on the
// parallel ParallelEngine so host stacks execute concurrently.
//
// Shard assignment:
//   shard 0        — the fabric: switch + impairment chain (all shared wire
//                    state lives here, so impairment RNG draws happen in one
//                    deterministic arrival order)
//   shard 1 + 2i   — client i        shard 2 + 2i — server i
//
// Every host talks to the fabric through a ShardUplink/ShardDownlink proxy
// pair that posts frames across the shard boundary with `wire_hop` of
// propagation per crossing; wire_hop doubles as the engine lookahead (the
// HIPPI link delay is the epoch boundary). A host-to-host frame therefore
// costs hop + switch + hop, where MultiTestbed's single-simulator switch
// costs its one propagation — a longer wire, not a different protocol.
//
// Determinism: the same options (seed included) produce bit-identical
// Netstat and engine JSON at any worker count; tests/test_parallel.cc
// enforces this against the 1-worker oracle.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/testbed_core.h"
#include "hippi/shard_link.h"
#include "hippi/switch.h"
#include "sim/parallel_engine.h"

namespace nectar::core {

struct ShardedTestbedOptions : ImpairmentSpec {
  std::size_t num_pairs = 4;   // client/server host pairs on the switch
  std::size_t workers = 1;     // worker threads for the engine
  std::uint64_t seed = 1;      // roots the per-shard RNG streams
  // Host-to-switch propagation per crossing; also the engine lookahead.
  sim::Duration wire_hop = sim::usec(1.0);
  HostParams params = HostParams::alpha3000_400();
  cab::ArbPolicy arb = cab::ArbPolicy::kFifo;
};

class ShardedTestbed : public ImpairmentChain, public PairPlan {
 public:
  explicit ShardedTestbed(ShardedTestbedOptions opts = {});

  static constexpr std::size_t kFabricShard = 0;
  [[nodiscard]] static std::size_t client_shard(std::size_t i) noexcept {
    return 1 + 2 * i;
  }
  [[nodiscard]] static std::size_t server_shard(std::size_t i) noexcept {
    return 2 + 2 * i;
  }

  sim::ParallelEngine engine;
  ShardedTestbedOptions opts;

  std::unique_ptr<hippi::Switch> sw;

  // uplinks[2i] serves client i, uplinks[2i + 1] server i.
  std::vector<std::unique_ptr<hippi::ShardUplink>> uplinks;

  std::vector<std::unique_ptr<Host>> clients;
  std::vector<std::unique_ptr<Host>> servers;

  // Drive the engine until `done` (evaluated between epochs, where every
  // shard is quiescent) or `deadline` on the global clock. Returns done().
  bool run_until_done(const std::function<bool()>& done, sim::Time deadline);
  // Let in-flight work settle for `d` of simulated time.
  void quiesce(sim::Duration d) { engine.run(engine.now() + d); }
};

}  // namespace nectar::core
