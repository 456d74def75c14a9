// The plumbing Testbed, MultiTestbed and ShardedTestbed share, declared once:
//
//  * ImpairmentSpec  the wire-impairment knobs, which every testbed's
//                    options struct inherits, and
//  * TelemetrySpec   the observability knobs of Testbed and MultiTestbed.
//  * ImpairmentChain owns the impairment layers stacked over a testbed's bare
//                    fabric (a direct wire or a switch), lists them, and
//                    hands out the outermost fabric.
//  * FlatSim         the one Simulator that Testbed and MultiTestbed run on,
//                    and their run loop. ShardedTestbed runs a
//                    ParallelEngine instead.
//  * PairPlan        the client/server pair plan of MultiTestbed and
//                    ShardedTestbed: addresses, CAB attach and routes, and
//                    the neighbor mesh.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/host.h"
#include "hippi/impairment.h"

namespace nectar::core {

struct ImpairmentSpec {
  double loss_rate = 0.0;       // packet loss on the HIPPI fabric
  std::uint64_t loss_seed = 42;
  double reorder_rate = 0.0;    // fraction of frames held back
  sim::Duration reorder_hold = sim::usec(50.0);
  std::uint64_t reorder_seed = 43;
  double corrupt_rate = 0.0;    // fraction of frames with one bit flipped
  std::uint64_t corrupt_seed = 44;
  double dup_rate = 0.0;        // fraction of frames duplicated
  std::uint64_t dup_seed = 45;
  double rate_limit_bps = 0.0;  // bytes/s bottleneck; 0 = unlimited
  std::size_t rate_limit_burst = 64 * 1024;
  // Blackhole windows [start, end) applied by a PartitionFabric.
  std::vector<std::pair<sim::Time, sim::Time>> partition_windows;
};

// Opt-in observability: create a telemetry::Telemetry registry, wire it
// through every host and the wire, and sample gauges every telemetry_tick.
// Testbed and MultiTestbed share one registry across their hosts.
// ShardedTestbed has none: a registry binds to one Simulator.
struct TelemetrySpec {
  bool telemetry = false;
  sim::Duration telemetry_tick = sim::usec(100.0);
};

// The layers stack in one inside-out order: corruption innermost (damage
// happens "on the wire", after loss/dup decisions), rate limiting outermost
// (the bottleneck serializes everything submitted to it). A layer refers to
// its simulator and inner fabric but never touches them on destruction, so
// a testbed may destroy those before its chain.
class ImpairmentChain {
 public:
  std::unique_ptr<hippi::CorruptFabric> corrupt;       // when corrupt_rate > 0
  std::unique_ptr<hippi::ReorderFabric> reorder;       // when reorder_rate > 0
  std::unique_ptr<hippi::DupFabric> dup;               // when dup_rate > 0
  std::unique_ptr<hippi::LossyFabric> lossy;           // when loss_rate > 0
  std::unique_ptr<hippi::PartitionFabric> partition;   // when windows given
  std::unique_ptr<hippi::RateLimitFabric> rate_limit;  // when rate_limit_bps > 0

  // The outermost fabric layer: where the hosts attach.
  [[nodiscard]] hippi::Fabric& fabric() noexcept { return *outer_; }

  // The active impairments, outermost first (for the JSON stats exporter).
  [[nodiscard]] std::vector<hippi::ImpairedFabric*> impairments() const;

 protected:
  // Stack the enabled layers over `bare`. `with_partition` creates the
  // PartitionFabric even with no windows, for runtime link flaps.
  void build_chain(sim::Simulator& sim, hippi::Fabric& bare,
                   const ImpairmentSpec& spec, bool with_partition = false);

  hippi::Fabric* outer_ = nullptr;

 private:
  std::vector<hippi::ImpairedFabric*> layers_;  // innermost first
};

struct FlatSim {
  sim::Simulator sim;

  // Drive the simulator until `done()` is true or `deadline` passes.
  // Returns whether `done()` fired.
  template <class Done>
  bool run_until_done(const Done& done, sim::Time deadline) {
    while (!done() && sim.now() < deadline) {
      if (!sim.step()) break;
      if (sim.now() > deadline) break;
    }
    return done();
  }
  // The same, for a flag that an event sets.
  bool run_until_done(const bool& done, sim::Time deadline) {
    return run_until_done([&done] { return done; }, deadline);
  }
};

// Client i is 10.1.x.y and server i is 10.2.x.y (x.y = i + 1); each routes
// the other side's /16 through its one CAB.
class PairPlan {
 public:
  [[nodiscard]] static net::IpAddr client_ip(std::size_t i) noexcept {
    return net::make_ip(10, 1, static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>((i & 0xff) + 1));
  }
  [[nodiscard]] static net::IpAddr server_ip(std::size_t i) noexcept {
    return net::make_ip(10, 2, static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>((i & 0xff) + 1));
  }

  std::vector<drivers::CabDriver*> cab_clients;
  std::vector<drivers::CabDriver*> cab_servers;

  [[nodiscard]] std::size_t num_pairs() const noexcept {
    return cab_clients.size();
  }

 protected:
  // `params` with every CAB DMA engine serving in `arb` order.
  [[nodiscard]] static HostParams pair_params(HostParams params,
                                              cab::ArbPolicy arb);
  // Attach pair i's CABs, the client's to `client_fabric` and the server's
  // to `server_fabric`, and route each side to the other.
  void attach_pair(std::size_t i, Host& client, hippi::Fabric& client_fabric,
                   Host& server, hippi::Fabric& server_fabric);
  // Full mesh of neighbor entries: flows are usually pairwise, but nothing
  // stops an experiment from crossing pairs.
  void add_neighbor_mesh();

 private:
  static constexpr hippi::Addr kHaClientBase = 0x200;
  static constexpr hippi::Addr kHaServerBase = 0x400;
};

}  // namespace nectar::core
