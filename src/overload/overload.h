// OverloadManager: stack-level resource policy for behaviour past saturation.
//
// The paper's outboard-buffering design has hard occupancy limits — one
// NetworkMemory, one SDMA command queue, one media transmitter — so at 10x
// offered load the interesting question is not throughput but survival:
// shed load at the source (admission control + ECN backpressure) instead of
// as drops deep in the datapath, and keep the degradation fair across
// classes (weighted arbitration).
//
// The manager is pure policy, deliberately isolated from the datapath (the
// Joyride split): the stack consults it through three null-guarded hooks —
//   admit_syn()          NetStack::transport_input, before the listen lookup
//   admit_single_copy()  Socket::send, before staging an outboard descriptor
//   mark_ecn()           Ip::output, as each departing packet is built
// and each hook lazily re-polls registered resource samplers. Watermarks
// have hysteresis (trip at `high`, clear at `low`) so occupancy noise near
// the threshold cannot flap admission state per-packet.
//
// Everything is deterministic: decisions depend only on sampled occupancy,
// which depends only on simulation state. No wall clock, no randomness.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace nectar::overload {

// The three resources the paper's design can exhaust.
enum class Resource : std::size_t {
  kArbQueue = 0,  // CAB DMA command-queue depth
  kNetMem = 1,    // NetworkMemory occupancy
  kMbufPool = 2,  // host mbuf-pool pressure
};
inline constexpr std::size_t kNumResources = 3;

[[nodiscard]] constexpr const char* resource_name(Resource r) noexcept {
  switch (r) {
    case Resource::kArbQueue: return "arb_queue";
    case Resource::kNetMem: return "network_memory";
    case Resource::kMbufPool: return "mbuf_pool";
  }
  return "?";
}

// Occupancy fractions of capacity: trip overload at >= high, clear at <= low.
struct Watermark {
  double high = 0.85;
  double low = 0.70;
};

// Per-resource watermarks, indexed by Resource.
inline constexpr std::array<Watermark, kNumResources> kWatermarks{{
    {0.75, 0.50},  // DMA queues are shallow (depth 64): trip early
    {0.85, 0.70},  // outboard memory
    {0.90, 0.75},  // pool is elastic; pressure is vs mbuf_cap
}};

struct OverloadConfig {
  // Soft capacity for the (elastic) mbuf pool: in_use/mbuf_cap is the
  // pressure fraction the mbuf watermark is measured against.
  std::uint64_t mbuf_cap = 16384;
  bool admission = true;  // gate SYNs and outboard descriptors
  bool ecn = true;        // CE-mark departing packets while overloaded
};

class OverloadManager {
 public:
  explicit OverloadManager(OverloadConfig cfg = {}) : cfg_(cfg) {}

  // A sampler returns (used, capacity) for one instance of a resource (one
  // CAB's SDMA queue, one host's pool, ...). capacity == 0 means "not
  // meaningful right now" and the sample is skipped. A resource's occupancy
  // is the worst (highest) fraction over its samplers.
  using Sampler = std::function<std::pair<std::uint64_t, std::uint64_t>()>;
  void add_sampler(Resource r, Sampler s) {
    samplers_[static_cast<std::size_t>(r)].push_back(std::move(s));
  }

  // --- decision hooks (each re-polls the samplers) --------------------------

  // New-connection gate. false = defer: the caller drops the SYN and the
  // client's retransmission is the retry, so no state is committed.
  [[nodiscard]] bool admit_syn();

  // Outboard-descriptor gate. false = force the copy path: the sender's
  // sockbuf then fills and wsend blocks — sendbuf pushback.
  [[nodiscard]] bool admit_single_copy();

  // ECN mark decision for one departing packet.
  [[nodiscard]] bool mark_ecn();

  // --- state ----------------------------------------------------------------

  [[nodiscard]] bool overloaded() const noexcept {
    return over_[0] || over_[1] || over_[2];
  }
  [[nodiscard]] bool overloaded(Resource r) const noexcept {
    return over_[static_cast<std::size_t>(r)];
  }
  // Occupancy fraction of `r` as of the last poll.
  [[nodiscard]] double occupancy(Resource r) const noexcept {
    return occ_[static_cast<std::size_t>(r)];
  }
  // Force a sampler poll outside any decision hook (ops console, tests).
  void poll();

  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t syn_checks = 0;
    std::uint64_t syn_deferred = 0;
    std::uint64_t sc_checks = 0;   // single-copy descriptor gates
    std::uint64_t sc_deferred = 0;
    std::uint64_t mark_checks = 0;
    std::uint64_t ecn_marked = 0;
    // Watermark trips/recoveries per resource, indexed by Resource.
    std::array<std::uint64_t, kNumResources> enters{};
    std::array<std::uint64_t, kNumResources> exits{};
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const OverloadConfig& config() const noexcept { return cfg_; }
  // The watermark of resource `r` (indexed by Resource).
  [[nodiscard]] static const Watermark& watermark(std::size_t r) noexcept {
    return kWatermarks[r];
  }

 private:
  OverloadConfig cfg_;
  std::array<std::vector<Sampler>, kNumResources> samplers_;
  std::array<bool, kNumResources> over_{};
  std::array<double, kNumResources> occ_{};
  Stats stats_;
};

}  // namespace nectar::overload
