// Deterministic random numbers for workloads and traffic models.
//
// xoshiro256** seeded through splitmix64: small, fast, and identical across
// platforms (unlike std:: distributions, whose outputs are
// implementation-defined), so experiment output is reproducible bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace nectar::sim {

// Seed for an independent derived stream: a pure function of the global seed
// and a stable stream id (e.g. a shard id in the parallel engine), never of
// worker/thread identity — stream k draws the same sequence no matter how
// many threads run the simulation or in what order shards execute.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t global_seed,
                                               std::uint64_t stream_id) noexcept;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  // An Rng over the derived stream (global_seed, stream_id).
  [[nodiscard]] static Rng for_stream(std::uint64_t global_seed,
                                      std::uint64_t stream_id) noexcept {
    return Rng(derive_stream_seed(global_seed, stream_id));
  }

  std::uint64_t next() noexcept;

  // Uniform double in [0, 1).
  double uniform() noexcept;

  // Uniform integer in [0, n). n == 0 returns 0.
  std::uint64_t uniform_below(std::uint64_t n) noexcept;

  // Exponential with the given mean (> 0).
  double exponential(double mean) noexcept;

  // True with probability p.
  bool chance(double p) noexcept;

  // Fill a buffer with pseudo-random bytes (payload generation).
  void fill(std::span<std::byte> out) noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace nectar::sim
