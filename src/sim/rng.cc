#include "sim/rng.h"

#include <cmath>
#include <cstring>

namespace nectar::sim {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

std::uint64_t derive_stream_seed(std::uint64_t global_seed,
                                 std::uint64_t stream_id) noexcept {
  // Two splitmix64 steps keyed by seed and stream id. splitmix64 is a
  // bijective mix of a Weyl-sequence counter, so distinct (seed, stream)
  // pairs land on distinct counters and the outputs decorrelate; deriving
  // stream 0 also never collides with using the global seed directly.
  std::uint64_t x = global_seed;
  std::uint64_t z = splitmix64(x);
  x = z ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_below(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

double Rng::exponential(double mean) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

void Rng::fill(std::span<std::byte> out) noexcept {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    const std::uint64_t v = next();
    std::memcpy(out.data() + i, &v, 8);
    i += 8;
  }
  if (i < out.size()) {
    const std::uint64_t v = next();
    std::memcpy(out.data() + i, &v, out.size() - i);
  }
}

}  // namespace nectar::sim
