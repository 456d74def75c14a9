// Simulated time: signed 64-bit nanoseconds since simulation start.
//
// All latencies and bandwidth-derived transfer times in the library are
// expressed in these units. Helpers convert from the units the paper uses
// (microseconds for CPU costs, Mbit/s for throughput).
#pragma once

#include <cstdint>

namespace nectar::sim {

using Time = std::int64_t;      // absolute, ns since t=0
using Duration = std::int64_t;  // relative, ns

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;

// Fractional microseconds appear throughout the paper's cost tables
// (e.g. unpin = 48 + 3.9n us), so conversion takes a double.
constexpr Duration usec(double us) noexcept {
  return static_cast<Duration>(us * static_cast<double>(kMicrosecond));
}

constexpr Duration msec(double ms) noexcept {
  return static_cast<Duration>(ms * static_cast<double>(kMillisecond));
}

constexpr double to_seconds(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

constexpr double to_usec(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}

// Time to move `bytes` at `bytes_per_sec` (exact to the ns, rounds up so a
// nonzero transfer never takes zero time).
constexpr Duration transfer_time(std::int64_t bytes, double bytes_per_sec) noexcept {
  if (bytes <= 0 || bytes_per_sec <= 0.0) return 0;
  const double sec = static_cast<double>(bytes) / bytes_per_sec;
  const auto ns = static_cast<Duration>(sec * static_cast<double>(kSecond));
  return ns > 0 ? ns : 1;
}

// Throughput in Mbit/s for `bytes` moved in `elapsed`.
constexpr double throughput_mbps(std::int64_t bytes, Duration elapsed) noexcept {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / (to_seconds(elapsed) * 1e6);
}

}  // namespace nectar::sim
