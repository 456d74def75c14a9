// Runtime-dispatched ones_sum implementations.
//
// ones_sum() (internet_checksum.h) picks the widest kernel the CPU supports,
// once, at first use — after verifying the candidate bit-exact against
// ones_sum_ref on a self-check corpus, so a miscompiled or misdetected kernel
// can never corrupt a checksum (it silently drops to the next-narrower one).
// This header exposes the individual kernels for the property tests
// (tests/test_checksum.cc) that check every kernel against the reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace nectar::checksum {

enum class SumImpl : std::uint8_t {
  kReference,  // byte-pair oracle (ones_sum_ref)
  kScalar64,   // 64-bit word accumulation with end-around carry
  kSse2,       // 16 B/iteration, 16->32-bit widening adds
  kAvx2,       // 32 B/iteration, 16->32-bit widening adds
};

[[nodiscard]] const char* impl_name(SumImpl impl) noexcept;

// Implementations that passed the startup self-check on this CPU, narrowest
// first. Always contains kReference and kScalar64.
[[nodiscard]] std::span<const SumImpl> available_impls() noexcept;

// The kernel ones_sum() dispatches to.
[[nodiscard]] SumImpl active_impl() noexcept;

// Run one specific implementation. Falls back to kScalar64 when `impl` is
// not available on this CPU (so benches degrade rather than crash).
[[nodiscard]] std::uint32_t ones_sum_with(SumImpl impl,
                                          std::span<const std::byte> data,
                                          std::uint32_t seed = 0) noexcept;

}  // namespace nectar::checksum
