// RFC 1071 Internet (ones-complement) checksum.
//
// Both the software stack and the simulated CAB checksum engines (SDMA
// transmit engine, MDMA receive engine) use this module, so "hardware" and
// "software" checksums are bit-identical — exactly the property the paper's
// outboard-checksum design relies on.
//
// Conventions:
//  * A *partial sum* is a std::uint32_t accumulator of big-endian 16-bit
//    words; it is never folded until asked. Partial sums over adjacent
//    byte ranges combine with `combine` (odd-length first ranges handled
//    per RFC 1071 by byte-swapping the following sum).
//  * `finish` folds and complements, producing the 16-bit value stored in a
//    header with wire::store_be16.
//  * A received segment verifies iff finish(sum over segment incl. the
//    transmitted checksum + pseudo-header) == 0.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace nectar::checksum {

// Reference implementation: byte pairs, big-endian, no tricks. Used by tests
// as the oracle for the optimized path.
std::uint32_t ones_sum_ref(std::span<const std::byte> data,
                           std::uint32_t seed = 0) noexcept;

// Optimized implementation. Dispatches once, at first use, to the widest
// kernel (AVX2 > SSE2 > 64-bit scalar) that the CPU supports *and* that
// passed a bit-exactness self-check against ones_sum_ref; see checksum/simd.h
// for introspection and per-implementation access. Works at any alignment
// (odd pointers take the same fast path). Folds to the same value as
// ones_sum_ref for every input.
std::uint32_t ones_sum(std::span<const std::byte> data,
                       std::uint32_t seed = 0) noexcept;

// Fold a partial sum to 16 bits (without complementing).
constexpr std::uint16_t fold(std::uint32_t sum) noexcept {
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

// Fold and complement: the value placed in the packet header. The Internet
// checksum of a non-empty TCP/UDP segment can never be 0x0000 (a
// ones-complement sum only folds to 0xffff if all summed words are zero, and
// the pseudo-header addresses are non-zero — the paper's §4.3 argument), so
// no special 0 -> 0xffff substitution is performed for UDP.
constexpr std::uint16_t finish(std::uint32_t sum) noexcept {
  return static_cast<std::uint16_t>(~fold(sum));
}

// Swap the bytes of a folded/partial sum; needed when combining a sum whose
// data began at an odd offset in the enclosing range (RFC 1071 §2(B)).
constexpr std::uint32_t byteswap_sum(std::uint32_t sum) noexcept {
  const std::uint16_t f = fold(sum);
  return static_cast<std::uint32_t>(((f & 0xff) << 8) | (f >> 8));
}

// Combine: partial sum of A followed by B, where A covered `a_len` bytes.
constexpr std::uint32_t combine(std::uint32_t a, std::uint32_t b,
                                std::size_t a_len) noexcept {
  return a + ((a_len % 2 != 0) ? byteswap_sum(b) : b);
}

// Slice sums of a large-segment staging (§4.3): the partial sum of every
// consecutive `stride`-byte slice of the stream that `pieces` form in order
// (the last slice may be short; stride 0 makes the whole stream one slice),
// and the sum of the whole stream combined from the slices. `sum` gives the
// partial sum of one contiguous range: the CAB's summation unit, or
// ones_sum for the driver's software fallback.
struct SliceSums {
  std::uint32_t body = 0;
  std::vector<std::uint32_t> slices;
};

template <typename Sum>
SliceSums slice_sums(std::span<const std::span<const std::byte>> pieces,
                     std::size_t stride, Sum&& sum) {
  SliceSums out;
  std::size_t off = 0;  // stream offset of the open slice
  std::uint32_t cur = 0;
  std::size_t cur_len = 0;
  auto close = [&] {
    out.body = combine(out.body, cur, off);
    out.slices.push_back(cur);
    off += cur_len;
    cur = 0;
    cur_len = 0;
  };
  for (std::span<const std::byte> p : pieces) {
    while (!p.empty()) {
      const std::size_t n = stride == 0 ? p.size() : std::min(p.size(), stride - cur_len);
      cur = combine(cur, sum(p.first(n)), cur_len);
      cur_len += n;
      p = p.subspan(n);
      if (cur_len == stride) close();
    }
  }
  if (cur_len > 0) close();
  return out;
}

// TCP/UDP pseudo-header (RFC 793 / RFC 768) partial sum.
struct PseudoHeader {
  std::uint32_t src = 0;   // IPv4 source, host-order value of the BE word
  std::uint32_t dst = 0;   // IPv4 destination
  std::uint8_t proto = 0;  // IPPROTO_TCP / IPPROTO_UDP
  std::uint16_t length = 0;  // transport segment length (header + data)
};
std::uint32_t pseudo_sum(const PseudoHeader& ph) noexcept;

// RFC 1624 incremental update: new checksum after a 16-bit field at an even
// offset changes from old_word to new_word. `old_csum` and the result are
// finished (complemented) checksums.
constexpr std::uint16_t adjust(std::uint16_t old_csum, std::uint16_t old_word,
                               std::uint16_t new_word) noexcept {
  // HC' = ~(~HC + ~m + m')   (RFC 1624 eq. 3)
  std::uint32_t sum = static_cast<std::uint16_t>(~old_csum);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  return static_cast<std::uint16_t>(~fold(sum));
}

}  // namespace nectar::checksum
