// CAB network memory: the outboard packet buffer pool (§2.1, §2.2).
//
// "Packets must start on a page boundary in CAB memory, and all but the last
//  page must be full pages" — so a packet buffer is a run of CAB pages, and
// allocation is page-granular. Buffers are refcounted: TCP may hold an
// M_WCAB reference for retransmission while an MDMA transmit is in flight,
// and m_copym shares rather than copies.
//
// The memory also stores, per packet, the transmit *body checksum* the SDMA
// engine saved when the data first flowed outboard; a retransmission only
// transfers a fresh header and the engine combines its new seed with this
// saved sum (§4.3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "telemetry/span_source.h"

namespace nectar::cab {

using Handle = std::uint32_t;

class NetworkMemory {
 public:
  explicit NetworkMemory(std::size_t bytes, std::size_t page_size = 4096);

  // Allocate a packet buffer of `len` bytes (rounded up to whole pages,
  // contiguous). Returns nullopt when memory is exhausted (counted).
  std::optional<Handle> alloc(std::size_t len);

  void retain(Handle h);
  void release(Handle h);

  [[nodiscard]] std::span<std::byte> bytes(Handle h, std::size_t off, std::size_t len);
  [[nodiscard]] std::span<const std::byte> bytes(Handle h, std::size_t off,
                                                 std::size_t len) const;

  [[nodiscard]] std::size_t packet_len(Handle h) const;
  [[nodiscard]] int refcount(Handle h) const;

  void set_body_sum(Handle h, std::uint32_t sum);
  [[nodiscard]] std::optional<std::uint32_t> body_sum(Handle h) const;

  // Per-slice body sums for large-segment offload: the staging SDMA saves one
  // partial sum per `stride`-byte slice of the packet body (the last slice may
  // be short) so the MDMA fan-out — and header-only tail retransmissions — can
  // produce per-wire-segment checksums without re-reading the data, even while
  // the summation datapath is degraded.
  void set_seg_sums(Handle h, std::size_t base, std::size_t stride,
                    std::size_t len, std::vector<std::uint32_t> sums);
  // Sum of the exact slice [abs_off, abs_off+len) — nullopt unless it lands on
  // a saved slice boundary with a matching length.
  [[nodiscard]] std::optional<std::uint32_t> seg_slice_sum(Handle h,
                                                           std::size_t abs_off,
                                                           std::size_t len) const;
  // Combined sum of everything from abs_off (a slice boundary) to the end of
  // the saved region, with the correct odd-offset byte swaps.
  [[nodiscard]] std::optional<std::uint32_t> tail_sum(Handle h,
                                                      std::size_t abs_off) const;

  // --- fault injection -------------------------------------------------------

  // Forced exhaustion: every alloc fails (counted) until cleared, as if the
  // free-page accounting had wedged.
  void set_force_exhausted(bool f) noexcept { force_exhausted_ = f; }
  [[nodiscard]] bool force_exhausted() const noexcept { return force_exhausted_; }

  // Leak `npages` pages: they are marked used but belong to no packet, so
  // only reclaim_leaked() — the adaptor reset path — gets them back. Returns
  // how many pages were actually taken (free memory may run out first).
  std::size_t leak_pages(std::size_t npages);
  std::size_t reclaim_leaked();
  [[nodiscard]] std::size_t leaked_pages() const noexcept { return leaked_.size(); }

  [[nodiscard]] std::size_t page_size() const noexcept { return page_size_; }
  [[nodiscard]] std::size_t total_bytes() const noexcept { return store_.size(); }
  [[nodiscard]] std::size_t free_bytes() const noexcept { return free_pages_ * page_size_; }
  [[nodiscard]] std::size_t used_bytes() const noexcept {
    return store_.size() - free_bytes();
  }
  [[nodiscard]] std::size_t live_packets() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t alloc_failures() const noexcept { return alloc_failures_; }
  // Occupancy high-water marks: how close the flows came to exhausting the
  // outboard packet memory (pages, not the possibly-shorter packet lengths).
  [[nodiscard]] std::size_t max_used_bytes() const noexcept {
    return max_used_pages_ * page_size_;
  }
  [[nodiscard]] std::size_t max_live_packets() const noexcept { return max_live_; }

  // Opt-in span tracing: outboard residency (alloc -> last ref released) per
  // packet buffer. Handles recycle, so spans are keyed by an allocation
  // sequence number, not the handle.
  void set_telemetry(telemetry::Telemetry* tel, int pid) { spans_.attach(tel, pid); }

 private:
  struct SegSums {
    std::size_t base = 0;    // byte offset of the first slice
    std::size_t stride = 0;  // slice length (last slice may be shorter)
    std::size_t len = 0;     // total bytes covered
    std::vector<std::uint32_t> sums;
  };

  struct Slot {
    std::size_t first_page = 0;
    std::size_t npages = 0;
    std::size_t len = 0;
    int refs = 0;
    std::optional<std::uint32_t> body_sum;
    std::optional<SegSums> seg_sums;
    bool live = false;
    std::uint64_t span_key = 0;
  };

  const Slot& slot(Handle h) const;
  Slot& slot(Handle h);

  std::size_t page_size_;
  std::vector<std::byte> store_;
  std::vector<bool> page_used_;
  std::size_t free_pages_;
  std::vector<Slot> slots_;
  std::vector<Handle> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t alloc_failures_ = 0;
  std::size_t next_fit_ = 0;  // rotating first-fit cursor
  std::size_t max_used_pages_ = 0;
  std::size_t max_live_ = 0;
  telemetry::SpanSource spans_;
  bool force_exhausted_ = false;
  std::vector<std::size_t> leaked_;  // page indices held by the leak fault
};

}  // namespace nectar::cab
