// Descriptor structures carried by the paper's new mbuf types (§4.2, §4.3).
//
//  * CsumInfo        — "information about the checksum calculation is
//                       associated with the data descriptor for the packet":
//                       where the checksum field lives and how many leading
//                       words the outboard engine must skip (S).
//  * DmaSync         — the UIO-counter synchronization of §4.4.2: the socket
//                       layer increments it by the bytes of a write it hands
//                       the driver (or by one per copy-out issued on read),
//                       the driver decrements it at end-of-DMA, and the
//                       application wakes only when it drains. DMAs are
//                       uncancelable: an interrupted call still drains before
//                       the process may restart. M_UIO data has one
//                       completion rule: whoever consumes or drops it calls
//                       m_uio_done (mbuf_ops.h).
//  * UioWcabHdr      — the paper's `uiowCABhdr`, common to M_UIO and M_WCAB.
//  * Wcab            — the paper's `wCAB`: identifies a packet resident in
//                       CAB network memory and how much of the outboard data
//                       is valid.
//  * OutboardOwner   — how mbuf code releases/shares outboard buffers without
//                       depending on the CAB library (which layers above it).
#pragma once

#include <cstdint>

#include "mem/address_space.h"
#include "sim/task.h"

namespace nectar::mbuf {

// Transmit-side outboard checksum description (§4.3). The host computes a
// seed covering the transport header + pseudo-header, stores it at
// csum_offset, and the SDMA engine checksums everything after `skip_words`,
// combining with the seed it finds in the header.
struct CsumInfo {
  bool offload = false;
  std::uint16_t csum_offset = 0;  // byte offset of the 16-bit checksum field
  std::uint16_t skip_words = 0;   // S: leading 4-byte words the engine skips
  // Large-segment offload: when non-zero, the packet's transport payload is a
  // multi-MTU super-segment and the adaptor cuts it into wire segments of at
  // most this many payload bytes at MDMA time, fixing up length/sequence and
  // recomputing per-segment checksums from the saved slice sums.
  std::uint16_t tso_seg_payload = 0;
};

// §4.4.2 synchronization between driver DMA completion and the socket layer.
class DmaSync {
 public:
  explicit DmaSync(sim::Simulator& sim) : cond_(sim) {}

  void add(int n = 1) noexcept { outstanding_ += n; }

  void done(int n = 1) {
    outstanding_ -= n;
    if (outstanding_ <= 0) cond_.notify_all();
  }

  [[nodiscard]] int outstanding() const noexcept { return outstanding_; }

  // Await all outstanding DMA completions.
  sim::Task<void> drain() {
    while (outstanding_ > 0) co_await cond_.wait();
  }

 private:
  int outstanding_ = 0;
  sim::Condition cond_;
};

// Release / share interface for outboard packet buffers, implemented by the
// CAB device. Refcounted so TCP can hold M_WCAB data for retransmission while
// a copy is in flight.
class OutboardOwner {
 public:
  virtual ~OutboardOwner() = default;
  virtual void outboard_retain(std::uint32_t handle) = 0;
  virtual void outboard_release(std::uint32_t handle) = 0;
};

// The paper's wCAB structure.
struct Wcab {
  OutboardOwner* owner = nullptr;
  std::uint32_t handle = 0;     // packet identifier in network memory
  std::uint32_t data_off = 0;   // payload offset inside the outboard packet
  std::uint32_t valid = 0;      // bytes of outboard data valid so far
};

// The paper's uiowCABhdr: the notification hook for the task that issued the
// read or write. (The paper's checksum information rides in the packet
// header's csum_tx instead; see PktHdr.)
struct UioWcabHdr {
  DmaSync* sync = nullptr;
};

}  // namespace nectar::mbuf
