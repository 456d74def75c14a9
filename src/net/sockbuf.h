// Socket buffer: the stream buffer shared between the socket layer and TCP.
//
// A TCP send buffer holds a mixed chain of regular and M_WCAB mbufs in stream
// order: single-copy writes are staged outboard before they are appended
// (the paper's UIO -> WCAB conversion "after the data has been copied
// outboard" happens in the socket layer's staging). Positions are tracked in
// *stream coordinates* (a monotonic 64-bit byte offset from connection
// start, base_pos() being the offset of the first byte currently buffered),
// so TCP addresses segments by absolute position, immune to concurrent front
// drops by ACKs.
//
// This is where the paper's "code that searches the transmit queue for a
// block of data at a specific offset" lives (§4.2): copy_range(), which
// m_copym's across mixed types.
#pragma once

#include <cstdint>

#include "mbuf/mbuf_ops.h"

namespace nectar::net {

class Sockbuf {
 public:
  explicit Sockbuf(std::size_t hiwat) : hiwat_(hiwat) {}
  Sockbuf(const Sockbuf&) = delete;
  Sockbuf& operator=(const Sockbuf&) = delete;
  ~Sockbuf();

  [[nodiscard]] std::size_t cc() const noexcept { return cc_; }      // bytes buffered
  [[nodiscard]] std::size_t space() const noexcept {
    return cc_ >= hiwat_ ? 0 : hiwat_ - cc_;
  }
  [[nodiscard]] bool empty() const noexcept { return cc_ == 0; }
  [[nodiscard]] mbuf::Mbuf* head() const noexcept { return head_; }
  [[nodiscard]] std::uint64_t base_pos() const noexcept { return base_pos_; }
  [[nodiscard]] std::uint64_t end_pos() const noexcept { return base_pos_ + cc_; }

  void set_hiwat(std::size_t hiwat) noexcept { hiwat_ = hiwat; }
  void set_pool(mbuf::MbufPool* pool) noexcept { pool_ = pool; }

  // Append a chain (takes ownership). Caller respects space().
  void append(mbuf::Mbuf* chain);

  // Drop `n` bytes from the front (ACK processing / delivery). Frees
  // fully-consumed mbufs (releasing outboard buffers via their owner).
  void drop(std::size_t n);

  // m_copym over the mixed chain: copy/share [pos, pos+len) in stream
  // coordinates. Descriptor mbufs are sliced/shared per mbuf_ops rules.
  [[nodiscard]] mbuf::Mbuf* copy_range(std::uint64_t pos, std::size_t len) const;

  // The mbuf type at stream position pos (head_ must cover pos).
  [[nodiscard]] mbuf::MbufType type_at(std::uint64_t pos) const;

  // Largest run length starting at `pos` (clamped to `maxlen`) whose mbufs
  // all share the same type — the packetization cut rule for the
  // non-coalescing single-copy path (§7.1).
  [[nodiscard]] std::size_t homogeneous_run(std::uint64_t pos, std::size_t maxlen) const;

  // Bytes remaining in the single mbuf containing `pos` (clamped to maxlen).
  // Retransmissions of M_WCAB data must not span outboard packet buffers —
  // each WCAB mbuf is one fully-formed CAB packet whose header the driver
  // rewrites in place (§4.3) — so segments are cut at mbuf boundaries there.
  [[nodiscard]] std::size_t mbuf_run(std::uint64_t pos, std::size_t maxlen) const;

 private:
  struct Cursor {
    mbuf::Mbuf* m;
    std::size_t off;  // offset within m
  };
  [[nodiscard]] Cursor seek(std::uint64_t pos) const;

  mbuf::MbufPool* pool_ = nullptr;  // set on first append
  mbuf::Mbuf* head_ = nullptr;
  mbuf::Mbuf* tail_ = nullptr;
  std::size_t cc_ = 0;
  std::size_t hiwat_;
  std::uint64_t base_pos_ = 0;
};

}  // namespace nectar::net
