// The BSD mbuf framework, extended with the paper's M_UIO / M_WCAB types.
//
// Layout follows 4.3BSD-Net2 in spirit: small mbufs with inline storage,
// cluster mbufs referencing shared external pages, and records chained via
// `next`. Deviations, made for a clean C++ simulation and documented here so
// readers of the paper can map code to the original:
//
//  * External storage is a std::shared_ptr (BSD: hand-rolled refcounts); the
//    sharing semantics of m_copym are identical.
//  * M_UIO mbufs embed a mem::Uio (BSD: struct uio*) describing data still in
//    the *user's* address space; M_WCAB mbufs embed a Wcab describing data in
//    CAB network memory. Both carry the paper's uiowCABhdr. Neither has
//    host-readable bytes: data() is null and any attempt to read their
//    contents through the regular accessors throws — exactly the property
//    that forces all data-touching operations into the driver (§3).
//  * Allocation goes through an explicit MbufPool (per simulated host) so
//    tests can assert leak-freedom and benchmarks can count allocations.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mbuf/descriptor.h"

namespace nectar::net {
class Ifnet;  // pkthdr.rcvif tag; mbuf never dereferences it
}

namespace nectar::mbuf {

class MbufPool;

inline constexpr std::size_t kMSize = 256;     // total inline mbuf size budget
inline constexpr std::size_t kMLen = 224;      // usable bytes, plain mbuf
inline constexpr std::size_t kMHLen = 200;     // usable bytes after pkthdr
inline constexpr std::size_t kClBytes = 8192;  // cluster size

enum class MbufType : std::uint8_t {
  kData,  // inline or cluster storage holding real bytes
  kUio,   // descriptor: data still in a user address space (M_UIO)
  kWcab,  // descriptor: data in CAB network memory (M_WCAB)
};

enum MbufFlags : unsigned {
  kMPktHdr = 0x1,  // first mbuf of a record; pkthdr valid
  kMExt = 0x2,     // data lives in shared external storage
  kMEor = 0x4,     // end of record
};

// Shared external storage (cluster or arbitrary-size buffer).
struct ExtBuf {
  std::unique_ptr<std::byte[]> store;
  std::size_t size = 0;
};

// Per-record (packet) header.
//
// Deviation from the paper: transmit checksum info lives here rather than in
// the uiowCABhdr, because in this stack *every* packet out a single-copy
// interface can use the outboard checksum (including regular-mbuf packets
// from in-kernel applications), not just ones carrying descriptors.
struct PktHdr {
  int len = 0;                 // total record length
  net::Ifnet* rcvif = nullptr; // interface the record arrived on
  std::uint32_t flow = 0;      // transport flow id (0 = none); CAB DMA
                               // arbitration queues per flow

  // Transmit: outboard checksum request, honoured by single-copy drivers.
  // Offsets are relative to the start of the IP header; the driver adds the
  // link header.
  CsumInfo csum_tx;

  // Receive: outboard checksum (§4.3): ones-complement sum computed by the
  // CAB MDMA engine starting at its configured word offset (covers the
  // transport header + data).
  std::uint32_t rx_hw_sum = 0;
  bool rx_hw_sum_valid = false;
  // Receive coalescing: the driver verified every merged segment's hardware
  // checksum before building this record, so the transport skips its own
  // verification (a merged record has no single wire checksum to check).
  bool rx_csum_verified = false;
};

class Mbuf {
 public:
  Mbuf* next = nullptr;  // next mbuf in this record

  [[nodiscard]] MbufType type() const noexcept { return type_; }
  [[nodiscard]] unsigned flags() const noexcept { return flags_; }
  // ORs `f` into the flag word (it does not assign).
  void add_flags(unsigned f) noexcept { flags_ |= f; }
  void clear_flags(unsigned f) noexcept { flags_ &= ~f; }
  [[nodiscard]] bool has_pkthdr() const noexcept { return flags_ & kMPktHdr; }
  [[nodiscard]] bool is_descriptor() const noexcept {
    return type_ == MbufType::kUio || type_ == MbufType::kWcab;
  }

  // --- byte-bearing accessors (kData only) ---------------------------------

  [[nodiscard]] std::byte* data();
  [[nodiscard]] const std::byte* data() const;
  [[nodiscard]] std::span<std::byte> span() { return {data(), static_cast<std::size_t>(len_)}; }
  [[nodiscard]] std::span<const std::byte> span() const {
    return {data(), static_cast<std::size_t>(len_)};
  }

  [[nodiscard]] int len() const noexcept { return len_; }
  void set_len(int l) noexcept { len_ = l; }

  // Bytes of spare room before/after the data window (kData only).
  [[nodiscard]] std::size_t leading_space() const;
  [[nodiscard]] std::size_t trailing_space() const;

  // Move the data window (no byte motion): prepend grows at the front,
  // consuming leading space; trim_front/back shrink it.
  void prepend(std::size_t n);
  void trim_front(std::size_t n);
  void trim_back(std::size_t n);

  // Append bytes into trailing space.
  void append(std::span<const std::byte> bytes);

  // BSD MH_ALIGN: place an empty window of capacity for `len` bytes at the
  // very end of storage, maximizing leading space for later prepends.
  void align_end(std::size_t len);

  // --- descriptor accessors -------------------------------------------------

  [[nodiscard]] UioWcabHdr& uw_hdr();
  [[nodiscard]] const UioWcabHdr& uw_hdr() const;
  [[nodiscard]] mem::Uio& uio();              // kUio only
  [[nodiscard]] const mem::Uio& uio() const;
  [[nodiscard]] Wcab& wcab();                 // kWcab only
  [[nodiscard]] const Wcab& wcab() const;

  PktHdr pkthdr;  // valid iff kMPktHdr

  [[nodiscard]] MbufPool& pool() const noexcept { return *pool_; }
  [[nodiscard]] bool uses_cluster() const noexcept { return (flags_ & kMExt) != 0; }
  [[nodiscard]] const std::shared_ptr<ExtBuf>& ext() const noexcept { return ext_; }

 private:
  friend class MbufPool;
  Mbuf() = default;

  MbufPool* pool_ = nullptr;
  MbufType type_ = MbufType::kData;
  unsigned flags_ = 0;
  int len_ = 0;
  std::size_t off_ = 0;  // data window start within storage

  std::array<std::byte, kMLen> dat_;   // inline storage
  std::shared_ptr<ExtBuf> ext_;        // external storage if kMExt

  // Descriptor payloads (by type). A variant would be tidier but the explicit
  // members keep accessors cheap and the BSD mapping obvious.
  UioWcabHdr uw_;
  mem::Uio uio_;
  Wcab wcab_;
};

// Allocator with stats; one per simulated host.
//
// Recycling (PR 2): freed Mbuf nodes go on an intrusive free-list (linked
// through `next`) and freed kClBytes cluster buffers — once their last
// reference drops — are parked with their shared_ptr control block intact, so
// steady-state get/free of both mbufs and clusters touches no allocator.
// A reused node is fully reinitialized (flags, window, pkthdr, descriptor
// payloads) before it is handed out; recycled cluster *bytes* are NOT zeroed
// (fresh heap clusters are), matching what real mbuf clusters guarantee —
// nothing may read bytes it did not write.
class MbufPool {
 public:
  explicit MbufPool(sim::Simulator& sim) : sim_(sim) {}
  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;
  ~MbufPool();

  // m_get: plain data mbuf (inline storage).
  Mbuf* get();
  // m_gethdr: data mbuf with packet header.
  Mbuf* get_hdr();
  // m_getcl: data mbuf backed by a fresh cluster (with pkthdr if requested).
  Mbuf* get_cluster(bool pkthdr);
  // External storage of arbitrary size (used by auto-DMA buffers).
  Mbuf* get_ext(std::size_t size, bool pkthdr);

  // Share another mbuf's external storage (m_copym of cluster data): the new
  // mbuf's window is [src.window_start + off, +take).
  Mbuf* share_ext(const Mbuf& src, int off, int take);

  // New types from the paper.
  Mbuf* get_uio(mem::Uio u, std::size_t len, const UioWcabHdr& hdr, bool pkthdr);
  Mbuf* get_wcab(const Wcab& w, std::size_t len, const UioWcabHdr& hdr, bool pkthdr);

  // m_free: release one mbuf, returning its successor. Releases cluster
  // references and outboard buffers (via OutboardOwner) as needed.
  Mbuf* free_one(Mbuf* m);
  // m_freem: release a whole record chain.
  void free_chain(Mbuf* m);

  struct Stats {
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t cluster_allocs = 0;
    std::uint64_t uio_allocs = 0;
    std::uint64_t wcab_allocs = 0;
    // Recycling: allocations served from the free-lists (no heap traffic).
    std::uint64_t freelist_hits = 0;
    std::uint64_t cluster_freelist_hits = 0;
    // Peak concurrently-live mbufs — the slab size a fixed pool would need.
    std::int64_t high_water = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::int64_t in_use() const noexcept {
    return static_cast<std::int64_t>(stats_.allocs - stats_.frees);
  }
  // Nodes / cluster buffers currently parked on the free-lists.
  [[nodiscard]] std::size_t free_nodes() const noexcept { return free_node_count_; }
  [[nodiscard]] std::size_t free_clusters() const noexcept {
    return free_clusters_.size();
  }
  [[nodiscard]] sim::Simulator& sim() const noexcept { return sim_; }

 private:
  Mbuf* raw_alloc();
  std::shared_ptr<ExtBuf> alloc_cluster();

  sim::Simulator& sim_;
  Stats stats_;
  Mbuf* free_nodes_ = nullptr;  // intrusive, linked through Mbuf::next
  std::size_t free_node_count_ = 0;
  std::vector<std::shared_ptr<ExtBuf>> free_clusters_;
};

}  // namespace nectar::mbuf
