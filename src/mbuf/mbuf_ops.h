// Chain operations over mbufs (the m_* family).
//
// Sharing semantics match BSD: m_copym of cluster-backed data shares the
// cluster (refcount via shared_ptr); of M_WCAB data shares the outboard
// buffer (refcount via OutboardOwner); of inline data copies bytes; of M_UIO
// data copies the descriptor (the user pages themselves are not refcounted —
// copy semantics guarantee they stay stable until the write returns).
#pragma once

#include <span>

#include "mbuf/mbuf.h"

namespace nectar::mbuf {

// Total bytes in the record starting at m (following `next`).
[[nodiscard]] int m_length(const Mbuf* m) noexcept;

// Copy [off, off+len) of the record into a new chain. The result has a
// pkthdr iff `m` does and off == 0 (BSD M_COPYALL-style behaviour is len
// covering the rest of the chain).
[[nodiscard]] Mbuf* m_copym(Mbuf* m, int off, int len);

// Copy bytes out of a record into contiguous memory. Descriptor mbufs in the
// range throw (their bytes are not host-resident).
void m_copydata(const Mbuf* m, int off, int len, std::span<std::byte> out);

// Trim `req_len` bytes: positive from the front of the record, negative from
// the back. Adjusts pkthdr.len when present.
void m_adj(Mbuf* m, int req_len);

// Ensure the first `len` bytes of the record are contiguous in the first
// mbuf. Returns the (possibly new) head; throws if len > record length or
// len > kMHLen, or if the leading bytes live in a descriptor mbuf.
[[nodiscard]] Mbuf* m_pullup(Mbuf* m, int len);

// Append record b to record a (no pkthdr surgery; caller fixes lengths).
void m_cat(Mbuf* a, Mbuf* b) noexcept;

// Prepend `len` bytes of space to a record, reusing leading space in the
// first mbuf when possible, else allocating a new one. Returns the new head.
// The pkthdr (if any) migrates to the new head, and pkthdr.len is updated.
[[nodiscard]] Mbuf* m_prepend(Mbuf* m, int len);

// Internet checksum (partial ones-complement sum, big-endian convention)
// over [off, off+len) of a record. Throws on descriptor mbufs: outboard /
// user-resident data must be checksummed by the device, never by the host —
// the invariant at the core of the paper.
[[nodiscard]] std::uint32_t in_cksum_range(const Mbuf* m, int off, int len);

// Number of mbufs in the record.
[[nodiscard]] int m_count(const Mbuf* m) noexcept;

// The one completion rule for M_UIO data (§4.4.2): whoever consumes the user
// bytes (a driver at end-of-DMA, or the §5 copy into kernel mbufs) or drops
// them calls this once per record. It completes each M_UIO mbuf's DmaSync by
// its length, so the writer wakes and unpins whether or not the data left.
void m_uio_done(const Mbuf* m);

}  // namespace nectar::mbuf
