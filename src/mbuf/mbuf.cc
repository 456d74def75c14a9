#include "mbuf/mbuf.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace nectar::mbuf {

namespace {
[[noreturn]] void bad_access(const char* what) {
  throw std::logic_error(std::string("mbuf: ") + what);
}
}  // namespace

std::byte* Mbuf::data() {
  if (type_ != MbufType::kData)
    bad_access("byte access on a descriptor mbuf (data is not host-resident)");
  if (flags_ & kMExt) return ext_->store.get() + off_;
  return dat_.data() + off_;
}

const std::byte* Mbuf::data() const {
  return const_cast<Mbuf*>(this)->data();
}

std::size_t Mbuf::leading_space() const {
  if (type_ != MbufType::kData) bad_access("leading_space on descriptor mbuf");
  return off_;
}

std::size_t Mbuf::trailing_space() const {
  if (type_ != MbufType::kData) bad_access("trailing_space on descriptor mbuf");
  const std::size_t cap = (flags_ & kMExt) ? ext_->size : dat_.size();
  return cap - off_ - static_cast<std::size_t>(len_);
}

void Mbuf::prepend(std::size_t n) {
  if (leading_space() < n) bad_access("prepend without leading space");
  off_ -= n;
  len_ += static_cast<int>(n);
}

void Mbuf::trim_front(std::size_t n) {
  if (static_cast<std::size_t>(len_) < n) bad_access("trim_front beyond length");
  if (type_ == MbufType::kData) off_ += n;
  else if (type_ == MbufType::kUio) uio_ = uio_.slice(n, uio_.total_len() - n);
  else wcab_.data_off += static_cast<std::uint32_t>(n);
  len_ -= static_cast<int>(n);
}

void Mbuf::trim_back(std::size_t n) {
  if (static_cast<std::size_t>(len_) < n) bad_access("trim_back beyond length");
  if (type_ == MbufType::kUio)
    uio_ = uio_.slice(0, uio_.total_len() - n);
  len_ -= static_cast<int>(n);
}

void Mbuf::append(std::span<const std::byte> bytes) {
  if (trailing_space() < bytes.size()) bad_access("append without trailing space");
  std::memcpy(data() + len_, bytes.data(), bytes.size());
  len_ += static_cast<int>(bytes.size());
}

void Mbuf::align_end(std::size_t len) {
  if (type_ != MbufType::kData) bad_access("align_end on descriptor mbuf");
  const std::size_t cap = (flags_ & kMExt) ? ext_->size : dat_.size();
  if (len > cap) bad_access("align_end beyond capacity");
  off_ = cap - len;
  len_ = 0;
}

UioWcabHdr& Mbuf::uw_hdr() {
  if (!is_descriptor()) bad_access("uw_hdr on regular mbuf");
  return uw_;
}
const UioWcabHdr& Mbuf::uw_hdr() const {
  return const_cast<Mbuf*>(this)->uw_hdr();
}

mem::Uio& Mbuf::uio() {
  if (type_ != MbufType::kUio) bad_access("uio() on non-UIO mbuf");
  return uio_;
}
const mem::Uio& Mbuf::uio() const { return const_cast<Mbuf*>(this)->uio(); }

Wcab& Mbuf::wcab() {
  if (type_ != MbufType::kWcab) bad_access("wcab() on non-WCAB mbuf");
  return wcab_;
}
const Wcab& Mbuf::wcab() const { return const_cast<Mbuf*>(this)->wcab(); }

MbufPool::~MbufPool() {
  while (free_nodes_ != nullptr) {
    Mbuf* n = free_nodes_->next;
    delete free_nodes_;
    free_nodes_ = n;
  }
}
// No leak assertion here: tearing a whole host down mid-simulation (tests,
// examples) legitimately abandons chains owned by still-suspended protocol
// coroutines, exactly as a kernel never returns its mbuf pool. Tests that
// drive traffic to quiescence assert in_use() == 0 explicitly.

Mbuf* MbufPool::raw_alloc() {
  ++stats_.allocs;
  if (in_use() > stats_.high_water) stats_.high_water = in_use();
  if (free_nodes_ != nullptr) {
    ++stats_.freelist_hits;
    --free_node_count_;
    Mbuf* m = free_nodes_;
    free_nodes_ = m->next;
    m->next = nullptr;
    return m;  // fully reinitialized when it was freed
  }
  auto* m = new Mbuf();
  m->pool_ = this;
  return m;
}

std::shared_ptr<ExtBuf> MbufPool::alloc_cluster() {
  ++stats_.cluster_allocs;
  if (!free_clusters_.empty()) {
    ++stats_.cluster_freelist_hits;
    std::shared_ptr<ExtBuf> ext = std::move(free_clusters_.back());
    free_clusters_.pop_back();
    return ext;
  }
  auto ext = std::make_shared<ExtBuf>();
  ext->size = kClBytes;
  ext->store = std::make_unique<std::byte[]>(kClBytes);
  return ext;
}

Mbuf* MbufPool::get() {
  Mbuf* m = raw_alloc();
  m->type_ = MbufType::kData;
  return m;
}

Mbuf* MbufPool::get_hdr() {
  Mbuf* m = get();
  m->flags_ |= kMPktHdr;
  // Reserve the pkthdr budget the way BSD does: data starts past it, which
  // doubles as leading space for link headers.
  m->off_ = kMLen - kMHLen;
  return m;
}

Mbuf* MbufPool::get_cluster(bool pkthdr) {
  Mbuf* m = raw_alloc();
  m->type_ = MbufType::kData;
  m->flags_ = kMExt | (pkthdr ? kMPktHdr : 0u);
  m->ext_ = alloc_cluster();
  return m;
}

Mbuf* MbufPool::get_ext(std::size_t size, bool pkthdr) {
  Mbuf* m = raw_alloc();
  ++stats_.cluster_allocs;
  m->type_ = MbufType::kData;
  m->flags_ = kMExt | (pkthdr ? kMPktHdr : 0u);
  auto ext = std::make_shared<ExtBuf>();
  ext->size = size;
  ext->store = std::make_unique<std::byte[]>(size);
  m->ext_ = std::move(ext);
  return m;
}

Mbuf* MbufPool::share_ext(const Mbuf& src, int off, int take) {
  assert(src.type() == MbufType::kData && src.uses_cluster());
  assert(off >= 0 && take >= 0 && off + take <= src.len());
  Mbuf* m = raw_alloc();
  m->type_ = MbufType::kData;
  m->flags_ = kMExt;
  m->ext_ = src.ext_;
  m->off_ = src.off_ + static_cast<std::size_t>(off);
  m->len_ = take;
  return m;
}

Mbuf* MbufPool::get_uio(mem::Uio u, std::size_t len, const UioWcabHdr& hdr, bool pkthdr) {
  Mbuf* m = raw_alloc();
  ++stats_.uio_allocs;
  m->type_ = MbufType::kUio;
  m->flags_ = pkthdr ? kMPktHdr : 0u;
  m->uio_ = std::move(u);
  m->uw_ = hdr;
  m->len_ = static_cast<int>(len);
  return m;
}

Mbuf* MbufPool::get_wcab(const Wcab& w, std::size_t len, const UioWcabHdr& hdr, bool pkthdr) {
  Mbuf* m = raw_alloc();
  ++stats_.wcab_allocs;
  m->type_ = MbufType::kWcab;
  m->flags_ = pkthdr ? kMPktHdr : 0u;
  m->wcab_ = w;
  m->uw_ = hdr;
  m->len_ = static_cast<int>(len);
  return m;
}

Mbuf* MbufPool::free_one(Mbuf* m) {
  assert(m != nullptr);
  Mbuf* n = m->next;
  if (m->type_ == MbufType::kWcab && m->wcab_.owner != nullptr) {
    m->wcab_.owner->outboard_release(m->wcab_.handle);
  }
  ++stats_.frees;
  // Park the cluster for reuse if this was the last reference to a
  // standard-size buffer (arbitrary-size ext bufs from get_ext are dropped).
  if (m->ext_ != nullptr && m->ext_->size == kClBytes && m->ext_.use_count() == 1) {
    free_clusters_.push_back(std::move(m->ext_));
  }
  // Full reinit *at free time*, so captured resources (cluster refs, uio
  // vectors) are released promptly and a recycled node is indistinguishable
  // from a fresh one.
  m->type_ = MbufType::kData;
  m->flags_ = 0;
  m->len_ = 0;
  m->off_ = 0;
  m->ext_.reset();
  m->uw_ = UioWcabHdr{};
  m->uio_ = mem::Uio{};
  m->wcab_ = Wcab{};
  m->pkthdr = PktHdr{};
  m->next = free_nodes_;
  free_nodes_ = m;
  ++free_node_count_;
  return n;
}

void MbufPool::free_chain(Mbuf* m) {
  while (m != nullptr) m = free_one(m);
}

}  // namespace nectar::mbuf
