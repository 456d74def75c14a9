#include "cab/network_memory.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "checksum/internet_checksum.h"

namespace nectar::cab {

NetworkMemory::NetworkMemory(std::size_t bytes, std::size_t page_size)
    : page_size_(page_size),
      store_(bytes),
      page_used_(bytes / page_size, false),
      free_pages_(bytes / page_size) {
  if (page_size == 0 || bytes % page_size != 0)
    throw std::invalid_argument("NetworkMemory: size must be a multiple of page size");
}

std::optional<Handle> NetworkMemory::alloc(std::size_t len) {
  if (len == 0) throw std::invalid_argument("NetworkMemory::alloc: zero length");
  const std::size_t npages = (len + page_size_ - 1) / page_size_;
  const std::size_t total = page_used_.size();
  if (force_exhausted_ || npages > free_pages_) {
    ++alloc_failures_;
    return std::nullopt;
  }
  // Rotating first-fit over the page bitmap for a contiguous run.
  for (std::size_t attempt = 0; attempt < total; ++attempt) {
    const std::size_t start = (next_fit_ + attempt) % total;
    if (start + npages > total) continue;
    bool ok = true;
    for (std::size_t i = 0; i < npages; ++i) {
      if (page_used_[start + i]) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (std::size_t i = 0; i < npages; ++i) page_used_[start + i] = true;
    free_pages_ -= npages;
    next_fit_ = (start + npages) % total;

    Handle h;
    if (!free_slots_.empty()) {
      h = free_slots_.back();
      free_slots_.pop_back();
    } else {
      h = static_cast<Handle>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[h];
    s = Slot{};
    s.first_page = start;
    s.npages = npages;
    s.len = len;
    s.refs = 1;
    s.live = true;
    s.span_key = spans_.begin_next(telemetry::Stage::kOutboard);
    ++live_;
    max_used_pages_ = std::max(max_used_pages_, page_used_.size() - free_pages_);
    max_live_ = std::max(max_live_, live_);
    return h;
  }
  ++alloc_failures_;  // fragmentation: enough pages but no contiguous run
  return std::nullopt;
}

const NetworkMemory::Slot& NetworkMemory::slot(Handle h) const {
  if (h >= slots_.size() || !slots_[h].live)
    throw std::out_of_range("NetworkMemory: dead handle");
  return slots_[h];
}

NetworkMemory::Slot& NetworkMemory::slot(Handle h) {
  return const_cast<Slot&>(static_cast<const NetworkMemory*>(this)->slot(h));
}

void NetworkMemory::retain(Handle h) { ++slot(h).refs; }

void NetworkMemory::release(Handle h) {
  Slot& s = slot(h);
  assert(s.refs > 0);
  if (--s.refs > 0) return;
  for (std::size_t i = 0; i < s.npages; ++i) page_used_[s.first_page + i] = false;
  free_pages_ += s.npages;
  s.live = false;
  if (s.span_key != 0) spans_.end(telemetry::Stage::kOutboard, s.span_key);
  --live_;
  free_slots_.push_back(h);
}

std::span<std::byte> NetworkMemory::bytes(Handle h, std::size_t off, std::size_t len) {
  Slot& s = slot(h);
  if (off + len > s.npages * page_size_)
    throw std::out_of_range("NetworkMemory::bytes: beyond packet buffer");
  return {store_.data() + s.first_page * page_size_ + off, len};
}

std::span<const std::byte> NetworkMemory::bytes(Handle h, std::size_t off,
                                                std::size_t len) const {
  const Slot& s = slot(h);
  if (off + len > s.npages * page_size_)
    throw std::out_of_range("NetworkMemory::bytes: beyond packet buffer");
  return {store_.data() + s.first_page * page_size_ + off, len};
}

std::size_t NetworkMemory::leak_pages(std::size_t npages) {
  std::size_t taken = 0;
  for (std::size_t p = 0; p < page_used_.size() && taken < npages; ++p) {
    if (page_used_[p]) continue;
    page_used_[p] = true;
    --free_pages_;
    leaked_.push_back(p);
    ++taken;
  }
  max_used_pages_ = std::max(max_used_pages_, page_used_.size() - free_pages_);
  return taken;
}

std::size_t NetworkMemory::reclaim_leaked() {
  const std::size_t n = leaked_.size();
  for (const std::size_t p : leaked_) {
    page_used_[p] = false;
    ++free_pages_;
  }
  leaked_.clear();
  return n;
}

std::size_t NetworkMemory::packet_len(Handle h) const { return slot(h).len; }
int NetworkMemory::refcount(Handle h) const { return slot(h).refs; }

void NetworkMemory::set_body_sum(Handle h, std::uint32_t sum) { slot(h).body_sum = sum; }
std::optional<std::uint32_t> NetworkMemory::body_sum(Handle h) const {
  return slot(h).body_sum;
}

void NetworkMemory::set_seg_sums(Handle h, std::size_t base, std::size_t stride,
                                 std::size_t len, std::vector<std::uint32_t> sums) {
  if (stride == 0) throw std::invalid_argument("NetworkMemory::set_seg_sums: zero stride");
  slot(h).seg_sums = SegSums{base, stride, len, std::move(sums)};
}

std::optional<std::uint32_t> NetworkMemory::seg_slice_sum(Handle h, std::size_t abs_off,
                                                          std::size_t len) const {
  const auto& ss = slot(h).seg_sums;
  if (!ss || abs_off < ss->base) return std::nullopt;
  const std::size_t off = abs_off - ss->base;
  if (off % ss->stride != 0) return std::nullopt;
  const std::size_t j = off / ss->stride;
  if (j >= ss->sums.size()) return std::nullopt;
  const std::size_t slice_len = std::min(ss->stride, ss->len - j * ss->stride);
  if (len != slice_len) return std::nullopt;
  return ss->sums[j];
}

std::optional<std::uint32_t> NetworkMemory::tail_sum(Handle h, std::size_t abs_off) const {
  const auto& ss = slot(h).seg_sums;
  if (!ss || abs_off < ss->base) return std::nullopt;
  const std::size_t off = abs_off - ss->base;
  if (off % ss->stride != 0) return std::nullopt;
  const std::size_t j0 = off / ss->stride;
  if (j0 >= ss->sums.size()) return std::nullopt;
  std::uint32_t acc = 0;
  std::size_t rel = 0;  // bytes accumulated so far (for odd-offset swaps)
  for (std::size_t j = j0; j < ss->sums.size(); ++j) {
    acc = checksum::combine(acc, ss->sums[j], rel);
    rel += std::min(ss->stride, ss->len - j * ss->stride);
  }
  return acc;
}

}  // namespace nectar::cab
