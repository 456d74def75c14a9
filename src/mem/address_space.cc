#include "mem/address_space.h"

#include <cassert>
#include <stdexcept>

namespace nectar::mem {

VAddr AddressSpace::allocate(std::size_t size, std::size_t misalign) {
  assert(misalign < kPageSize);
  if (size == 0) throw std::invalid_argument("AddressSpace::allocate: zero size");
  const VAddr base = next_ + misalign;
  Region r;
  r.size = size;
  r.backing.assign(size, std::byte{0});
  regions_.emplace(base, std::move(r));
  // Advance past this region plus a one-page guard gap, re-aligned.
  next_ = page_base(base + size + 2 * kPageSize);
  return base;
}

void AddressSpace::deallocate(VAddr base) {
  auto it = regions_.find(base);
  if (it == regions_.end())
    throw std::out_of_range("AddressSpace::deallocate: unknown region");
  regions_.erase(it);
}

const AddressSpace::Region* AddressSpace::find(VAddr addr, std::size_t len) const noexcept {
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) return nullptr;
  --it;
  const VAddr base = it->first;
  const Region& r = it->second;
  if (addr < base) return nullptr;
  if (addr - base + len > r.size) return nullptr;
  return &r;
}

std::span<std::byte> AddressSpace::write_view(VAddr addr, std::size_t len) {
  auto it = regions_.upper_bound(addr);
  if (it != regions_.begin()) {
    --it;
    const VAddr base = it->first;
    Region& r = it->second;
    if (addr >= base && addr - base + len <= r.size) {
      return std::span<std::byte>{r.backing.data() + (addr - base), len};
    }
  }
  throw std::out_of_range("AddressSpace(" + name_ + "): bad write access");
}

std::span<const std::byte> AddressSpace::read_view(VAddr addr, std::size_t len) const {
  if (const Region* r = find(addr, len)) {
    auto it = regions_.upper_bound(addr);
    --it;
    return std::span<const std::byte>{r->backing.data() + (addr - it->first), len};
  }
  throw std::out_of_range("AddressSpace(" + name_ + "): bad read access");
}

bool AddressSpace::valid(VAddr addr, std::size_t len) const noexcept {
  return find(addr, len) != nullptr;
}

Uio Uio::slice(std::size_t off, std::size_t len) const {
  Uio out;
  out.space = space;
  std::size_t skip = off;
  std::size_t want = len;
  for (const auto& v : iov) {
    if (want == 0) break;
    if (skip >= v.len) {
      skip -= v.len;
      continue;
    }
    const std::size_t avail = v.len - skip;
    const std::size_t take = avail < want ? avail : want;
    out.iov.push_back(UioVec{v.base + skip, take});
    want -= take;
    skip = 0;
  }
  if (want != 0) throw std::out_of_range("Uio::slice: range exceeds uio");
  return out;
}

void Uio::append_segs(std::vector<HostSeg>& out) const {
  for (const auto& v : iov) out.push_back(HostSeg{v.base, space->write_view(v.base, v.len)});
}

bool Uio::word_aligned() const noexcept {
  for (const auto& v : iov) {
    if (v.base % 4 != 0) return false;
  }
  return true;
}

}  // namespace nectar::mem
