// Simulated virtual address spaces.
//
// Each simulated process (and each host kernel) owns an AddressSpace: a set
// of regions with simulated virtual addresses backed by real host memory.
// Data movement in the stack operates on real bytes obtained by translating
// (vaddr, len) to a span, so end-to-end integrity is checkable, while the
// vaddr layer lets tests construct the unaligned buffers that exercise the
// paper's §4.5 alignment fallback.
//
// Regions never abut: a guard gap follows every region, so an out-of-range
// access is caught by translate() rather than silently touching a neighbour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace nectar::mem {

using VAddr = std::uint64_t;

// DEC Alpha page size, which the paper's Table 2 costs are in terms of.
inline constexpr std::size_t kPageSize = 8192;

constexpr VAddr page_base(VAddr a) noexcept { return a & ~VAddr{kPageSize - 1}; }
constexpr std::size_t page_offset(VAddr a) noexcept { return a & (kPageSize - 1); }

// Number of pages spanned by [addr, addr+len).
constexpr std::size_t pages_spanned(VAddr addr, std::size_t len) noexcept {
  if (len == 0) return 0;
  return (page_offset(addr) + len + kPageSize - 1) / kPageSize;
}

class AddressSpace {
 public:
  explicit AddressSpace(std::string name) : name_(std::move(name)) {}
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Allocate a region of `size` bytes. The returned address is page-aligned
  // plus `misalign` bytes (misalign < kPageSize), letting tests place buffers
  // on 16-bit-but-not-32-bit boundaries etc.
  VAddr allocate(std::size_t size, std::size_t misalign = 0);

  void deallocate(VAddr base);

  // Translate to real memory. Throws std::out_of_range if any byte of
  // [addr, addr+len) is unmapped ("segfault").
  std::span<std::byte> write_view(VAddr addr, std::size_t len);
  std::span<const std::byte> read_view(VAddr addr, std::size_t len) const;

  [[nodiscard]] bool valid(VAddr addr, std::size_t len) const noexcept;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  struct Region {
    std::size_t size;                 // usable bytes at key address
    std::vector<std::byte> backing;   // real storage
  };

  // Key is the region's user-visible base address.
  const Region* find(VAddr addr, std::size_t len) const noexcept;

  std::string name_;
  std::map<VAddr, Region> regions_;
  VAddr next_ = 0x0000'0001'0000'0000ULL;  // distinctive, page aligned
};

// A run of host memory as a DMA engine sees it: the simulated address (for
// the engine's alignment check) and the real bytes behind it.
struct HostSeg {
  VAddr vaddr = 0;
  std::span<std::byte> bytes;
};

// Scattered user memory descriptor: the `uio` the paper's M_UIO mbufs carry.
struct UioVec {
  VAddr base = 0;
  std::size_t len = 0;
};

struct Uio {
  AddressSpace* space = nullptr;
  std::vector<UioVec> iov;

  [[nodiscard]] std::size_t total_len() const noexcept {
    std::size_t n = 0;
    for (const auto& v : iov) n += v.len;
    return n;
  }

  // Sub-range [off, off+len) of the logical byte stream this uio describes.
  [[nodiscard]] Uio slice(std::size_t off, std::size_t len) const;

  // True if every vector base (and all interior vector boundaries) are
  // 32-bit aligned — the CAB SDMA requirement from §4.5.
  [[nodiscard]] bool word_aligned() const noexcept;

  // Append one HostSeg per vector, in stream order.
  void append_segs(std::vector<HostSeg>& out) const;
};

}  // namespace nectar::mem
