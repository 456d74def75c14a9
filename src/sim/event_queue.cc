#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nectar::sim {

// --- slab -------------------------------------------------------------------

std::uint32_t Simulator::acquire_slot(SmallFn fn) {
  std::uint32_t idx;
  if (free_head_ != kNoSlot) {
    idx = free_head_;
    free_head_ = slots_[idx].link;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    if (idx >= kNoSlot >> 8)  // 24-bit heap-entry slot field
      throw std::length_error("Simulator: too many concurrent events");
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.inserted = now_;
  s.link = kPending;
  return idx;
}

void Simulator::release_slot(std::uint32_t idx) noexcept {
  Slot& s = slots_[idx];
  s.fn.reset();
  ++s.gen;  // invalidate outstanding TimerHandles
  s.link = free_head_;
  free_head_ = idx;
}

// --- 4-ary heap --------------------------------------------------------------

// Both sifts move the displaced entry once at the end (hole insertion)
// rather than swapping at every level.
void Simulator::heap_push(HeapEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);  // placeholder; overwritten below
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const HeapEntry v = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], v)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = v;
}

Simulator::HeapEntry Simulator::heap_pop() {
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

void Simulator::purge_top() {
  if (tombstones_ == 0) return;  // common case: skip the slot-state probe
  while (!heap_.empty()) {
    const std::uint32_t slot = static_cast<std::uint32_t>(heap_.front().slot);
    if (slots_[slot].link != kCancelled) return;
    heap_pop();
    release_slot(slot);
    --tombstones_;
  }
}

void Simulator::maybe_compact() {
  // Amortized O(1) per cancel: rebuild only once tombstones outnumber live
  // entries (and the heap is big enough for the rebuild to matter).
  if (tombstones_ < 64 || tombstones_ * 2 <= heap_.size()) return;
  std::size_t keep = 0;
  for (const HeapEntry& e : heap_) {
    const std::uint32_t slot = static_cast<std::uint32_t>(e.slot);
    if (slots_[slot].link == kCancelled) {
      release_slot(slot);
    } else {
      heap_[keep++] = e;
    }
  }
  heap_.resize(keep);
  tombstones_ = 0;
  ++compactions_;
  if (keep > 1) {
    for (std::size_t i = (keep - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

// --- scheduling --------------------------------------------------------------

void Simulator::at(Time t, SmallFn fn) {
  assert(fn);
  if (t < now_) throw std::logic_error("Simulator::at: time in the past");
  const std::uint32_t slot = acquire_slot(std::move(fn));
  heap_push(HeapEntry{t, seq_++, slot});
}

TimerHandle Simulator::timer_at(Time t, SmallFn fn) {
  assert(fn);
  if (t < now_) throw std::logic_error("Simulator::timer_at: time in the past");
  const std::uint32_t slot = acquire_slot(std::move(fn));
  heap_push(HeapEntry{t, seq_++, slot});
  return TimerHandle{this, slot, slots_[slot].gen};
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_armed(slot, gen)) return;  // already fired / cancelled / recycled
  slots_[slot].link = kCancelled;
  // Release captured resources now, not at the (possibly distant) deadline.
  slots_[slot].fn.reset();
  ++cancelled_;
  ++tombstones_;
  maybe_compact();
}

// --- execution ---------------------------------------------------------------

bool Simulator::step() {
  purge_top();
  if (heap_.empty()) return false;
  const HeapEntry e = heap_pop();
  const std::uint32_t slot = static_cast<std::uint32_t>(e.slot);
  now_ = e.t;
  cur_inserted_ = slots_[slot].inserted;
  // Move the callback out and recycle the slot *before* invoking: the
  // callback may schedule (growing the slab) or re-arm into this very slot.
  SmallFn fn = std::move(slots_[slot].fn);
  release_slot(slot);
  ++processed_;
  fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

Time Simulator::next_time() {
  purge_top();
  return heap_.empty() ? kNoEvent : heap_.front().t;
}

void Simulator::run_until(Time deadline) {
  for (;;) {
    purge_top();
    if (heap_.empty()) break;
    if (heap_.front().t > deadline) {
      now_ = deadline;
      return;
    }
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace nectar::sim
