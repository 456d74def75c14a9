// Discrete-event simulator core: a time-ordered queue of callbacks.
//
// Determinism: events at the same timestamp fire in insertion order (a
// monotonically increasing sequence number breaks ties), so a given seed and
// workload always produce the same execution.
//
// Hot-path design (PR 2): scheduling an event is allocation-free in steady
// state. Callbacks live in SmallFn slots (48-byte inline buffer) inside a
// recycled slab; the priority queue is a 4-ary heap of 16-byte entries over
// slot indices, which touches a quarter of the cache lines a binary heap of
// fat Event structs did. Cancelable timers are a (slot, generation) pair —
// no shared_ptr control blocks — and cancel() is an O(1) lazy delete whose
// tombstones are purged in bulk once they outnumber live entries (so
// pending() stays honest and a pathological cancel storm cannot bloat the
// heap).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/small_fn.h"
#include "sim/time.h"

namespace nectar::sim {

class Simulator;
class TimerWheel;

// Issuer interface for cancelable timers. Both the 4-ary heap (Simulator)
// and the hierarchical TimerWheel hand out TimerHandles; a handle is
// qualified by the backend that issued it. Slot indices and generation
// counters are per-backend namespaces: a (slot, gen) pair recycled by one
// backend can never be cancelled or probed through a stale handle issued by
// the other, because the handle carries the issuing backend's pointer.
class TimerBackend {
 public:
  TimerBackend() = default;
  TimerBackend(const TimerBackend&) = delete;
  TimerBackend& operator=(const TimerBackend&) = delete;
  virtual ~TimerBackend() = default;

 private:
  friend class TimerHandle;
  virtual void cancel_slot(std::uint32_t slot, std::uint32_t gen) = 0;
  [[nodiscard]] virtual bool slot_armed(std::uint32_t slot,
                                        std::uint32_t gen) const noexcept = 0;
};

// Cancelable handle for a scheduled event (used by protocol timers).
// Copyable; cancel() is idempotent and safe after the event fired. A handle
// refers to its event by backend + slot index + generation counter, so a
// handle that outlives its event (fired, cancelled, or slot recycled) is
// inert, and a handle from one backend is inert against every other backend
// even when slot and generation numbers collide.
class TimerHandle {
 public:
  TimerHandle() = default;
  void cancel() {
    if (backend_ != nullptr) backend_->cancel_slot(slot_, gen_);
  }
  [[nodiscard]] bool armed() const {
    return backend_ != nullptr && backend_->slot_armed(slot_, gen_);
  }

 private:
  friend class Simulator;
  friend class TimerWheel;
  TimerHandle(TimerBackend* backend, std::uint32_t slot, std::uint32_t gen)
      : backend_(backend), slot_(slot), gen_(gen) {}
  TimerBackend* backend_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator : public TimerBackend {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  // Schedule `fn` at absolute time t (>= now).
  void at(Time t, SmallFn fn);

  // Schedule `fn` after a relative delay (>= 0).
  void after(Duration d, SmallFn fn) { at(now_ + d, std::move(fn)); }

  // Cancelable variants for protocol timers.
  TimerHandle timer_at(Time t, SmallFn fn);
  TimerHandle timer_after(Duration d, SmallFn fn) {
    return timer_at(now_ + d, std::move(fn));
  }

  // Run one event. Returns false if the queue is empty.
  bool step();

  // Run until the queue drains.
  void run();

  // Run until simulated time reaches `deadline` (events at exactly `deadline`
  // still fire) or the queue drains.
  void run_until(Time deadline);

  // Timestamp of the earliest live event, or kNoEvent when the queue is
  // empty. Purges cancelled entries sitting at the top so the answer reflects
  // a real event (the parallel engine picks epoch windows from this).
  static constexpr Time kNoEvent = INT64_MAX;
  [[nodiscard]] Time next_time();

  // Live (non-cancelled) scheduled events.
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() - tombstones_;
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t events_cancelled() const noexcept { return cancelled_; }
  // Tombstone purges performed (each removes every cancelled entry at once).
  [[nodiscard]] std::uint64_t compactions() const noexcept { return compactions_; }
  // Cancelled entries currently awaiting purge in the heap.
  [[nodiscard]] std::size_t tombstones() const noexcept { return tombstones_; }
  // Slab high-water mark: slots ever allocated (== peak concurrent events).
  [[nodiscard]] std::size_t slots_allocated() const noexcept { return slots_.size(); }

  // When the running event was scheduled: now() at its at()/timer_at() call.
  // Same-time events run in scheduling order, so this tells a caller whether
  // the running event would have run before or after an event it would
  // have scheduled for now() at some earlier time.
  [[nodiscard]] Time current_inserted() const noexcept { return cur_inserted_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Slot::link values of a queued slot; a free slot's link is the next free
  // slot (or kNoSlot). Slot indices fit in 24 bits, so these never collide.
  static constexpr std::uint32_t kPending = 0xfffffffeu;
  static constexpr std::uint32_t kCancelled = 0xfffffffdu;

  struct Slot {
    SmallFn fn;
    Time inserted = 0;  // now() when scheduled
    std::uint32_t gen = 0;
    std::uint32_t link = kNoSlot;  // free-list link, kPending or kCancelled
  };
  static_assert(sizeof(Slot) == sizeof(SmallFn) + 16);  // 80 bytes on x86-64

  struct HeapEntry {
    Time t;
    std::uint64_t seq : 40;  // insertion order; 2^40 events per queue epoch
    std::uint64_t slot : 24;
  };
  static_assert(sizeof(HeapEntry) == 16);

  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot(SmallFn fn);
  void release_slot(std::uint32_t idx) noexcept;
  void heap_push(HeapEntry e);
  HeapEntry heap_pop();
  void sift_down(std::size_t i) noexcept;
  // Drop cancelled entries sitting at the top so heap_[0] is live.
  void purge_top();
  // Rebuild the heap without tombstones once they dominate.
  void maybe_compact();

  void cancel_slot(std::uint32_t slot, std::uint32_t gen) override;
  [[nodiscard]] bool slot_armed(std::uint32_t slot,
                                std::uint32_t gen) const noexcept override {
    return slot < slots_.size() && slots_[slot].gen == gen &&
           slots_[slot].link == kPending;
  }

  Time now_ = 0;
  Time cur_inserted_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t tombstones_ = 0;  // cancelled entries still in heap_
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace nectar::sim
