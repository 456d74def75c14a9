// Coroutine tasks for simulated processes.
//
// Task<T> is a lazy coroutine: it starts when awaited and resumes its awaiter
// on completion via symmetric transfer. Simulated "processes" (user programs,
// kernel daemons, interrupt handlers) are written as straight-line coroutines
// that co_await simulated delays, conditions, and each other; all suspension
// resumes through the Simulator event queue, so stack depth stays bounded and
// execution order is deterministic.
//
//   sim::Task<void> client(Host& h) {
//     co_await h.cpu().run(sim::usec(10), acct);
//     co_await sock.send(buf);
//   }
//   simulator.spawn(client(host));
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace nectar::sim {

template <typename T = void>
class Task;

// Detach a Task<void> as a root "process": runs eagerly to its first suspend,
// and its frame destroys itself when it returns. An escaped exception from a
// detached process is a bug in the simulation; it terminates with the active
// exception visible.
void spawn(Task<void> t);

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
  bool detached = false;  // spawned: no awaiter owns the frame

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      if (h.promise().detached) {
        h.destroy();
        return std::noop_coroutine();
      }
      auto& cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept;
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  void return_void() noexcept {}
};

}  // namespace detail

// A lazily-started coroutine returning T. Move-only; owns the frame.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::Promise<T> {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };

  Task() = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  [[nodiscard]] bool valid() const noexcept { return h_ != nullptr; }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.promise().continuation = awaiter;
    return h_;
  }
  T await_resume() {
    if (h_.promise().error) std::rethrow_exception(h_.promise().error);
    if constexpr (!std::is_void_v<T>) return std::move(*h_.promise().value);
  }

 private:
  friend void spawn(Task<void> t);
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

// Awaitable delay: resumes through the event queue after `d` simulated ns.
class Delay {
 public:
  Delay(Simulator& sim, Duration d) : sim_(sim), d_(d) {}
  // Even zero delays go through the event queue so ordering stays FIFO.
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.after(d_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  Duration d_;
};

inline Delay delay(Simulator& sim, Duration d) { return Delay{sim, d}; }

// A broadcast/signal condition. Waiters suspend; notify schedules their
// resumption at the current simulated time (never inline, so a notifier's
// state updates are complete before any waiter observes them).
class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(&sim) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  struct Awaiter {
    Condition& c;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { c.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return Awaiter{*this}; }

  // Hands the waiter list to a spare buffer by swapping, so both buffers
  // keep their capacity and a steady wait/notify cycle never allocates.
  void notify_all() {
    waking_.swap(waiters_);
    for (auto h : waking_) sim_->after(0, [h] { h.resume(); });
    waking_.clear();
  }

  void notify_one() {
    if (waiters_.empty()) return;
    auto h = waiters_.front();
    waiters_.erase(waiters_.begin());
    sim_->after(0, [h] { h.resume(); });
  }

  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> waking_;  // notify_all's spare buffer
};

}  // namespace nectar::sim
