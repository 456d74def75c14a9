// Simulated host CPU.
//
// The CPU is a serially-owned resource: one piece of work executes at a time,
// waiters are served highest-priority-first (FIFO within a priority). Work is
// non-preemptive, which matches microsecond-granularity kernel work; long
// compute (the `util` soaker) must self-slice into quanta.
//
// Every completed slice of work is charged to an account ("ttcp.user",
// "ttcp.sys", "intr", ...). The experiment harness computes the paper's
// utilization metric from these accounts:
//
//   utilization = (ttcp_user + ttcp_sys + util_sys) / elapsed
//
// where in the simulation util_sys is exactly the interrupt/kernel time not
// attributable to the measured process (the paper's reason for running util).
//
// `speed_scale` models slower hosts: the Alpha 3000/300LX runs all CPU work
// at ~2x the 3000/400 durations (paper: "about half as powerful").
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/task.h"

namespace nectar::sim {

enum class Priority : int {
  Interrupt = 0,   // device interrupt handlers
  Kernel = 1,      // protocol processing not in interrupt context
  Normal = 2,      // user processes
  Background = 3,  // the util soaker
};

using AccountId = std::size_t;

class Cpu {
 public:
  explicit Cpu(Simulator& sim, double speed_scale = 1.0)
      : sim_(sim), scale_(speed_scale) {}
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  AccountId make_account(std::string name);

  // Occupy the CPU for `work` (pre-scaling) and charge the scaled duration to
  // `acct`. Completes through the event queue; zero/negative work is free.
  Task<void> run(Duration work, AccountId acct, Priority p = Priority::Normal);

  [[nodiscard]] Duration busy(AccountId acct) const { return accounts_[acct].busy; }
  [[nodiscard]] Duration total_busy() const noexcept { return total_busy_; }
  [[nodiscard]] const std::string& account_name(AccountId acct) const {
    return accounts_[acct].name;
  }
  [[nodiscard]] std::size_t num_accounts() const noexcept { return accounts_.size(); }
  [[nodiscard]] Duration scaled(Duration work) const noexcept {
    return static_cast<Duration>(static_cast<double>(work) * scale_);
  }

 private:
  struct Account {
    std::string name;
    Duration busy = 0;
  };
  struct Waiter {
    Priority p;
    std::uint64_t seq;
    std::coroutine_handle<> h;
  };
  struct Later {
    bool operator()(const Waiter& a, const Waiter& b) const noexcept {
      if (a.p != b.p) return static_cast<int>(a.p) > static_cast<int>(b.p);
      return a.seq > b.seq;
    }
  };

  struct Acquire {
    Cpu& cpu;
    Priority p;
    bool await_ready() noexcept {
      if (!cpu.busy_) {
        cpu.busy_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      cpu.waiters_.push(Waiter{p, cpu.wseq_++, h});
    }
    void await_resume() const noexcept {}
  };

  void release();

  Simulator& sim_;
  double scale_;
  bool busy_ = false;
  std::uint64_t wseq_ = 0;
  Duration total_busy_ = 0;
  std::vector<Account> accounts_;
  std::priority_queue<Waiter, std::vector<Waiter>, Later> waiters_;
};

}  // namespace nectar::sim
