#include "sim/cpu.h"

namespace nectar::sim {

AccountId Cpu::make_account(std::string name) {
  accounts_.push_back(Account{std::move(name), 0});
  return accounts_.size() - 1;
}

Task<void> Cpu::run(Duration work, AccountId acct, Priority p) {
  if (work <= 0) co_return;
  co_await Acquire{*this, p};
  const Duration d = scaled(work);
  co_await delay(sim_, d);
  accounts_[acct].busy += d;
  total_busy_ += d;
  release();
}

void Cpu::release() {
  if (waiters_.empty()) {
    busy_ = false;
    return;
  }
  // Ownership transfers directly to the next waiter; busy_ stays true so a
  // new arrival between now and the resume cannot steal the CPU.
  auto h = waiters_.top().h;
  waiters_.pop();
  sim_.after(0, [h] { h.resume(); });
}

}  // namespace nectar::sim
