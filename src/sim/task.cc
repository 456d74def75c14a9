#include "sim/task.h"

#include <cstdio>
#include <cstdlib>

namespace nectar::sim {

void detail::PromiseBase::unhandled_exception() noexcept {
  if (detached) {
    std::fprintf(stderr, "nectar: exception escaped a detached sim process\n");
    std::terminate();
  }
  error = std::current_exception();
}

void spawn(Task<void> t) {
  assert(t.valid());
  auto h = std::exchange(t.h_, nullptr);
  h.promise().detached = true;
  h.resume();
}

}  // namespace nectar::sim
