#include "core/stats.h"

namespace nectar::core {

CpuSnapshot CpuSnapshot::take(Host& h) {
  CpuSnapshot s;
  s.when = h.sim().now();
  const std::size_t n = h.cpu().num_accounts();
  s.busy.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.busy[i] = h.cpu().busy(i);
  return s;
}

UtilizationReport utilization_between(Host& h, const Host::Process& proc,
                                      const CpuSnapshot& t0, const CpuSnapshot& t1) {
  UtilizationReport r;
  r.elapsed = t1.when - t0.when;
  auto delta = [&](sim::AccountId a) -> sim::Duration {
    const sim::Duration b0 = a < t0.busy.size() ? t0.busy[a] : 0;
    const sim::Duration b1 = a < t1.busy.size() ? t1.busy[a] : 0;
    return b1 - b0;
  };
  r.busy = delta(proc.user_acct) + delta(proc.sys_acct) + delta(h.intr_acct());
  r.utilization = r.elapsed > 0
                      ? static_cast<double>(r.busy) / static_cast<double>(r.elapsed)
                      : 0.0;
  return r;
}

}  // namespace nectar::core
