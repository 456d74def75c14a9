// Figure 6 (paper §7.2): the same sweep on the Alpha 3000/300LX (half-speed
// CPU and TURBOchannel). The paper's point: on the slower host the more
// efficient single-copy stack yields *higher throughput*, not just lower
// utilization.
#include <cstdio>

#include "bench_flags.h"
#include "apps/experiment.h"

int main(int argc, char** argv) {
  using namespace nectar;
  bench::Flag quick_flag{"--quick"};
  bench::parse_flags(argc, argv, {&quick_flag});
  const bool quick = quick_flag.on;

  const core::HostParams params = core::HostParams::alpha3000_300lx();
  std::vector<std::size_t> sizes;
  for (std::size_t kb = 1; kb <= 512; kb *= 2) sizes.push_back(kb * 1024);
  if (quick) sizes = {4 * 1024, 32 * 1024, 256 * 1024};
  const std::size_t bytes = quick ? 2 * 1024 * 1024 : 8 * 1024 * 1024;

  std::printf("Figure 6: %s, TCP window 512 KB, MTU 32 KB\n", params.model.c_str());
  std::printf("%9s | %9s %9s %9s | %9s %9s %9s | %9s\n", "size", "unmod",
              "util", "eff", "1-copy", "util", "eff", "rawHIPPI");
  std::printf("-------------------------------------------------------------------------------\n");

  auto points = apps::run_figure_sweep(params, sizes, bytes);
  double best_gain = 0;
  for (const auto& p : points) {
    std::printf("%9zu | %9.1f %9.2f %9.1f | %9.1f %9.2f %9.1f | %9.1f%s\n",
                p.write_size, p.tput_unmod, p.util_unmod, p.eff_unmod, p.tput_mod,
                p.util_mod, p.eff_mod, p.tput_raw, p.ok ? "" : "  [INCOMPLETE]");
    if (p.write_size >= 32 * 1024 && p.tput_unmod > 0)
      best_gain = std::max(best_gain, p.tput_mod / p.tput_unmod);
  }
  std::printf("\nLarge-write throughput gain of the single-copy stack: %.2fx "
              "(paper: >1 — the slower host is CPU-bound on the unmodified stack)\n",
              best_gain);
  return 0;
}
