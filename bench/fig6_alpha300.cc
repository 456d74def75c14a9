// Figure 6 (paper §7.2): the same sweep on the Alpha 3000/300LX (half-speed
// CPU and TURBOchannel). The paper's point: on the slower host the more
// efficient single-copy stack yields *higher throughput*, not just lower
// utilization.
#include <algorithm>

#include "figure_sweep.h"

int main(int argc, char** argv) {
  using namespace nectar;
  return bench::figure_main(
      argc, argv, "fig6_alpha300", "Figure 6", core::HostParams::alpha3000_300lx(),
      [](const bench::FigureSweep& f) {
        double best_gain = 0;
        for (const auto& p : f.points) {
          if (p.write_size >= 32 * 1024 && p.tput_unmod > 0)
            best_gain = std::max(best_gain, p.tput_mod / p.tput_unmod);
        }
        std::printf("Large-write throughput gain of the single-copy stack: %.2fx "
                    "(paper: >1 — the slower host is CPU-bound on the unmodified "
                    "stack)\n",
                    best_gain);
      });
}
