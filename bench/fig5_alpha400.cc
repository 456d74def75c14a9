// Figure 5 (paper §7.2): throughput, utilization, and efficiency vs
// read/write size on the Alpha 3000/400 — unmodified stack, modified
// (single-copy) stack, and raw HIPPI.
#include "figure_sweep.h"

int main(int argc, char** argv) {
  using namespace nectar;
  return bench::figure_main(
      argc, argv, "fig5_alpha400", "Figure 5", core::HostParams::alpha3000_400(),
      [](const bench::FigureSweep& f) {
        // Shape checks the paper reports (printed, also enforced by tests).
        std::printf("Efficiency crossover between %.0f and %.0f bytes "
                    "(paper: between 8 KB and 16 KB)\n", f.cross_lo, f.cross_hi);
        if (!f.points.empty()) {
          const auto& last = f.points.back();
          std::printf("At %zu KB: single-copy efficiency %.1fx the unmodified stack "
                      "(paper: ~3x)\n",
                      last.write_size / 1024,
                      last.eff_unmod > 0 ? last.eff_mod / last.eff_unmod : 0.0);
        }
      });
}
