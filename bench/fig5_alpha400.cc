// Figure 5 (paper §7.2): throughput, utilization, and efficiency vs
// read/write size on the Alpha 3000/400 — unmodified stack, modified
// (single-copy) stack, and raw HIPPI.
#include <cstdio>
#include <string>

#include "bench_flags.h"
#include "apps/experiment.h"
#include "core/json.h"

int main(int argc, char** argv) {
  using namespace nectar;
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_fig5_alpha400.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  const core::HostParams params = core::HostParams::alpha3000_400();
  std::vector<std::size_t> sizes;
  for (std::size_t kb = 1; kb <= 512; kb *= 2) sizes.push_back(kb * 1024);
  if (quick) sizes = {4 * 1024, 32 * 1024, 256 * 1024};
  const std::size_t bytes = quick ? 2 * 1024 * 1024 : 8 * 1024 * 1024;

  std::printf("Figure 5: %s, TCP window 512 KB, MTU 32 KB\n", params.model.c_str());
  std::printf("%9s | %9s %9s %9s | %9s %9s %9s | %9s\n", "size", "unmod",
              "util", "eff", "1-copy", "util", "eff", "rawHIPPI");
  std::printf("%9s | %9s %9s %9s | %9s %9s %9s | %9s\n", "(bytes)", "(Mb/s)",
              "", "(Mb/s)", "(Mb/s)", "", "(Mb/s)", "(Mb/s)");
  std::printf("-------------------------------------------------------------------------------\n");

  auto points = apps::run_figure_sweep(params, sizes, bytes);
  for (const auto& p : points) {
    std::printf("%9zu | %9.1f %9.2f %9.1f | %9.1f %9.2f %9.1f | %9.1f%s\n",
                p.write_size, p.tput_unmod, p.util_unmod, p.eff_unmod, p.tput_mod,
                p.util_mod, p.eff_mod, p.tput_raw, p.ok ? "" : "  [INCOMPLETE]");
  }

  // Shape checks the paper reports (printed, also enforced by tests).
  double cross_lo = 0, cross_hi = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i - 1].eff_mod < points[i - 1].eff_unmod &&
        points[i].eff_mod >= points[i].eff_unmod) {
      cross_lo = static_cast<double>(points[i - 1].write_size);
      cross_hi = static_cast<double>(points[i].write_size);
    }
  }
  std::printf("\nEfficiency crossover between %.0f and %.0f bytes "
              "(paper: between 8 KB and 16 KB)\n", cross_lo, cross_hi);
  if (!points.empty()) {
    const auto& last = points.back();
    std::printf("At %zu KB: single-copy efficiency %.1fx the unmodified stack "
                "(paper: ~3x)\n",
                last.write_size / 1024,
                last.eff_unmod > 0 ? last.eff_mod / last.eff_unmod : 0.0);
  }

  if (json.on) {
    core::Json root = core::Json::object();
    root.set("bench", "fig5_alpha400");
    root.set("schema_version", 1);
    root.set("model", params.model);
    root.set("quick", quick);
    root.set("bytes_per_point", static_cast<std::uint64_t>(bytes));
    core::Json arr = core::Json::array();
    for (const auto& p : points) {
      core::Json j = core::Json::object();
      j.set("write_size", static_cast<std::uint64_t>(p.write_size));
      j.set("tput_unmod_mbps", p.tput_unmod);
      j.set("util_unmod", p.util_unmod);
      j.set("eff_unmod_mbps", p.eff_unmod);
      j.set("tput_mod_mbps", p.tput_mod);
      j.set("util_mod", p.util_mod);
      j.set("eff_mod_mbps", p.eff_mod);
      j.set("tput_raw_mbps", p.tput_raw);
      j.set("ok", p.ok);
      arr.push_back(std::move(j));
    }
    root.set("points", std::move(arr));
    root.set("crossover_lo_bytes", cross_lo);
    root.set("crossover_hi_bytes", cross_hi);
    if (!bench::write_json(json, root)) return 1;
  }
  return 0;
}
