// The body Figures 5 and 6 (paper §7.2) share: ttcp at 1 KB-512 KB writes on
// one host model — unmodified stack, modified (single-copy) stack and raw
// HIPPI — printed as one table and, with --json, written as
// BENCH_<bench>.json. Each figure's main adds its own summary line.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "apps/experiment.h"
#include "core/json.h"

namespace nectar::bench {

struct FigureSweep {
  std::vector<apps::StackSweepPoint> points;
  // The last write-size step at which single-copy efficiency overtakes the
  // unmodified stack's (0, 0 if it never does).
  double cross_lo = 0;
  double cross_hi = 0;
};

inline int figure_main(int argc, char** argv, const char* bench,
                       const char* figure, const core::HostParams& params,
                       void (*summary)(const FigureSweep&)) {
  Flag quick_flag{"--quick"};
  const std::string json_path = std::string("BENCH_") + bench + ".json";
  Flag json{"--json", json_path.c_str()};
  parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  std::vector<std::size_t> sizes;
  for (std::size_t kb = 1; kb <= 512; kb *= 2) sizes.push_back(kb * 1024);
  if (quick) sizes = {4 * 1024, 32 * 1024, 256 * 1024};
  const std::size_t bytes = quick ? 2 * 1024 * 1024 : 8 * 1024 * 1024;

  std::printf("%s: %s, TCP window 512 KB, MTU 32 KB\n", figure, params.model.c_str());
  std::printf("%9s | %9s %9s %9s | %9s %9s %9s | %9s\n", "size", "unmod",
              "util", "eff", "1-copy", "util", "eff", "rawHIPPI");
  std::printf("%9s | %9s %9s %9s | %9s %9s %9s | %9s\n", "(bytes)", "(Mb/s)",
              "", "(Mb/s)", "(Mb/s)", "", "(Mb/s)", "(Mb/s)");
  std::printf("-------------------------------------------------------------------------------\n");

  FigureSweep f;
  f.points = apps::run_figure_sweep(params, sizes, bytes);
  for (const auto& p : f.points) {
    std::printf("%9zu | %9.1f %9.2f %9.1f | %9.1f %9.2f %9.1f | %9.1f%s\n",
                p.write_size, p.tput_unmod, p.util_unmod, p.eff_unmod, p.tput_mod,
                p.util_mod, p.eff_mod, p.tput_raw, p.ok ? "" : "  [INCOMPLETE]");
  }
  for (std::size_t i = 1; i < f.points.size(); ++i) {
    if (f.points[i - 1].eff_mod < f.points[i - 1].eff_unmod &&
        f.points[i].eff_mod >= f.points[i].eff_unmod) {
      f.cross_lo = static_cast<double>(f.points[i - 1].write_size);
      f.cross_hi = static_cast<double>(f.points[i].write_size);
    }
  }
  std::printf("\n");
  summary(f);

  if (json.on) {
    core::Json root = core::Json::object();
    root.set("bench", bench);
    root.set("schema_version", 1);
    root.set("model", params.model);
    root.set("quick", quick);
    root.set("bytes_per_point", static_cast<std::uint64_t>(bytes));
    core::Json arr = core::Json::array();
    for (const auto& p : f.points) {
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
    root.set("crossover_lo_bytes", f.cross_lo);
    root.set("crossover_hi_bytes", f.cross_hi);
    if (!write_json(json, root)) return 1;
  }
  return 0;
}

}  // namespace nectar::bench
