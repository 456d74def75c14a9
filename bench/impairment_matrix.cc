// Impairment matrix: seeded ttcp transfers over each impairment fabric (and
// a combined worst-case wire), verifying that TCP + the outboard checksum
// path deliver byte-identical data, and exporting every counter as JSON
// (BENCH_impairment_matrix.json) via the Netstat exporter.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "apps/ttcp.h"
#include "core/netstat.h"
#include "net/ip.h"

namespace {

using namespace nectar;

struct Cell {
  std::string name;
  std::function<void(core::TestbedOptions&)> configure;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Flag quick_flag{"--quick"};
  bench::Flag json{"--json", "BENCH_impairment_matrix.json"};
  bench::parse_flags(argc, argv, {&quick_flag, &json});
  const bool quick = quick_flag.on;

  const std::size_t total = quick ? 512 * 1024 : 4 * 1024 * 1024;

  const std::vector<Cell> cells = {
      {"baseline", [](core::TestbedOptions&) {}},
      {"loss_2pct", [](core::TestbedOptions& o) { o.loss_rate = 0.02; }},
      {"corrupt_2pct", [](core::TestbedOptions& o) { o.corrupt_rate = 0.02; }},
      {"dup_5pct", [](core::TestbedOptions& o) { o.dup_rate = 0.05; }},
      {"reorder_5pct", [](core::TestbedOptions& o) {
         o.reorder_rate = 0.05;
         o.reorder_hold = sim::usec(200.0);
       }},
      {"rate_20MBps", [](core::TestbedOptions& o) {
         o.rate_limit_bps = 20e6;
         o.rate_limit_burst = 128 * 1024;
       }},
      {"partition_50ms", [](core::TestbedOptions& o) {
         o.partition_windows.push_back({sim::msec(10), sim::msec(60)});
       }},
      {"combined", [](core::TestbedOptions& o) {
         o.loss_rate = 0.01;
         o.corrupt_rate = 0.01;
         o.dup_rate = 0.02;
         o.reorder_rate = 0.02;
         o.reorder_hold = sim::usec(200.0);
       }},
  };

  std::printf("Impairment matrix: %zu KB per cell, window 512 KB\n", total / 1024);
  std::printf("%-15s | %5s %9s %7s | %7s %7s %7s %7s\n", "cell", "ok",
              "Mb/s", "errs", "rexmt", "csumdrp", "dupsegs", "ooo");
  std::printf("---------------------------------------------------------------------\n");

  core::Json out = core::Json::object();
  out.set("bench", "impairment_matrix");
  out.set("schema_version", 1);
  out.set("total_bytes", static_cast<std::uint64_t>(total));
  core::Json jcells = core::Json::array();

  bool all_ok = true;
  for (const auto& cell : cells) {
    core::TestbedOptions opts;
    cell.configure(opts);
    core::Testbed tb(opts);

    apps::TtcpConfig cfg;
    cfg.total_bytes = total;
    cfg.write_size = 32 * 1024;
    cfg.verify_data = true;
    const auto r = apps::run_ttcp(tb, cfg);

    const auto& ip_a = tb.a->stack().ip().stats();
    const auto& ip_b = tb.b->stack().ip().stats();
    const auto& st_a = tb.a->stack().stats();
    const auto& st_b = tb.b->stack().stats();
    const std::uint64_t csum_drops =
        ip_a.bad_checksum + ip_b.bad_checksum + st_a.bad_checksum +
        st_b.bad_checksum + r.sender_tcp.bad_checksum +
        r.receiver_tcp.bad_checksum;
    const std::uint64_t rexmt =
        r.sender_tcp.rexmt_segs + r.receiver_tcp.rexmt_segs;
    const std::uint64_t dup_segs =
        r.sender_tcp.dup_segs_in + r.receiver_tcp.dup_segs_in;
    const std::uint64_t ooo = r.sender_tcp.ooo_segs + r.receiver_tcp.ooo_segs;

    std::printf("%-15s | %5s %9.1f %7llu | %7llu %7llu %7llu %7llu\n",
                cell.name.c_str(), r.completed ? "yes" : "NO",
                r.throughput_mbps,
                static_cast<unsigned long long>(r.data_errors),
                static_cast<unsigned long long>(rexmt),
                static_cast<unsigned long long>(csum_drops),
                static_cast<unsigned long long>(dup_segs),
                static_cast<unsigned long long>(ooo));
    all_ok = all_ok && r.completed && r.data_errors == 0;

    core::Json j = core::Json::object();
    j.set("cell", cell.name);
    j.set("completed", r.completed);
    j.set("throughput_mbps", r.throughput_mbps);
    j.set("data_errors", r.data_errors);
    j.set("checksum_drops", csum_drops);
    j.set("impairments", core::impairments_json(tb.impairments()));
    j.set("sender_tcp", core::tcp_stats_json(r.sender_tcp));
    j.set("receiver_tcp", core::tcp_stats_json(r.receiver_tcp));
    j.set("netstat_a", core::Netstat(*tb.a).json());
    j.set("netstat_b", core::Netstat(*tb.b).json());
    jcells.push_back(std::move(j));
  }
  out.set("cells", std::move(jcells));
  out.set("all_ok", all_ok);

  if (!bench::write_json(json, out)) return 1;
  return all_ok ? 0 : 1;
}
