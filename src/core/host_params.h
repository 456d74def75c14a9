// Host cost models calibrated from the paper's own measurements (§7).
//
// The Alpha 3000/400 numbers come straight from §7.3:
//   * memory-memory copy of cold data:     350 Mbit/s
//   * checksum read pass (512 KB region):  630 Mbit/s
//   * per-packet protocol overhead:        ~300 us  (decomposed across the
//     StackCosts fields; see net/ifnet.h)
//   * pin/unpin/map:                       Table 2
// The adaptor-side bandwidth models the microcode-limited TURBOchannel
// transfer the paper identifies as the throughput bottleneck (§7.1: the CAB
// is designed for 300 Mbit/s but the TcIA cannot pipeline DMA or use large
// bursts, capping throughput below half of that).
//
// The Alpha 3000/300LX is "about half as powerful" with a half-speed
// TURBOchannel: cpu_scale doubles every CPU cost (per-byte and per-op alike),
// and the effective adaptor bandwidth drops. The exact adaptor figure is
// calibrated so the Figure 6 shape reproduces: the unmodified stack becomes
// CPU-bound below the adaptor limit while the single-copy stack still
// saturates the adaptor (see EXPERIMENTS.md).
#pragma once

#include <string>

#include "cab/cab_device.h"
#include "mem/vm.h"
#include "net/ifnet.h"

namespace nectar::core {

struct HostParams {
  std::string model;
  double cpu_scale = 1.0;
  net::StackCosts costs;
  mem::VmCosts vm;
  cab::CabConfig cab;
  std::size_t pin_cache_pages = 0;  // 0 = eager unpin (§4.4.1 base behaviour)

  static HostParams alpha3000_400();
  static HostParams alpha3000_300lx();
};

}  // namespace nectar::core
