#include "core/host_params.h"

namespace nectar::core {

HostParams HostParams::alpha3000_400() {
  // The StackCosts, VmCosts (Table 2), CabConfig and pin-cache defaults are
  // this machine's calibration; only the SDMA command queue is deeper than
  // a bare CabConfig's.
  HostParams p;
  p.model = "DEC Alpha 3000/400";
  p.cab.sdma.queue_depth = 128;
  return p;
}

HostParams HostParams::alpha3000_300lx() {
  HostParams p = alpha3000_400();
  p.model = "DEC Alpha 3000/300LX";
  // "only about half as powerful": every CPU cost (per-op and per-byte)
  // doubles via the scale factor.
  p.cpu_scale = 2.0;
  // Half-speed TURBOchannel. The effective rate does not halve exactly —
  // per-transfer microcode overheads dominate part of the budget — so this
  // is calibrated to reproduce the Figure 6 crossing (see EXPERIMENTS.md).
  p.cab.sdma.bandwidth_bps = 16.0e6;  // ~128 Mbit/s effective
  return p;
}

}  // namespace nectar::core
