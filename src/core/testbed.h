// Testbed: the standard two-host experiment topology used by the tests,
// benchmarks, and examples.
//
//   host A (10.0.0.1) --CAB-- [HIPPI wire, optional impairments] --CAB-- host B (10.0.0.2)
//        \--Ethernet (192.168.1.1) ---- shared segment ---- (192.168.1.2)--/
//
// The Ethernet side (optional) exists to exercise the §5 interop paths: the
// same sockets and the same stack reach both interfaces, chosen by routing.
#pragma once

#include <memory>

#include "core/packet_trace.h"
#include "core/stats.h"
#include "core/testbed_core.h"
#include "hippi/link.h"

namespace nectar::core {

struct TestbedOptions : ImpairmentSpec, TelemetrySpec {
  HostParams params_a = HostParams::alpha3000_400();
  bool trace_packets = false;  // interpose a PacketTrace on the HIPPI fabric
  HostParams params_b = HostParams::alpha3000_400();
  // Create the PartitionFabric even with no windows, so a FaultInjector can
  // flap the link at runtime (fault::FaultKind::kLinkFlap).
  bool with_partition = false;
  bool with_ethernet = false;
  double ether_bandwidth_bps = 10e6 / 8.0;  // classic 10 Mbit/s Ethernet
  // Wire MTU of both CAB interfaces (0 = the attach_cab default, 32 KB).
  std::size_t cab_mtu = 0;
  // Large-segment offload (TSO/GRO analogue) on both CAB drivers.
  bool offload = false;
  drivers::OffloadConfig offload_cfg = {};
  // Overload-survival subsystem: one OverloadManager per host.
  bool overload = false;
  overload::OverloadConfig overload_cfg = {};
};

class Testbed : public FlatSim, public ImpairmentChain {
 public:
  explicit Testbed(TestbedOptions opts = {});

  static constexpr net::IpAddr kIpA = net::make_ip(10, 0, 0, 1);
  static constexpr net::IpAddr kIpB = net::make_ip(10, 0, 0, 2);
  static constexpr net::IpAddr kEthA = net::make_ip(192, 168, 1, 1);
  static constexpr net::IpAddr kEthB = net::make_ip(192, 168, 1, 2);
  static constexpr hippi::Addr kHaA = 0x101;
  static constexpr hippi::Addr kHaB = 0x102;

  TestbedOptions opts;

  // Fabric chain, innermost first: the wire, the enabled impairments, then
  // the trace. fabric() returns the outermost layer.
  std::unique_ptr<hippi::DirectWire> wire;
  std::unique_ptr<PacketTrace> trace;  // when trace_packets
  std::unique_ptr<drivers::EtherSegment> ether;

  std::unique_ptr<telemetry::Telemetry> tel;  // when opts.telemetry
  // Per-host overload managers (when opts.overload).
  std::unique_ptr<overload::OverloadManager> ovl_a;
  std::unique_ptr<overload::OverloadManager> ovl_b;

  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
  drivers::CabDriver* cab_a = nullptr;
  drivers::CabDriver* cab_b = nullptr;
  drivers::EtherDriver* eth_a = nullptr;
  drivers::EtherDriver* eth_b = nullptr;
};

}  // namespace nectar::core
