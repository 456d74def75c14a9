#include "core/testbed.h"

namespace nectar::core {

Testbed::Testbed(TestbedOptions o) : opts(std::move(o)) {
  wire = std::make_unique<hippi::DirectWire>(sim);
  build_chain(sim, *wire, opts, opts.with_partition);
  if (opts.trace_packets) {
    trace = std::make_unique<PacketTrace>(sim, fabric());
    outer_ = trace.get();
  }

  a = std::make_unique<Host>(sim, opts.params_a, "hostA");
  b = std::make_unique<Host>(sim, opts.params_b, "hostB");

  if (opts.telemetry) {
    tel = std::make_unique<telemetry::Telemetry>(sim);
    a->set_telemetry(tel.get());
    b->set_telemetry(tel.get());
    const int wire_pid = tel->register_process("wire");
    wire->set_telemetry(tel.get(), wire_pid);
    tel->register_gauge("sim.pending_events", wire_pid, [this] {
      return static_cast<double>(sim.pending());
    });
    tel->start_ticker(opts.telemetry_tick);
  }

  if (opts.overload) {
    // Before attach_cab: samplers register as the CABs appear.
    ovl_a = std::make_unique<overload::OverloadManager>(opts.overload_cfg);
    ovl_b = std::make_unique<overload::OverloadManager>(opts.overload_cfg);
    a->set_overload(ovl_a.get());
    b->set_overload(ovl_b.get());
  }

  const std::size_t mtu = opts.cab_mtu != 0 ? opts.cab_mtu : 32 * 1024;
  cab_a = &a->attach_cab(fabric(), kHaA, kIpA, mtu);
  cab_b = &b->attach_cab(fabric(), kHaB, kIpB, mtu);
  if (opts.offload) {
    cab_a->enable_offload(opts.offload_cfg);
    cab_b->enable_offload(opts.offload_cfg);
  }
  cab_a->add_neighbor(kIpB, kHaB);
  cab_b->add_neighbor(kIpA, kHaA);
  a->stack().routes().add(net::make_ip(10, 0, 0, 0), 24, cab_a);
  b->stack().routes().add(net::make_ip(10, 0, 0, 0), 24, cab_b);

  if (opts.with_ethernet) {
    ether = std::make_unique<drivers::EtherSegment>(sim, opts.ether_bandwidth_bps);
    eth_a = &a->attach_ether(*ether, kEthA);
    eth_b = &b->attach_ether(*ether, kEthB);
    a->stack().routes().add(net::make_ip(192, 168, 1, 0), 24, eth_a);
    b->stack().routes().add(net::make_ip(192, 168, 1, 0), 24, eth_b);
  }
}

}  // namespace nectar::core
