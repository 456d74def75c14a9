#include "core/multi_testbed.h"

namespace nectar::core {

MultiTestbed::MultiTestbed(MultiTestbedOptions o) : opts(std::move(o)) {
  if (opts.num_pairs == 0) opts.num_pairs = 1;
  sw = std::make_unique<hippi::Switch>(sim, hippi::MacMode::kLogicalChannels);
  build_chain(sim, *sw, opts);

  const HostParams hp = pair_params(opts.params, opts.arb);

  if (opts.telemetry) tel = std::make_unique<telemetry::Telemetry>(sim);

  for (std::size_t i = 0; i < opts.num_pairs; ++i) {
    clients.push_back(std::make_unique<Host>(
        sim, hp, "client" + std::to_string(i)));
    servers.push_back(std::make_unique<Host>(
        sim, hp, "server" + std::to_string(i)));
    if (tel) {
      clients[i]->set_telemetry(tel.get());
      servers[i]->set_telemetry(tel.get());
    }
    if (opts.overload) {
      // set_overload before attach_cab: the hosts register their CAB
      // samplers as the devices appear.
      for (Host* h : {clients[i].get(), servers[i].get()}) {
        overload_mgrs.push_back(
            std::make_unique<overload::OverloadManager>(opts.overload_cfg));
        h->set_overload(overload_mgrs.back().get());
      }
    }
    attach_pair(i, *clients[i], fabric(), *servers[i], fabric());
  }
  add_neighbor_mesh();
  if (tel) {
    const int sim_pid = tel->register_process("sim");
    tel->register_gauge("sim.pending_events", sim_pid, [this] {
      return static_cast<double>(sim.pending());
    });
    tel->start_ticker(opts.telemetry_tick);
  }
}

}  // namespace nectar::core
