#include "core/testbed_core.h"

namespace nectar::core {

void ImpairmentChain::build_chain(sim::Simulator& sim, hippi::Fabric& bare,
                                  const ImpairmentSpec& spec,
                                  bool with_partition) {
  outer_ = &bare;
  // Each enabled layer wraps the chain so far and becomes its outside.
  const auto wrap = [this](auto& slot, auto layer) {
    outer_ = layer.get();
    layers_.push_back(layer.get());
    slot = std::move(layer);
  };
  if (spec.corrupt_rate > 0.0) {
    wrap(corrupt, std::make_unique<hippi::CorruptFabric>(
                      *outer_, spec.corrupt_rate, spec.corrupt_seed));
  }
  if (spec.reorder_rate > 0.0) {
    wrap(reorder,
         std::make_unique<hippi::ReorderFabric>(
             sim, *outer_, spec.reorder_rate, spec.reorder_hold, spec.reorder_seed));
  }
  if (spec.dup_rate > 0.0) {
    wrap(dup, std::make_unique<hippi::DupFabric>(*outer_, spec.dup_rate,
                                                 spec.dup_seed));
  }
  if (spec.loss_rate > 0.0) {
    wrap(lossy, std::make_unique<hippi::LossyFabric>(*outer_, spec.loss_rate,
                                                     spec.loss_seed));
  }
  if (!spec.partition_windows.empty() || with_partition) {
    wrap(partition, std::make_unique<hippi::PartitionFabric>(sim, *outer_));
    for (const auto& [start, end] : spec.partition_windows)
      partition->add_window(start, end);
  }
  if (spec.rate_limit_bps > 0.0) {
    wrap(rate_limit, std::make_unique<hippi::RateLimitFabric>(
                         sim, *outer_, spec.rate_limit_bps, spec.rate_limit_burst));
  }
}

std::vector<hippi::ImpairedFabric*> ImpairmentChain::impairments() const {
  return {layers_.rbegin(), layers_.rend()};
}

HostParams PairPlan::pair_params(HostParams params, cab::ArbPolicy arb) {
  params.cab.sdma.arb = arb;
  params.cab.mdma.arb = arb;
  return params;
}

void PairPlan::attach_pair(std::size_t i, Host& client,
                           hippi::Fabric& client_fabric, Host& server,
                           hippi::Fabric& server_fabric) {
  cab_clients.push_back(&client.attach_cab(
      client_fabric, static_cast<hippi::Addr>(kHaClientBase + i), client_ip(i)));
  cab_servers.push_back(&server.attach_cab(
      server_fabric, static_cast<hippi::Addr>(kHaServerBase + i), server_ip(i)));
  client.stack().routes().add(net::make_ip(10, 2, 0, 0), 16, cab_clients.back());
  server.stack().routes().add(net::make_ip(10, 1, 0, 0), 16, cab_servers.back());
}

void PairPlan::add_neighbor_mesh() {
  for (std::size_t i = 0; i < num_pairs(); ++i) {
    for (std::size_t j = 0; j < num_pairs(); ++j) {
      cab_clients[i]->add_neighbor(server_ip(j),
                                   static_cast<hippi::Addr>(kHaServerBase + j));
      cab_servers[i]->add_neighbor(client_ip(j),
                                   static_cast<hippi::Addr>(kHaClientBase + j));
    }
  }
}

}  // namespace nectar::core
