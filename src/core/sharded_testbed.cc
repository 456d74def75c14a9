#include "core/sharded_testbed.h"

#include <string>

namespace nectar::core {

ShardedTestbed::ShardedTestbed(ShardedTestbedOptions o)
    : engine(1 + 2 * (o.num_pairs == 0 ? 1 : o.num_pairs),
             o.wire_hop > 0 ? o.wire_hop : sim::usec(1.0), o.seed),
      opts(std::move(o)) {
  if (opts.num_pairs == 0) opts.num_pairs = 1;
  if (opts.wire_hop <= 0) opts.wire_hop = sim::usec(1.0);
  engine.set_workers(opts.workers);

  sim::Simulator& fsim = engine.sim(kFabricShard);
  sw = std::make_unique<hippi::Switch>(fsim, hippi::MacMode::kLogicalChannels);
  build_chain(fsim, *sw, opts);

  const HostParams hp = pair_params(opts.params, opts.arb);

  const std::size_t pairs = opts.num_pairs;
  uplinks.reserve(2 * pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::size_t cs = client_shard(i);
    const std::size_t ss = server_shard(i);
    clients.push_back(std::make_unique<Host>(engine.sim(cs), hp,
                                             "client" + std::to_string(i)));
    servers.push_back(std::make_unique<Host>(engine.sim(ss), hp,
                                             "server" + std::to_string(i)));
    uplinks.push_back(std::make_unique<hippi::ShardUplink>(
        engine, cs, kFabricShard, opts.wire_hop, fabric()));
    hippi::ShardUplink& up_c = *uplinks.back();
    uplinks.push_back(std::make_unique<hippi::ShardUplink>(
        engine, ss, kFabricShard, opts.wire_hop, fabric()));
    hippi::ShardUplink& up_s = *uplinks.back();
    attach_pair(i, *clients[i], up_c, *servers[i], up_s);
  }
  add_neighbor_mesh();
}

bool ShardedTestbed::run_until_done(const std::function<bool()>& done,
                                    sim::Time deadline) {
  return engine.run_until_done(done, deadline);
}

}  // namespace nectar::core
