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

  if (opts.telemetry) {
    tels.resize(engine.num_shards());
    for (std::size_t s = 0; s < engine.num_shards(); ++s) {
      tels[s] = std::make_unique<telemetry::Telemetry>(engine.sim(s));
      // Per-shard queue-depth gauge: epoch imbalance shows up as one shard's
      // pending-events series running hot.
      sim::Simulator* sim_p = &engine.sim(s);
      const int pid = tels[s]->register_process("shard" + std::to_string(s));
      tels[s]->register_gauge("shard.pending_events", pid, [sim_p] {
        return static_cast<double>(sim_p->pending());
      });
      tels[s]->start_ticker(opts.telemetry_tick);
    }
  }

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
    if (opts.telemetry) {
      clients[i]->set_telemetry(tels[cs].get());
      servers[i]->set_telemetry(tels[ss].get());
    }
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

std::vector<const telemetry::Telemetry*> ShardedTestbed::telemetries() const {
  std::vector<const telemetry::Telemetry*> out;
  out.reserve(tels.size());
  for (const auto& t : tels) out.push_back(t.get());
  return out;
}

bool ShardedTestbed::run_until_done(const std::function<bool()>& done,
                                    sim::Time deadline) {
  return engine.run_until_done(done, deadline);
}

}  // namespace nectar::core
