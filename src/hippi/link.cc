#include "hippi/link.h"

#include <utility>

namespace nectar::hippi {

void DirectWire::submit(Packet&& p) {
  const FrameHeader h = p.header();
  auto it = eps_.find(h.dst);
  if (it == eps_.end()) {
    ++dropped_;
    return;
  }
  Endpoint* ep = it->second;
  ++delivered_;
  const std::uint64_t span_key =
      spans_.begin(telemetry::Stage::kLinkTransit, spans_.key(delivered_));
  sim_.after(propagation_, [this, ep, span_key, p = std::move(p)]() mutable {
    if (span_key != 0) spans_.end(telemetry::Stage::kLinkTransit, span_key);
    ep->hippi_receive(std::move(p));
  });
}

}  // namespace nectar::hippi
