// SpanSource: one span producer's handle on the Telemetry registry.
//
// Producers with their own dense id counters (SDMA/MDMA request ids, outboard
// allocations, received frames, wire frames) key their spans by those ids.
// Each source takes a private key namespace from the registry when attached
// and ORs an id's low 40 bits under it, so two producers' id 7 cannot collide
// in the open-span table. Detached (the default), every span call is a no-op.
#pragma once

#include <cstdint>

#include "telemetry/telemetry.h"

namespace nectar::telemetry {

class SpanSource {
 public:
  // Attach to `tel` as trace process `pid` under a fresh key namespace;
  // null detaches.
  void attach(Telemetry* tel, int pid) {
    tel_ = tel;
    pid_ = pid;
    ns_ = tel != nullptr ? tel->alloc_key_namespace() : 0;
  }

  // The span key of the producer's id `n`.
  [[nodiscard]] std::uint64_t key(std::uint64_t n) const noexcept {
    return ns_ | (n & ((1ull << 40) - 1));
  }

  // Opens a span under `key` and returns the key, or 0 when detached.
  std::uint64_t begin(Stage s, std::uint64_t key, std::uint32_t flow = 0) {
    if (tel_ == nullptr) return 0;
    tel_->span_begin(s, pid_, key, flow);
    return key;
  }
  void end(Stage s, std::uint64_t key) {
    if (tel_ != nullptr) tel_->span_end(s, key);
  }

  // For producers without an id of their own: begin() under the next value
  // of the source's counter, which counts only while attached.
  std::uint64_t begin_next(Stage s) {
    return tel_ != nullptr ? begin(s, key(++seq_)) : 0;
  }

 private:
  Telemetry* tel_ = nullptr;
  int pid_ = 0;
  std::uint64_t ns_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace nectar::telemetry
