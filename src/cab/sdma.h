// The SDMA engine: scatter/gather DMA between host memory and CAB network
// memory over the (TcIA-limited) TURBOchannel (§2.1, §2.2, §7.1).
//
// One engine serves both directions plus receive auto-DMA, so all host<->CAB
// traffic contends for the same bus bandwidth — the bottleneck the paper
// identifies ("the bottleneck is the transfer of data across the
// Turbochannel"). Requests queue FIFO behind a bounded command queue (the
// register file); the host driver must check queue space.
//
// Alignment (§4.5): starting addresses in host memory must be 32-bit word
// aligned. The engine *rejects* misaligned segments by throwing — the driver
// is responsible for routing unaligned requests through the copy path, so a
// throw here is a host software bug, exactly as it would be a wedged device
// on real hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cab/checksum_engine.h"
#include "cab/dma_engine.h"
#include "cab/network_memory.h"
#include "mem/address_space.h"

namespace nectar::cab {

using SdmaSeg = mem::HostSeg;

struct SdmaRequest {
  enum class Dir { kToCab, kFromCab };
  Dir dir = Dir::kToCab;
  Handle handle = 0;
  std::size_t cab_off = 0;       // offset within the packet buffer
  std::vector<SdmaSeg> segs;     // host side, in stream order

  // Transmit checksum (kToCab only).
  bool csum_enable = false;
  std::uint16_t skip_words = 0;   // S
  std::uint16_t csum_offset = 0;  // byte offset of checksum field in packet
  // Header-rewrite (re)transmission: this request carries only headers; the
  // engine combines the seed with the packet's saved body sum.
  bool header_rewrite = false;
  // Data staging (copy-in before headers exist): compute and save the body
  // sum over this transfer, but do not touch any checksum field yet.
  bool body_sum_only = false;
  // Large-segment staging: with body_sum_only, also save one partial sum per
  // `seg_stride`-byte slice of the transfer so the MDMA fan-out can checksum
  // each wire segment without re-reading the data (NetworkMemory::SegSums).
  std::uint16_t seg_stride = 0;

  bool interrupt_on_done = false;  // paper: only the last SDMA of a write
  std::uint32_t flow = 0;          // owning transport flow (0 = unattributed)
  std::uint64_t id = 0;            // assigned by the engine
  // Set by the engine before on_complete when the transfer did not happen:
  // an injected transfer error, a checksum-unit parity abort, or an abort_all
  // during adaptor reset. No bytes moved and no checksum field was written.
  bool failed = false;
  std::function<void(const SdmaRequest&)> on_complete;
};

struct SdmaConfig {
  // Effective TURBOchannel payload rate: the microcode-limited ~150 Mbit/s,
  // "less than half" of the 300 Mbit/s design point (§7.1).
  double bandwidth_bps = 18.75e6;
  sim::Duration setup = sim::usec(20);  // per-request engine overhead
  std::size_t queue_depth = 64;
  ArbPolicy arb = ArbPolicy::kFifo;     // service discipline across flows
};

struct SdmaStats {
  std::uint64_t requests = 0;  // completions, failed ones included
  std::uint64_t bytes_to_cab = 0;
  std::uint64_t bytes_from_cab = 0;
  sim::Duration busy_time = 0;
  std::uint64_t errors = 0;    // injected transfer / checksum-parity errors
  std::uint64_t aborted = 0;   // requests failed by abort_all (reset)
};

// The queue, stall, error-injection, reset and span lifecycle is DmaEngine's.
// An injected error fails the next request to complete: no bytes move.
class SdmaEngine : public DmaEngine<SdmaEngine, SdmaRequest, SdmaStats> {
 public:
  SdmaEngine(sim::Simulator& sim, NetworkMemory& nm, const SdmaConfig& cfg)
      : DmaEngine(sim, cfg.arb, telemetry::Stage::kSdmaQueue,
                  telemetry::Stage::kSdmaXfer),
        nm_(nm),
        cfg_(cfg) {}

  // Returns false if the command queue is full (request not accepted).
  bool post(SdmaRequest r);

  [[nodiscard]] std::size_t queue_space() const noexcept {
    return cfg_.queue_depth - arb().size() - (busy() ? 1 : 0);
  }
  [[nodiscard]] ChecksumEngine& checksum() noexcept { return csum_; }

 private:
  friend DmaEngine;
  void start(SdmaRequest r);
  void complete(SdmaRequest& r, bool aborted);
  void execute(SdmaRequest& r);

  NetworkMemory& nm_;
  SdmaConfig cfg_;
  ChecksumEngine csum_;
};

}  // namespace nectar::cab
