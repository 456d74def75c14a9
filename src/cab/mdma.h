// The two media DMA engines (§2.1, §2.2).
//
// Transmit (MdmaXmit): moves a fully-formed packet from network memory onto
// the HIPPI media, occupying the media for the packet's serialization time.
// No host interrupt is needed for TCP data — the acknowledgement confirms
// delivery — but a completion callback is available (UDP/raw senders use it
// to release the outboard buffer).
//
// Receive (MdmaRecv): terminates the HIPPI attachment. An arriving packet is
// placed in network memory, its checksum computed on the way in (starting at
// the host-configured word offset), and the first L words are auto-DMAed
// into host memory through the shared SDMA engine; the host is then
// interrupted with a receive descriptor. Packets that fit entirely in the
// auto-DMA window release their outboard buffer immediately — the host sees
// a plain data packet (the "regular mbuf" receive path, §4.2).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "cab/sdma.h"
#include "hippi/framing.h"

namespace nectar::cab {

struct MdmaConfig {
  double line_rate_bps = hippi::kLineRateBps;  // 100 MByte/s
  sim::Duration setup = sim::usec(10);
  ArbPolicy arb = ArbPolicy::kFifo;  // transmit service discipline across flows
};

struct MdmaRequest {
  Handle handle = 0;
  std::size_t len = 0;  // bytes to transmit from `off`
  std::uint32_t flow = 0;  // owning transport flow (0 = unattributed)
  std::function<void()> on_complete;
  std::size_t off = 0;  // first buffer byte to transmit
  // Large-segment fan-out (TSO): when tso_seg_payload > 0 and the transport
  // payload (len - tso_hdr_len) exceeds it, the engine cuts the payload into
  // wire segments of at most tso_seg_payload bytes, replicating the first
  // tso_hdr_len header bytes per segment with length/sequence/checksum
  // fixups — one engine setup for the whole burst.
  std::size_t tso_hdr_len = 0;
  std::size_t tso_seg_payload = 0;
  std::uint64_t id = 0;  // assigned by the engine (last: not brace-initialized)
};

struct MdmaXmitStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  sim::Duration busy_time = 0;
  std::uint64_t errors = 0;   // injected media errors (packet never sent)
  std::uint64_t aborted = 0;  // requests dropped by abort_all (reset)
  std::uint64_t tso_requests = 0;   // multi-segment fan-outs
  std::uint64_t tso_wire_segs = 0;  // wire packets those produced
};

// The queue, stall, error-injection, reset and span lifecycle is DmaEngine's.
// An injected error fails the next wire packet to start (each segment of a
// fan-out counts): its completion still fires, so refcounts drop, but nothing
// reaches the fabric — a wire loss, from the transport's point of view.
class MdmaXmit : public DmaEngine<MdmaXmit, MdmaRequest, MdmaXmitStats> {
 public:
  using Request = MdmaRequest;

  // Per-segment checksum fixups during fan-out use the board's checksum unit.
  MdmaXmit(sim::Simulator& sim, NetworkMemory& nm, hippi::Fabric& fabric,
           ChecksumEngine& csum, const MdmaConfig& cfg)
      : DmaEngine(sim, cfg.arb, telemetry::Stage::kMdmaQueue,
                  telemetry::Stage::kMdmaXfer),
        nm_(nm),
        fabric_(&fabric),
        csum_(csum),
        cfg_(cfg) {}

  void post(Request r) { enqueue(std::move(r)); }

 private:
  friend DmaEngine;
  void start(Request r);
  void start_tso(Request r);
  static void complete(Request& r, bool /*aborted*/) {
    if (r.on_complete) r.on_complete();
  }
  // One wire packet of `req` leaves the engine once the media has carried
  // `cum_bytes` of the request: onto the fabric, or nowhere when it takes an
  // injected error. The last packet ends the transfer.
  void transmit(std::shared_ptr<hippi::Packet> pkt, std::shared_ptr<Request> req,
                std::size_t cum_bytes, bool last, bool fanout);

  NetworkMemory& nm_;
  hippi::Fabric* fabric_;
  ChecksumEngine& csum_;
  MdmaConfig cfg_;
};

// Receive descriptor handed to the host interrupt handler.
struct RecvDesc {
  std::optional<Handle> handle;    // residual outboard data, if any
  std::vector<std::byte> head;     // first min(L*4, len) bytes of the packet
  std::size_t total_len = 0;       // full packet length
  std::uint32_t hw_sum = 0;        // ones-sum from rx skip offset to end
};

class MdmaRecv final : public hippi::Endpoint {
 public:
  MdmaRecv(sim::Simulator& sim, NetworkMemory& nm, SdmaEngine& sdma,
           const MdmaConfig& cfg)
      : sim_(sim), nm_(nm), sdma_(sdma), cfg_(cfg) {}

  // Host-configurable (§2.2, §4.3).
  void set_autodma_words(std::uint32_t l) noexcept { autodma_words_ = l; }
  void set_rx_skip_words(std::uint16_t s) noexcept { rx_skip_words_ = s; }
  [[nodiscard]] std::uint32_t autodma_words() const noexcept { return autodma_words_; }
  [[nodiscard]] std::uint32_t autodma_bytes() const noexcept { return autodma_words_ * 4; }

  void set_deliver(std::function<void(RecvDesc&&)> fn) { deliver_ = std::move(fn); }

  // Opt-in span tracing: recv_dma spans cover frame-landed -> host notified.
  void set_telemetry(telemetry::Telemetry* tel, int pid) { spans_.attach(tel, pid); }

  void hippi_receive(hippi::Packet&& p) override;

  // Stall: a wedged receive engine cannot terminate the attachment, so
  // arriving packets are dropped on the floor (counted) until unstalled.
  void set_stalled(bool s) noexcept { stalled_ = s; }
  [[nodiscard]] bool stalled() const noexcept { return stalled_; }

  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t drops_no_memory = 0;
    std::uint64_t drops_stalled = 0;   // engine wedged by a fault
    std::uint64_t drops_autodma_failed = 0;  // head SDMA failed; packet lost
    std::uint64_t fully_autodma = 0;  // packets that fit in the window
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  sim::Simulator& sim_;
  NetworkMemory& nm_;
  SdmaEngine& sdma_;
  MdmaConfig cfg_;
  telemetry::SpanSource spans_;
  bool stalled_ = false;
  std::uint32_t autodma_words_ = 176;  // paper's value
  std::uint16_t rx_skip_words_ = 20;   // HIPPI + IP headers
  std::function<void(RecvDesc&&)> deliver_;
  Stats stats_;
};

}  // namespace nectar::cab
