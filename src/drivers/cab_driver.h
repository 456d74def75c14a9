// The CAB device driver (§2.2 walk-through, §3, §4).
//
// Transmit: fully-formed packets arrive from IP. The driver prepends the
// HIPPI header, allocates an outboard packet buffer, and posts one SDMA
// request gathering the kernel headers and the data — regular mbufs (kernel
// memory), M_UIO mbufs (user memory, word-aligned by the socket layer) — in
// one pass, with the transmit checksum computed by the engine during the
// transfer. The MDMA transmit is chained to SDMA completion ("an MDMA
// request ... can be issued at the same time", §2.2). M_WCAB data
// retransmits with a header-only SDMA (header_rewrite) that reuses the saved
// body checksum (§4.3).
//
// Receive: the device auto-DMAs the first L words plus the hardware checksum
// and interrupts; the driver wraps the host-resident head in a regular mbuf,
// the outboard remainder (if any) in an M_WCAB mbuf, and feeds ip_input.
//
// Copy-out (§3): soreceive and the interop layer call copy_out to move
// outboard data to user/kernel memory via SDMA.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>

#include "cab/cab_device.h"
#include "net/ifnet.h"
#include "net/netstack.h"

namespace nectar::drivers {

// Large-segment offload tuning (opt-in via CabDriver::enable_offload).
struct OffloadConfig {
  // Send: wire MTUs the socket layer may stage into one outboard
  // super-segment; the MDMA engine cuts it at transmit time.
  std::size_t tso_max = 4;
};

// Receive coalescing: completion descriptors held back per batch (one
// interrupt per batch), and how long the first held descriptor may wait.
inline constexpr std::size_t kGroBudget = 8;
inline constexpr sim::Duration kGroFlushWindow = sim::usec(100);
// Merged-record payload cap (must leave room for IP/TCP headers under the
// 64 KB IP length limit).
inline constexpr std::size_t kGroMaxBytes = 60000;

class CabDriver final : public net::Ifnet {
 public:
  CabDriver(std::string name, net::IpAddr addr, cab::CabDevice& dev,
            std::size_t mtu = 32 * 1024)
      : Ifnet(std::move(name), addr, mtu,
              net::kCapSingleCopy | net::kCapHwChecksum),
        dev_(dev) {
    dev_.mdma_recv().set_deliver([this](cab::RecvDesc&& d) { handle_recv(std::move(d)); });
  }

  // Static neighbour table (ARP stand-in): IP next hop -> HIPPI address.
  void add_neighbor(net::IpAddr ip, hippi::Addr ha) { neighbors_[ip] = ha; }

  sim::Task<void> output(net::KernCtx ctx, mbuf::Mbuf* pkt,
                         net::IpAddr next_hop) override;

  sim::Task<void> copy_out(net::KernCtx ctx, const mbuf::Wcab& w,
                           std::vector<mem::HostSeg> dst,
                           mbuf::DmaSync* sync) override;

  sim::Task<void> copy_in(net::KernCtx ctx, mem::Uio data, std::size_t header_space,
                          std::function<void(mbuf::Wcab)> done,
                          std::size_t seg_stride = 0) override;

  // HIPPI(60) + IP(20) + TCP(20): the header block every data packet needs.
  [[nodiscard]] std::size_t tx_header_space() const override {
    return hippi::kHeaderSize + 40;
  }

  // Multi-MTU staging quota: tso_max while the board is healthy, 1 when
  // offload is off or the driver degraded to the host bounce path (so a
  // degraded window never mixes hardware- and software-checksummed regions
  // inside one descriptor).
  [[nodiscard]] std::size_t tx_tso_segs() const override {
    if (!offload_enabled_ || degraded_ != 0 || state_ != AdaptorState::kUp)
      return 1;
    return oc_.tso_max;
  }

  // Weighted-fair arbitration class: forward the flow's weight to both DMA
  // engines' arbiters (no-op under kFifo/kRoundRobin).
  void set_flow_weight(std::uint32_t flow, std::uint32_t weight) override {
    dev_.sdma().set_flow_weight(flow, weight);
    dev_.mdma_xmit().set_flow_weight(flow, weight);
  }

  [[nodiscard]] cab::CabDevice& device() noexcept { return dev_; }

  [[nodiscard]] const mbuf::OutboardOwner* outboard_owner() const override {
    return &dev_;
  }

  struct DrvStats {
    std::uint64_t tx_fresh = 0;        // full SDMA transmissions
    std::uint64_t tx_rewrite = 0;      // WCAB header-rewrite retransmissions
    std::uint64_t tx_no_memory = 0;    // outboard allocation failures
    std::uint64_t rx_wcab = 0;         // packets delivered with outboard residue
    std::uint64_t rx_small = 0;        // fully auto-DMAed packets
    std::uint64_t copyouts = 0;
  };
  DrvStats drv_stats;

  // --- large-segment offload (TSO/GRO analogue) ------------------------------

  void enable_offload(const OffloadConfig& oc = {});
  [[nodiscard]] bool offload_enabled() const noexcept { return offload_enabled_; }
  [[nodiscard]] const OffloadConfig& offload_config() const noexcept { return oc_; }

  struct OffloadStats {
    std::uint64_t tx_super_segs = 0;     // multi-MTU descriptors transmitted
    std::uint64_t tx_wire_segs = 0;      // wire segments those fanned out to
    std::uint64_t tx_tso_bytes = 0;      // payload bytes sent via fan-out
    std::uint64_t tx_fallback_host_seg = 0;  // stagings forced back to 1 MTU
    std::uint64_t rx_batches = 0;        // coalescing flushes (one interrupt each)
    std::uint64_t rx_batched_descs = 0;  // descriptors that went through a batch
    std::uint64_t rx_merged_segs = 0;    // segments absorbed into a predecessor
    std::uint64_t rx_merged_bytes = 0;   // payload bytes those carried
    std::uint64_t rx_csum_verified = 0;  // per-segment hw checksums verified
    std::uint64_t rx_flush_budget = 0;   // flushes triggered by the budget
    std::uint64_t rx_flush_timer = 0;    // flushes triggered by the hold timer
    std::uint64_t rx_flush_barrier = 0;  // merge runs cut by a hole/flag/corruption
    std::uint64_t rx_gro_bypass = 0;     // descs delivered directly (degraded)
  };
  OffloadStats off_stats;

  // --- fault recovery & graceful degradation --------------------------------
  //
  // Opt-in (enable_recovery): a watchdog probes adaptor health, a reset state
  // machine un-wedges a stalled board with bounded exponential backoff, and
  // degraded modes reroute traffic to the host bounce path (copy + software
  // checksum — the paper's host-checksum baseline as a live failover) while
  // the checksum unit or network memory is unusable.

  enum class AdaptorState { kUp, kResetting };
  enum DegradeReason : unsigned {
    kDegradeCsum = 0x1,   // checksum unit failed: sw checksum, rx bounce
    kDegradeNoMem = 0x2,  // outboard memory unusable: stop pinning user data
  };

  struct RecoveryStats {
    std::uint64_t watchdog_fires = 0;
    std::uint64_t resets = 0;            // reset attempts started
    std::uint64_t reset_failures = 0;    // board still wedged after a reset
    std::uint64_t reset_completes = 0;
    std::uint64_t degrade_enter_csum = 0;
    std::uint64_t degrade_exit_csum = 0;
    std::uint64_t degrade_enter_nomem = 0;
    std::uint64_t degrade_exit_nomem = 0;
    std::uint64_t tx_dropped_resetting = 0;  // output() during a reset
    std::uint64_t tx_dma_failed = 0;         // fresh/rewrite SDMA failures
    std::uint64_t rx_bounced = 0;            // residue bounced to host memory
    std::uint64_t rx_bounce_failed = 0;      // bounce DMA failed; packet lost
    std::uint64_t copy_in_sw_csum = 0;       // staged with a software body sum
    std::uint64_t copy_in_retries = 0;
    std::uint64_t copyout_retries = 0;
    std::uint64_t copyouts_failed = 0;       // gave up; bytes never arrived
    std::uint64_t leaked_reclaimed = 0;      // pages recovered by reset
  };
  RecoveryStats rec_stats;

  void enable_recovery();
  [[nodiscard]] bool recovery_enabled() const noexcept { return recovery_enabled_; }
  [[nodiscard]] bool resetting() const noexcept {
    return state_ == AdaptorState::kResetting;
  }
  [[nodiscard]] unsigned degrade_reasons() const noexcept { return degraded_; }
  // The error interrupt: fault hardware (or the injector standing in for it)
  // notifies the driver that something is wrong; the driver probes and reacts.
  void notify_fault();

 private:
  void handle_recv(cab::RecvDesc&& desc);
  sim::Task<void> recv_intr(cab::RecvDesc desc);
  sim::Task<void> deliver_desc(net::KernCtx ctx, cab::RecvDesc desc);
  // Receive coalescing: descriptors are held briefly and delivered in one
  // interrupt; in-order same-flow TCP segments merge into one record.
  struct GroEntry {
    cab::RecvDesc desc;
    std::uint64_t tel_key = 0;  // gro_hold span (0 = telemetry off)
  };
  [[nodiscard]] bool gro_active() const noexcept {
    return offload_enabled_ && degraded_ == 0 && state_ == AdaptorState::kUp;
  }
  void gro_enqueue(cab::RecvDesc&& desc);
  void gro_flush();
  sim::Task<void> gro_drain();
  sim::Task<void> recv_batch_intr(std::vector<GroEntry> batch);
  sim::Task<void> deliver_merged(net::KernCtx ctx, std::vector<cab::RecvDesc> descs,
                                 std::size_t thl, std::size_t total_payload);
  [[nodiscard]] hippi::Addr resolve(net::IpAddr next_hop) const;
  // The M_WCAB descriptor of `valid` bytes at `data_off` in buffer `h`.
  [[nodiscard]] mbuf::Wcab wcab(cab::Handle h, std::size_t data_off,
                                std::size_t valid) const;
  // Prepend the HIPPI header for `next_hop` to the IP packet `pkt` and set
  // up `req` to carry the frame outboard: direction, flow and, when the
  // transport asked for the outboard checksum, its fields shifted past the
  // link header. Returns the new head.
  mbuf::Mbuf* frame(mbuf::Mbuf* pkt, net::IpAddr next_hop, cab::SdmaRequest& req);
  // Post `req`, which moves the frame `chain` outboard, and chain the media
  // transfer `mr` off its completion. The transmit holds one reference on
  // the buffer, dropped when the MDMA completes or the SDMA fails. The
  // chain's M_UIO data is completed (mbuf::m_uio_done) when the SDMA ends
  // or the post is rejected.
  void post_tx(cab::SdmaRequest req, mbuf::Mbuf* chain, cab::MdmaXmit::Request mr);
  // Wrap the outboard residue of `d` in an M_WCAB mbuf (nullptr when the
  // packet arrived fully auto-DMAed), counting rx_wcab or rx_small.
  mbuf::Mbuf* wrap_residue(const cab::RecvDesc& d);
  sim::Task<void> output_rewrite(net::KernCtx ctx, mbuf::Mbuf* pkt,
                                 net::IpAddr next_hop);

  // Recovery internals.
  void arm_watchdog();
  void watchdog_fire();
  void check_health();
  void start_reset();
  void finish_reset();
  void enter_degraded(unsigned reason);
  void exit_degraded(unsigned reason);
  void apply_caps();
  void note_dma_failure() {
    if (recovery_enabled_) check_health();
  }
  // Failure-retrying copy-out submission.
  struct CopyJob {
    cab::SdmaRequest req;
    mbuf::DmaSync* sync = nullptr;
    cab::Handle handle = 0;
    int attempts = 0;
  };
  void submit_copyout(std::shared_ptr<CopyJob> job);
  void retry_copyout(std::shared_ptr<CopyJob> job);
  // Failure-retrying copy-in submission, with software-body-sum fallback when
  // the checksum unit is down.
  struct CopyinJob {
    cab::SdmaRequest req;
    std::function<void(mbuf::Wcab)> done;
    cab::Handle handle = 0;
    std::uint32_t data_off = 0;
    std::uint32_t data_len = 0;
    int attempts = 0;
    std::uint64_t tel_key = 0;  // driver_stage span (0 = telemetry off)
  };
  void submit_copyin(std::shared_ptr<CopyinJob> job);

  cab::CabDevice& dev_;
  std::unordered_map<net::IpAddr, hippi::Addr> neighbors_;

  // Offload state.
  bool offload_enabled_ = false;
  OffloadConfig oc_;
  std::deque<GroEntry> gro_q_;
  bool gro_timer_armed_ = false;
  sim::TimerHandle gro_timer_;
  // Flushed batches awaiting delivery. A single drainer coroutine works
  // through them in flush order: concurrently spawned per-batch deliveries
  // would interleave at suspension points and reorder records, and TCP would
  // read the scramble as loss (dup-ack storms on a clean wire).
  std::deque<std::vector<GroEntry>> gro_pending_;
  bool gro_draining_ = false;

  // Recovery state.
  bool recovery_enabled_ = false;
  AdaptorState state_ = AdaptorState::kUp;
  unsigned degraded_ = 0;          // DegradeReason bitmask
  unsigned healthy_caps_ = 0;
  std::uint32_t healthy_autodma_words_ = 0;
  int reset_attempts_ = 0;         // consecutive failures this outage
  bool wd_armed_ = false;
  sim::TimerHandle wd_timer_;
  // No-progress detection: engine counters at the previous watchdog fire.
  std::uint64_t wd_last_sdma_reqs_ = 0;
  std::uint64_t wd_last_mdma_pkts_ = 0;
  std::uint64_t wd_last_alloc_failures_ = 0;
  bool wd_progress_valid_ = false;
};

}  // namespace nectar::drivers
