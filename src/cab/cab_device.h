// The assembled Gigabit Nectar CAB (Communication Acceleration Board).
//
// Composes network memory, the SDMA engine, and the two MDMA engines, and
// attaches to a HIPPI fabric. From the host's viewpoint (§2.2) it is "a
// large bank of memory accompanied by a means for transferring data into and
// out of that memory": the driver allocates packet buffers, posts SDMA and
// MDMA requests, and receives interrupts via callbacks.
//
// It also implements mbuf::OutboardOwner so M_WCAB mbufs can share and
// release outboard buffers without the mbuf layer knowing about the CAB.
#pragma once

#include "cab/mdma.h"
#include "cab/network_memory.h"
#include "cab/sdma.h"
#include "mbuf/descriptor.h"

namespace nectar::cab {

// Network-memory page size: the unit the driver allocates packet buffers in.
inline constexpr std::size_t kCabPageSize = 4096;

struct CabConfig {
  std::size_t memory_bytes = 4u << 20;  // 4 MB network memory
  SdmaConfig sdma;
  MdmaConfig mdma;
};

class CabDevice final : public mbuf::OutboardOwner {
 public:
  CabDevice(sim::Simulator& sim, hippi::Fabric& fabric, hippi::Addr addr,
            const CabConfig& cfg)
      : addr_(addr),
        nm_(cfg.memory_bytes, kCabPageSize),
        sdma_(sim, nm_, cfg.sdma),
        mdma_xmit_(sim, nm_, fabric, sdma_.checksum(), cfg.mdma),
        mdma_recv_(sim, nm_, sdma_, cfg.mdma) {
    fabric.attach(addr, &mdma_recv_);
  }

  [[nodiscard]] hippi::Addr addr() const noexcept { return addr_; }
  [[nodiscard]] NetworkMemory& nm() noexcept { return nm_; }
  [[nodiscard]] SdmaEngine& sdma() noexcept { return sdma_; }
  [[nodiscard]] MdmaXmit& mdma_xmit() noexcept { return mdma_xmit_; }
  [[nodiscard]] MdmaRecv& mdma_recv() noexcept { return mdma_recv_; }

  void outboard_retain(std::uint32_t handle) override { nm_.retain(handle); }
  void outboard_release(std::uint32_t handle) override { nm_.release(handle); }

  // Opt-in span tracing across every engine on the board.
  void set_telemetry(telemetry::Telemetry* tel, int pid) {
    nm_.set_telemetry(tel, pid);
    sdma_.set_telemetry(tel, pid);
    mdma_xmit_.set_telemetry(tel, pid);
    mdma_recv_.set_telemetry(tel, pid);
  }

  // --- fault injection / reset ----------------------------------------------

  // Stall or restart every engine on the board.
  void set_stalled(bool s) {
    sdma_.set_stalled(s);
    mdma_xmit_.set_stalled(s);
    mdma_recv_.set_stalled(s);
  }

  // Adaptor reset: fail everything queued on both DMA engines and disown
  // their in-flight transfers (DmaEngine::abort_all).
  void abort_all() {
    sdma_.abort_all();
    mdma_xmit_.abort_all();
  }

  // Firmware stall: the on-board control program wedges and every engine
  // stops serving requests. Ending the stall (the fault window closing)
  // clears only the status bit the driver's watchdog reads — the engines
  // stay wedged until the driver resets the board (CabDriver::start_reset).
  void set_fw_stalled(bool s) {
    fw_stalled_ = s;
    if (s) set_stalled(true);
  }
  [[nodiscard]] bool fw_stalled() const noexcept { return fw_stalled_; }

 private:
  hippi::Addr addr_;
  bool fw_stalled_ = false;
  NetworkMemory nm_;
  SdmaEngine sdma_;
  MdmaXmit mdma_xmit_;
  MdmaRecv mdma_recv_;
};

}  // namespace nectar::cab
