// Network interface abstraction plus stack-wide cost model and execution
// context.
//
// §3: "the network device driver has to provide routines to transfer packets
// between host and network memory, copy in and copy out, besides the
// traditional input and output routines." Output is universal; the copy-in /
// copy-out extensions exist only on single-copy-capable drivers and are
// reached through capability checks, never downcasts in protocol code.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "mbuf/mbuf_ops.h"
#include "sim/cpu.h"

namespace nectar::net {

class NetStack;

using IpAddr = std::uint32_t;

// Execution context for kernel work: which CPU account to charge and at what
// priority. Syscall paths carry the calling process's sys account at Normal
// priority; input paths carry the host's interrupt account.
struct KernCtx {
  sim::AccountId acct = 0;
  sim::Priority prio = sim::Priority::Kernel;
  // Transport flow the work is charged to (0 = unattributed). Single-copy
  // drivers tag their DMA requests with it so the CAB arbiter can queue per
  // flow; data staged before headers exist has no packet to carry the id.
  std::uint32_t flow = 0;
};

// Per-byte and per-operation CPU costs of the Alpha 3000/400 (the §7.3
// decomposition). Per-byte costs are bandwidths; per-op costs are
// microseconds.
struct StackCosts {
  // Per-byte (sender copy: user->kernel buffers; checksum: one read pass).
  double copy_bw_bps = 350.0e6 / 8.0;   // 350 Mbit/s cold memory-memory copy
  double cksum_bw_bps = 630.0e6 / 8.0;  // 630 Mbit/s checksum read

  // Per-operation (us), calibrated to the paper's measured ~300 us per 32 KB
  // packet on the sender: tcp_output + ip_output + driver ~180, ACK
  // processing ~55 amortized at one ACK per two segments, and the write path
  // ~70 per 32 KB write.
  double syscall_us = 40.0;         // user/kernel boundary crossing, per call
  double sosend_chunk_us = 30.0;    // socket-layer work per chunk appended
  double soreceive_chunk_us = 30.0; // socket-layer work per chunk delivered
  double tcp_output_us = 85.0;      // per segment sent
  double tcp_input_us = 90.0;       // per data segment received
  double tcp_ack_us = 70.0;         // per pure ACK processed
  double ip_output_us = 30.0;
  double ip_input_us = 25.0;
  double udp_output_us = 60.0;
  double udp_input_us = 60.0;
  double driver_issue_us = 65.0;    // build gather list, post SDMA/MDMA
  double intr_us = 40.0;            // interrupt entry/exit + device ack
  double wakeup_us = 15.0;          // scheduling a blocked process
};

enum IfCaps : unsigned {
  kCapSingleCopy = 0x1,  // accepts M_UIO data, produces M_WCAB (the CAB)
  kCapHwChecksum = 0x2,  // outboard transmit/receive checksum
};

class Ifnet {
 public:
  Ifnet(std::string name, IpAddr addr, std::size_t mtu, unsigned caps)
      : name_(std::move(name)), addr_(addr), mtu_(mtu), caps_(caps) {}
  virtual ~Ifnet() = default;
  Ifnet(const Ifnet&) = delete;
  Ifnet& operator=(const Ifnet&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] IpAddr addr() const noexcept { return addr_; }
  [[nodiscard]] std::size_t mtu() const noexcept { return mtu_; }
  [[nodiscard]] unsigned caps() const noexcept { return caps_; }
  [[nodiscard]] bool single_copy() const noexcept { return caps_ & kCapSingleCopy; }

  // Transmit a fully-formed IP packet (record: IP header mbuf first, data
  // following; data mbufs may be descriptors only if single_copy()). Drivers
  // without kCapSingleCopy must convert M_UIO to regular mbufs at their entry
  // point (§5, "a copy has merely been delayed"). Takes ownership.
  virtual sim::Task<void> output(KernCtx ctx, mbuf::Mbuf* pkt, IpAddr next_hop) = 0;

  // Copy-out routine (§3): move the outboard data of the WCAB packet `w`
  // into the host memory `dst` lists, in stream order: pinned user pages,
  // soreceive's kernel staging buffer, or the fresh mbuf of the §5 interop
  // layer. Only meaningful on single-copy interfaces; the base class throws.
  virtual sim::Task<void> copy_out(KernCtx ctx, const mbuf::Wcab& w,
                                   std::vector<mem::HostSeg> dst,
                                   mbuf::DmaSync* sync);

  // The outboard-buffer owner behind this interface (non-null only for
  // single-copy devices); lets upper layers find the driver that can copy a
  // given M_WCAB mbuf out.
  [[nodiscard]] virtual const mbuf::OutboardOwner* outboard_owner() const {
    return nullptr;
  }

  // Copy-in routine (§2.2, §3): stage one packet's worth of user data into a
  // fresh outboard buffer, reserving `header_space` bytes in front for the
  // headers the host will provide at (re)transmission time, and computing
  // the body checksum during the transfer. `done` receives the Wcab once the
  // data is outboard (one buffer reference passes to the callee). This is
  // how packetization decisions get made *before* the data leaves user space.
  // `seg_stride`, when non-zero, marks the staged data as a multi-MTU
  // super-segment: the device saves one body-checksum slice per stride bytes
  // so it can segment the packet at transmit time (large-segment offload).
  virtual sim::Task<void> copy_in(KernCtx ctx, mem::Uio data,
                                  std::size_t header_space,
                                  std::function<void(mbuf::Wcab)> done,
                                  std::size_t seg_stride = 0);

  // Bytes of header the transport+link layers prepend to a data packet out
  // this interface (0 for non-single-copy devices).
  [[nodiscard]] virtual std::size_t tx_header_space() const { return 0; }

  // How many wire MTUs the socket layer may stage into one outboard packet
  // (1 = no large-segment offload, or offload currently degraded).
  [[nodiscard]] virtual std::size_t tx_tso_segs() const { return 1; }

  // Arbitration class weight for `flow` under kWeightedFair DMA scheduling.
  // NetStack broadcasts a connection's weight when it assigns the flow id;
  // devices without per-flow arbitration ignore it.
  virtual void set_flow_weight(std::uint32_t flow, std::uint32_t weight) {
    (void)flow;
    (void)weight;
  }

  void set_stack(NetStack* s) noexcept { stack_ = s; }
  [[nodiscard]] NetStack* stack() const noexcept { return stack_; }

  struct IfStats {
    std::uint64_t opackets = 0;
    std::uint64_t obytes = 0;
    std::uint64_t ipackets = 0;
    std::uint64_t ibytes = 0;
    std::uint64_t oerrors = 0;
    std::uint64_t uio_converted = 0;  // M_UIO records copied at driver entry
  };
  IfStats if_stats;

 protected:
  NetStack* stack_ = nullptr;

  // Drivers may change capabilities at runtime (graceful degradation: a CAB
  // with a failed checksum unit or exhausted network memory drops back to the
  // host bounce path). Protocol code re-checks caps() per write / per
  // segment, so a change takes effect on the next packet.
  void set_caps(unsigned caps) noexcept { caps_ = caps; }

 private:
  std::string name_;
  IpAddr addr_;
  std::size_t mtu_;
  unsigned caps_;
};

}  // namespace nectar::net
