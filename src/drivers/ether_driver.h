// An "existing device" driver (§5): a conventional Ethernet-style interface
// with no outboard buffering or checksumming.
//
// The single-copy stack must interoperate with it unmodified — the entire
// accommodation is a thin layer at the driver entry that converts M_UIO
// records into regular mbufs with a memory-memory copy ("a copy has merely
// been delayed", §5). M_WCAB data cannot appear here: outboard data only
// exists for packets already routed to a CAB, and this stack never re-routes
// buffered TCP data across interfaces mid-connection (counted + dropped
// defensively).
//
// The medium is an EtherSegment: a shared link with configurable bandwidth,
// delivering by next-hop IP.
#pragma once

#include <unordered_map>

#include "net/ifnet.h"
#include "net/netstack.h"

namespace nectar::drivers {

class EtherDriver;

class EtherSegment {
 public:
  EtherSegment(sim::Simulator& sim, double bandwidth_bps = 10e6 / 8 * 8,
               sim::Duration propagation = sim::usec(50))
      : sim_(sim), bw_(bandwidth_bps), prop_(propagation) {}

  void attach(net::IpAddr addr, EtherDriver* drv) { drivers_[addr] = drv; }

  // Serialize a packet onto the shared medium (FIFO) and deliver it.
  void transmit(net::IpAddr dst, std::vector<std::byte> frame);

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  void kick();

  sim::Simulator& sim_;
  double bw_;
  sim::Duration prop_;
  bool busy_ = false;
  std::deque<std::pair<net::IpAddr, std::vector<std::byte>>> q_;
  std::unordered_map<net::IpAddr, EtherDriver*> drivers_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

class EtherDriver final : public net::Ifnet {
 public:
  EtherDriver(std::string name, net::IpAddr addr, EtherSegment& seg,
              std::size_t mtu = 1500)
      : Ifnet(std::move(name), addr, mtu, /*caps=*/0), seg_(seg) {
    seg.attach(addr, this);
  }

  sim::Task<void> output(net::KernCtx ctx, mbuf::Mbuf* pkt,
                         net::IpAddr next_hop) override;

  // Called by the segment when a frame arrives.
  void deliver(std::vector<std::byte> frame);

  struct DrvStats {
    std::uint64_t wcab_dropped = 0;  // unreachable-outboard-data drops
  };
  DrvStats drv_stats;

 private:
  sim::Task<void> recv_intr(std::vector<std::byte> frame);

  EtherSegment& seg_;
};

// The §5 interop conversion: replace every M_UIO mbuf in `pkt` with regular
// (cluster) mbufs holding copies of the user data, charging the memory-copy
// bandwidth. Completes each descriptor's DmaSync through mbuf::m_uio_done
// (the data has now been copied, so the writer may proceed). Returns the new
// head.
sim::Task<mbuf::Mbuf*> convert_uio_record(net::NetStack& stack, net::KernCtx ctx,
                                          mbuf::Mbuf* pkt);

}  // namespace nectar::drivers
