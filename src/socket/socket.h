// The socket layer: copy-semantics user API over TCP/UDP, with both the
// traditional copy path and the paper's single-copy path.
//
// Per-write path selection (§4.4.3, §4.5): a write goes single-copy iff
//   * policy allows it,
//   * the route's interface has outboard buffering (kCapSingleCopy),
//   * the user buffer is 32-bit word aligned, and
//   * the write is at least `single_copy_threshold` bytes (copy avoidance
//     only pays off for large transfers).
// Otherwise data is copied into kernel cluster mbufs (charged at the
// memory-copy bandwidth) exactly as an unmodified stack would.
//
// Single-copy transmit (§4.4.1, §4.4.2): the data is pinned and mapped
// incrementally in application context (quantum = the interface MTU, which
// is what the paper's §7.3 per-packet pin/unpin/map accounting assumes).
// TCP stages each packet outboard at once (Ifnet::copy_in), so its send
// buffer receives M_WCAB mbufs; a UDP datagram goes down the stack as one
// M_UIO record. The call returns only when the driver has copied or dropped
// every byte (the UIO-counter synchronization; DMAs are uncancelable).
// Receive mirrors it: M_WCAB data in the receive buffer is DMAed straight to
// the (pinned) user buffer.
#pragma once

#include <cassert>
#include <deque>

#include "mem/user_buffer.h"
#include "net/sockbuf.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace nectar::socket {

// Per-process syscall context.
struct ProcCtx {
  mem::AddressSpace& as;
  sim::AccountId user_acct;
  sim::AccountId sys_acct;
  sim::Priority prio = sim::Priority::Normal;
};

enum class CopyPolicy {
  kAuto,              // size/alignment/interface decide (§4.4.3)
  kAlwaysSingleCopy,  // the paper's measurement configuration (§7.1)
  kNeverSingleCopy,   // the unmodified stack
};

struct SocketOptions {
  CopyPolicy policy = CopyPolicy::kAuto;
  std::size_t single_copy_threshold = 16 * 1024;
  net::TcpParams tcp;
  bool udp_checksum = true;
  // §4.5 transmit alignment fix-up (the optimization the paper describes but
  // did not implement): when a large write starts at a non-word boundary,
  // push the short unaligned prefix through the copy path so the bulk of the
  // data can still go single-copy. Off by default, matching the paper.
  bool tx_align_fixup = false;
};

// Observer of one socket's readiness (the wload shim's blocked wpoll and
// wclose). ready_changed() runs inside every event that may change what
// recv_ready(), send_ready(), tx_drained() or the TCP state report, and
// when the socket is destroyed.
class ReadyHook {
 public:
  virtual ~ReadyHook() = default;
  virtual void ready_changed() = 0;
};

class Socket final : public net::TcpCallbacks, public net::UdpSocketIface {
 public:
  enum class Proto { kTcp, kUdp };

  Socket(net::NetStack& stack, Proto proto, SocketOptions opts = {});
  ~Socket() override;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // ------------------------------------------------------------------- TCP
  // `lport` 0 lets the stack pick an ephemeral port; the wload shim passes
  // an explicitly pre-allocated one so exhaustion is distinguishable from
  // an unreachable/refusing peer.
  sim::Task<bool> connect(ProcCtx& p, net::IpAddr addr, std::uint16_t port,
                          std::uint16_t lport = 0);
  void listen(std::uint16_t port);
  sim::Task<bool> accept(ProcCtx& p);  // single-shot: wait for establishment
  sim::Task<void> close(ProcCtx& p);
  sim::Task<void> wait_closed() { return tp_->wait_closed(); }

  // Stream write; returns bytes written (== data length; blocks for space and
  // — single-copy — for outboard completion).
  sim::Task<std::size_t> send(ProcCtx& p, mem::Uio data);

  // Stream read into `dst`; returns bytes read, 0 at EOF.
  sim::Task<std::size_t> recv(ProcCtx& p, mem::Uio dst);

  // ------------------------------------------------------------------- UDP
  void bind(std::uint16_t port);
  sim::Task<std::size_t> sendto(ProcCtx& p, mem::Uio data, net::IpAddr dst,
                                std::uint16_t dport);
  struct RecvFromResult {
    std::size_t len = 0;
    net::IpAddr src = 0;
    std::uint16_t sport = 0;
  };
  sim::Task<RecvFromResult> recvfrom(ProcCtx& p, mem::Uio dst);

  // --------------------------------------------- in-kernel API (§5, share
  // semantics: mbuf chains are the shared buffers; no copy, no wait).
  sim::Task<void> send_mbufs(net::KernCtx ctx, mbuf::Mbuf* chain);
  // Detach up to max_bytes from the receive stream (whole mbufs; at least one
  // if data is available). Returns nullptr at EOF. Note: may contain M_WCAB
  // mbufs; in-kernel consumers must run them through core::convert_wcab_record.
  sim::Task<mbuf::Mbuf*> recv_mbufs(net::KernCtx ctx, std::size_t max_bytes);

  // UDP datagram variants for in-kernel applications.
  sim::Task<void> sendto_mbufs(net::KernCtx ctx, mbuf::Mbuf* chain, net::IpAddr dst,
                               std::uint16_t dport);
  struct KernelDatagram {
    mbuf::Mbuf* data = nullptr;
    net::IpAddr src = 0;
    std::uint16_t sport = 0;
  };
  sim::Task<KernelDatagram> recvfrom_mbufs(net::KernCtx ctx);

  // Readiness probes for the wload shim's wpoll (no side effects, no
  // blocking): "readable" means a recv/accept-style call would not block —
  // buffered data, a delivered datagram, or stream EOF; "writable" means
  // send-buffer space on an established stream.
  [[nodiscard]] bool recv_ready() const noexcept {
    if (proto_ == Proto::kUdp) return !dgrams_.empty();
    return !rcv_.empty() || tp_->fin_received() ||
           tp_->state() == net::TcpState::kClosed;
  }
  [[nodiscard]] bool send_ready() const noexcept {
    return proto_ == Proto::kTcp && tp_->established() && snd_.space() > 0;
  }
  // Every byte send() accepted has been ACKed (the send sockbuf drops data
  // only on ACK), or the connection is dead so nothing more can drain.
  // Destroying a Socket orphans its TCP connection onto zero-capacity
  // buffers, which discards un-ACKed send data — callers that promise
  // close-does-not-lose-data (the wload shim) wait for this before teardown.
  [[nodiscard]] bool tx_drained() const noexcept {
    return proto_ != Proto::kTcp || snd_.empty() ||
           tp_->state() == net::TcpState::kClosed;
  }

  // At most one hook per socket; pass nullptr to clear it.
  void set_ready_hook(ReadyHook* h) noexcept {
    assert(h == nullptr || hook_ == nullptr || hook_ == h);
    hook_ = h;
  }

  [[nodiscard]] net::TcpConnection& tcp() noexcept { return *tp_; }
  [[nodiscard]] net::NetStack& stack() noexcept { return stack_; }
  [[nodiscard]] Proto proto() const noexcept { return proto_; }
  [[nodiscard]] const SocketOptions& options() const noexcept { return opts_; }

  struct SockStats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t single_copy_writes = 0;
    std::uint64_t copy_writes = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t wcab_bytes_received = 0;  // delivered by outboard copy-out
    std::uint64_t unaligned_fallbacks = 0;  // §4.5
    std::uint64_t align_fixups = 0;          // §4.5 prefix fix-ups applied
    // Chunks the overload descriptor gate diverted to the copy path.
    std::uint64_t overload_copy_fallbacks = 0;
  };
  [[nodiscard]] const SockStats& sock_stats() const noexcept { return stats_; }

  // TcpCallbacks
  net::Sockbuf& snd() override { return snd_; }
  net::Sockbuf& rcv() override { return rcv_; }
  void notify_readable() override {
    readable_.notify_all();
    ready_changed();
  }
  void notify_writable() override {
    writable_.notify_all();
    ready_changed();
  }
  void notify_state() override {
    readable_.notify_all();
    writable_.notify_all();
    ready_changed();
  }

  // UdpSocketIface
  void udp_deliver(mbuf::Mbuf* data, net::IpAddr src, std::uint16_t sport) override;

 private:
  void ready_changed() {
    if (hook_ != nullptr) hook_->ready_changed();
  }

  // sosend.cc
  // The interface `dst` routes out of, if it takes single-copy data now.
  [[nodiscard]] net::Ifnet* single_copy_ifp(net::IpAddr dst);
  [[nodiscard]] bool single_copy_eligible(const mem::Uio& data, net::IpAddr dst,
                                          std::size_t len);
  sim::Task<void> append_single_copy(ProcCtx& p, net::KernCtx ctx,
                                     const mem::Uio& chunk);
  sim::Task<void> append_copy(ProcCtx& p, net::KernCtx ctx, const mem::Uio& chunk,
                              mbuf::Mbuf** out_chain);
  sim::Task<std::size_t> write_done(ProcCtx& p, net::KernCtx ctx, bool sc,
                                    std::size_t total);
  // Pin `u` through the pin cache in 32 KiB quanta, recording each quantum
  // in `pinned`.
  sim::Task<void> pin_quanta(ProcCtx& p, net::KernCtx ctx, const mem::Uio& u,
                             std::vector<mem::Uio>& pinned);
  sim::Task<void> release_pins(ProcCtx& p, net::KernCtx ctx,
                               std::vector<mem::Uio>& pinned);

  // soreceive.cc
  sim::Task<std::size_t> deliver_bytes(ProcCtx& p, net::KernCtx ctx,
                                       net::Sockbuf& sb, mem::Uio dst,
                                       std::size_t take);
  sim::Task<void> read_done(ProcCtx& p, net::KernCtx ctx, std::size_t got);

  net::NetStack& stack_;
  Proto proto_;
  SocketOptions opts_;
  net::Sockbuf snd_;
  net::Sockbuf rcv_;
  std::unique_ptr<net::TcpConnection> tp_;

  std::uint16_t uport_ = 0;
  struct Datagram {
    mbuf::Mbuf* data;
    net::IpAddr src;
    std::uint16_t sport;
  };
  std::deque<Datagram> dgrams_;

  sim::Condition readable_;
  sim::Condition writable_;
  ReadyHook* hook_ = nullptr;
  mbuf::DmaSync tx_sync_;
  mbuf::DmaSync rx_sync_;
  // Exact user ranges pinned for in-flight copy-outs and by staging, released
  // symmetrically when the read or write completes.
  std::vector<mem::Uio> pinned_rx_;
  std::vector<mem::Uio> pinned_tx_;
  std::size_t staged_tx_ = 0;  // bytes staged outboard but not yet in snd_

  // Staging DMAs can complete out of submission order (a transfer error makes
  // the driver re-post one packet while its successors sail through). The
  // send buffer is a byte stream, so completions are parked here and appended
  // strictly in staging order.
  struct StagedSlot {
    std::size_t plen = 0;
    bool ready = false;
    mbuf::Wcab w{};
    std::uint64_t tel_key = 0;  // sosend span (0 = telemetry off)
  };
  std::deque<StagedSlot> stage_q_;
  std::uint64_t stage_base_ = 0;  // id of stage_q_.front()
  void stage_complete(std::uint64_t id, mbuf::Wcab w);

  SockStats stats_;
};

}  // namespace nectar::socket
