// TCP with the paper's single-copy transmit/receive paths.
//
// A deliberately classic (Net2-era) TCP: sliding window with cumulative
// ACKs, RFC 1323 window scaling (required for the paper's 512 KB windows),
// RTT-driven retransmission with slow start / congestion avoidance and
// optional fast retransmit, and in-order delivery with an out-of-order
// reassembly queue.
//
// Paper-specific machinery (§4.2, §4.3):
//  * The send buffer is a mixed chain of regular and M_WCAB mbufs: the
//    socket layer stages single-copy writes outboard before TCP sees them.
//    Segment data is produced by Sockbuf::copy_range — "code that searches
//    the transmit queue for a block of data at a specific offset" — which
//    shares descriptors instead of copying bytes.
//  * In single-copy mode segments never span mbufs of different types
//    (Sockbuf::homogeneous_run), matching the measured stack's
//    non-coalescing behaviour (§7.1).
//  * Checksums: out a hardware-checksum interface, the host computes only a
//    *seed* (pseudo-header + TCP header) and describes the body checksum in
//    pkthdr.csum_tx; otherwise the classic software checksum runs, charged
//    at the per-byte checksum-read bandwidth. On receive, a valid
//    pkthdr.rx_hw_sum is verified with one pseudo-header add; otherwise the
//    software path reads all the data.
//  * M_WCAB data retransmits by reference: the driver rewrites the header
//    outboard and reuses the saved body checksum.
#pragma once

#include <map>

#include "net/headers.h"
#include "net/netstack.h"
#include "net/sockbuf.h"

namespace nectar::net {

// 32-bit sequence arithmetic.
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
constexpr bool seq_leq(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}
constexpr bool seq_gt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) > 0;
}
constexpr bool seq_geq(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) >= 0;
}

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

[[nodiscard]] const char* tcp_state_name(TcpState s) noexcept;

// Protocol timer constants. The retransmission interval, backed off or not,
// stays within [kTcpRtoMin, kTcpRtoMax] (BSD's TCPT_RANGESET).
inline constexpr int kTcpAckEvery = 2;  // immediate ACK every Nth data segment
inline constexpr sim::Duration kTcpDelack = sim::msec(10);
inline constexpr sim::Duration kTcpRtoMin = sim::msec(200);
inline constexpr sim::Duration kTcpRtoMax = 30 * sim::kSecond;
inline constexpr sim::Duration kTcpRtoInit = sim::kSecond;
inline constexpr sim::Duration kTcpMsl = sim::kSecond;  // short TIME_WAIT keeps sims fast

struct TcpParams {
  std::size_t sndbuf = 512 * 1024;  // paper: 512 KB TCP window
  std::size_t rcvbuf = 512 * 1024;
  bool window_scaling = true;       // RFC 1323 (paper §7.1)
  // Use outboard checksumming when the interface supports it. The
  // "unmodified stack" baseline turns this off: it treats the CAB as a dumb
  // device and runs the classic software checksum on both sides.
  bool csum_offload = true;
  // Arbitration class weight (>= 1) for kWeightedFair CAB scheduling: when
  // NetStack assigns this connection's flow id it broadcasts the weight to
  // every interface, so the DMA arbiter serves this flow `arb_weight`
  // requests per credit round. Rides through SocketOptions.tcp and the
  // wsocket shim unchanged. Ignored under kFifo/kRoundRobin.
  std::uint32_t arb_weight = 1;
};

// How the socket layer observes the connection.
class TcpCallbacks {
 public:
  virtual ~TcpCallbacks() = default;
  virtual Sockbuf& snd() = 0;
  virtual Sockbuf& rcv() = 0;
  virtual void notify_readable() = 0;   // rcv() gained data / EOF
  virtual void notify_writable() = 0;   // snd() gained space
  virtual void notify_state() = 0;      // state_ changed
};

class TcpConnection {
 public:
  TcpConnection(NetStack& stack, TcpCallbacks& cb, TcpParams params = {});
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Active open: SYN handshake; resolves when established or definitively
  // failed (returns success).
  sim::Task<bool> connect(KernCtx ctx, IpAddr faddr, std::uint16_t fport,
                          std::uint16_t lport = 0);

  // Passive open (single connection; listener sockets that spawn are built
  // in the socket layer on top of this).
  void listen(std::uint16_t lport, IpAddr laddr = 0);

  // Await Established (accept side).
  sim::Task<bool> wait_established();

  // Kick the output engine after the socket layer appended to snd().
  sim::Task<void> send_ready(KernCtx ctx);

  // The reader consumed rcv() data: maybe advertise a larger window.
  sim::Task<void> window_update(KernCtx ctx);

  // Orderly release: queue a FIN. (State machine runs on; await
  // wait_closed() to observe completion.)
  sim::Task<void> close(KernCtx ctx);
  sim::Task<void> wait_closed();

  void abort();  // RST + instant teardown

  // From NetStack demux: a segment for this connection (starts at the TCP
  // header). Takes ownership.
  sim::Task<void> input(KernCtx ctx, mbuf::Mbuf* pkt, const IpHeader& ih);

  // From NetStack's SYN-cookie path: a validated handshake-completing ACK
  // reconstructs the connection this listening socket never saw the SYN for.
  // Mirrors the kListen SYN conversion with state recovered from the cookie
  // (ISS = ack-1, IRS = seq-1, class-rounded MSS, no window scaling). The
  // caller then feeds the ACK segment through input().
  void cookie_establish(const IpHeader& ih, const TcpHeader& th,
                        std::uint16_t peer_mss);

  [[nodiscard]] TcpState state() const noexcept { return state_; }
  [[nodiscard]] bool established() const noexcept {
    return state_ == TcpState::kEstablished;
  }
  // The wait_established latch: true once the handshake ever completed, even
  // if the peer has since moved the connection on (CLOSE_WAIT and beyond).
  [[nodiscard]] bool ever_established() const noexcept {
    return ever_established_;
  }
  // Peer closed and all data delivered (reader sees EOF once rcv() drains).
  [[nodiscard]] bool fin_received() const noexcept { return fin_rcvd_; }
  [[nodiscard]] const ConnKey& key() const noexcept { return key_; }
  [[nodiscard]] std::uint16_t mss() const noexcept { return mss_; }
  // Peer-advertised send window (scaled), for offload autosizing: a WCAB
  // packet (re)transmits whole, so staging one the window can't cover would
  // park the sender in persist until a probe refreshes the window.
  [[nodiscard]] std::uint32_t snd_wnd() const noexcept { return snd_wnd_; }
  // Flow id assigned by NetStack at first bind (0 = unassigned). Stamped on
  // every outgoing packet so the CAB's DMA arbiter can queue per flow.
  [[nodiscard]] std::uint32_t flow_id() const noexcept { return flow_id_; }
  void set_flow_id(std::uint32_t id) noexcept { flow_id_ = id; }
  [[nodiscard]] const TcpParams& params() const noexcept { return par_; }
  [[nodiscard]] TcpCallbacks& cb() noexcept { return *cb_; }

  // Detach from the owning socket (called by Socket's destructor): abort the
  // connection, cancel all timers, unbind from the demux, and swap the
  // callbacks for an internal zombie so protocol coroutines still in flight
  // complete harmlessly. The connection object itself must then be kept
  // alive until the stack quiesces — NetStack::adopt_zombie() does that
  // (kernels refcount their PCBs for exactly this reason).
  void orphan();

  // Diagnostic dump of the connection state (stderr-style debugging aid).
  void debug_dump(const char* tag) const;

  struct Stats {
    std::uint64_t segs_out = 0;
    std::uint64_t bytes_out = 0;       // data bytes, first transmissions
    std::uint64_t segs_in = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t acks_in = 0;
    std::uint64_t rexmt_segs = 0;
    std::uint64_t rexmt_timeouts = 0;
    std::uint64_t fast_rexmt = 0;
    std::uint64_t dup_acks = 0;
    std::uint64_t dup_segs_in = 0;     // entirely-duplicate data segments dropped
    std::uint64_t ooo_segs = 0;
    std::uint64_t bad_checksum = 0;
    std::uint64_t hw_csum_rx = 0;      // segments verified outboard
    std::uint64_t sw_csum_rx = 0;      // segments verified in software
    std::uint64_t hw_csum_tx = 0;      // segments checksummed outboard
    std::uint64_t sw_csum_tx = 0;
    // ECN backpressure (all zero unless an OverloadManager marks packets).
    std::uint64_t ecn_ce_rcvd = 0;     // CE-marked data segments received
    std::uint64_t ecn_ece_rcvd = 0;    // ACKs carrying ECE received
    std::uint64_t ecn_cwnd_cuts = 0;   // window halvings in response to ECE
    std::uint64_t ecn_cwr_sent = 0;    // segments sent with CWR set
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  // tcp.cc ------------------------------------------------------------------
  void enter_state(TcpState s);
  void cache_route();
  // Arm a protocol timer on the host's timer wheel. Every connection timer
  // (RTO, delack, persist) routes through here.
  [[nodiscard]] sim::TimerHandle proto_timer(sim::Duration d, sim::SmallFn fn);
  void start_rexmt_timer();
  void stop_rexmt_timer();
  void rexmt_fire();           // timer callback (spawns coroutine)
  void delack_fire();
  void persist_fire();
  void arm_persist();
  void update_rtt(sim::Duration measured);
  [[nodiscard]] sim::Duration rto() const noexcept;
  void drop_ooo_queue();
  void teardown();             // unbind + cancel timers
  [[nodiscard]] std::uint64_t seq_to_pos(std::uint32_t seq) const noexcept;

  // tcp_output.cc -----------------------------------------------------------
  sim::Task<void> output(KernCtx ctx);
  sim::Task<void> send_segment(KernCtx ctx, std::uint32_t seq, std::size_t len,
                               std::uint8_t flags);
  sim::Task<void> send_control(KernCtx ctx, std::uint32_t seq, std::uint8_t flags);
  [[nodiscard]] std::uint16_t advertised_window();

  // tcp_input.cc ------------------------------------------------------------
  sim::Task<void> input_locked(KernCtx ctx, mbuf::Mbuf* pkt, const IpHeader& ih);
  sim::Task<bool> verify_checksum(KernCtx ctx, mbuf::Mbuf* pkt, const IpHeader& ih,
                                  std::size_t seg_len);
  sim::Task<void> process_ack(KernCtx ctx, const TcpHeader& th);
  sim::Task<void> accept_data(KernCtx ctx, mbuf::Mbuf* pkt, const TcpHeader& th,
                              std::size_t data_len, bool fin);
  // A listening endpoint takes on the peer's full tuple: it leaves the listen
  // table, rebinds under the tuple, caches the route and sizes the MSS from
  // the route's MTU (before the peer's MSS clamps it).
  void complete_tuple(const IpHeader& ih, const TcpHeader& th);

  NetStack& stack_;
  TcpCallbacks* cb_;
  TcpParams par_;
  std::unique_ptr<TcpCallbacks> zombie_cb_;  // set by orphan()
  TcpState state_ = TcpState::kClosed;
  bool ever_established_ = false;  // latched by enter_state(kEstablished)
  ConnKey key_;
  bool bound_ = false;
  bool listening_ = false;
  std::uint32_t flow_id_ = 0;

  Ifnet* route_if_ = nullptr;  // cached; refreshed per output burst
  std::uint16_t mss_ = 536;

  // Send state.
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_max_ = 0;   // highest seq ever sent
  std::uint64_t una_pos_ = 0;   // stream position of snd_una_
  std::uint32_t snd_wnd_ = 0;   // peer-advertised (scaled) window
  std::uint8_t snd_scale_ = 0;  // shift applied to incoming window values
  std::uint8_t rcv_scale_ = 0;  // shift peer applies; we advertise >> this
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0xffffffff;
  int dupacks_ = 0;
  bool fin_queued_ = false;     // user asked for close
  bool fin_sent_ = false;

  // ECN state (RFC 3168 shape). Receiver: ecn_echo_ latches on a CE-marked
  // data segment and keeps ECE on outgoing ACKs until a CWR arrives. Sender:
  // ECE halves cwnd at most once per window (ecn_cwr_seq_ fences the window)
  // and cwr_pending_ puts CWR on the next data segment.
  bool ecn_echo_ = false;
  bool cwr_pending_ = false;
  bool ecn_cut_ever_ = false;   // ecn_cwr_seq_ is only meaningful once true
  std::uint32_t ecn_cwr_seq_ = 0;

  // Receive state.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::uint32_t rcv_adv_ = 0;   // highest window edge advertised
  std::map<std::uint32_t, mbuf::Mbuf*> ooo_;  // seq -> data record (hdr stripped)
  std::map<std::uint32_t, bool> ooo_fin_;
  int unacked_segs_ = 0;
  bool ack_due_ = false;
  bool fin_rcvd_ = false;

  // Timers / RTT.
  sim::TimerHandle rexmt_timer_;
  sim::TimerHandle delack_timer_;
  bool rtt_timing_ = false;
  std::uint32_t rtt_seq_ = 0;
  sim::Time rtt_start_ = 0;
  double srtt_us_ = 0.0;
  double rttvar_us_ = 0.0;
  int rexmt_backoff_ = 0;

  bool in_output_ = false;   // an output burst is running
  bool output_again_ = false;  // burst requested while running
  sim::TimerHandle persist_timer_;

  sim::Condition state_cond_;
  Stats stats_;
};

}  // namespace nectar::net
