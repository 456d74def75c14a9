// NetStack: one host's protocol stack instance — interfaces, routes, IP, and
// transport demultiplexing. This is the *single* stack of §4.1: the same
// object carries traditional mbuf traffic and single-copy descriptor traffic;
// the path a packet takes is decided per packet by mbuf types, interface
// capabilities, and policy, never by selecting a different stack.
#pragma once

#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mem/pin_cache.h"
#include "mem/vm.h"
#include "net/conn_table.h"
#include "net/ifnet.h"
#include "net/route.h"
#include "net/syn_cookie.h"

namespace nectar::telemetry {
class Telemetry;
}

namespace nectar::sim {
class TimerWheel;
}

namespace nectar::overload {
class OverloadManager;
}

namespace nectar::net {

class Ip;
class TcpConnection;
class Udp;
struct IpHeader;

// Services the stack borrows from its host.
struct HostEnv {
  sim::Simulator& sim;
  sim::Cpu& cpu;
  mbuf::MbufPool& pool;
  mem::Vm& vm;
  mem::PinCache& pin_cache;
  // Hierarchical timer wheel for protocol timers (RTO/delack/persist/
  // TIME-WAIT): O(1) schedule/cancel regardless of how many connections are
  // ticking.
  sim::TimerWheel& wheel;
  StackCosts costs;
  sim::AccountId intr_acct = 0;  // CPU account for interrupt-context work
  // Opt-in observability (core/testbed wires it); null when disabled, and
  // every instrumentation site guards on that.
  telemetry::Telemetry* telemetry = nullptr;
  int tel_pid = 0;  // this host's trace pid
  // Opt-in overload policy (core/testbed wires it): SYN admission, outboard-
  // descriptor gating, ECN marking. Null when disabled; every hook site
  // guards on that, so the datapath carries no policy when off.
  overload::OverloadManager* overload = nullptr;
};

// Four-tuple connection key (host byte-order addresses).
struct ConnKey {
  IpAddr laddr = 0;
  std::uint16_t lport = 0;
  IpAddr faddr = 0;
  std::uint16_t fport = 0;
  auto operator<=>(const ConnKey&) const = default;
};

class NetStack {
 public:
  explicit NetStack(HostEnv env);
  ~NetStack();
  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  [[nodiscard]] HostEnv& env() noexcept { return env_; }
  [[nodiscard]] const StackCosts& costs() const noexcept { return env_.costs; }
  [[nodiscard]] RouteTable& routes() noexcept { return routes_; }
  [[nodiscard]] Ip& ip() noexcept { return *ip_; }
  [[nodiscard]] Udp& udp() noexcept { return *udp_; }

  void add_ifnet(Ifnet* ifp);  // not owned
  [[nodiscard]] const std::vector<Ifnet*>& ifnets() const noexcept { return ifnets_; }
  // The interface whose device owns the outboard buffer of `w`: the driver
  // that can copy an M_WCAB mbuf out. Throws if no interface here owns it.
  [[nodiscard]] Ifnet& outboard_ifnet(const mbuf::Wcab& w) const;

  // Convenience: the address of the interface a destination routes out of
  // (source-address selection for connect/bind).
  [[nodiscard]] IpAddr source_addr_for(IpAddr dst) const;

  // --- transport demux ------------------------------------------------------

  // Full-tuple demux is an open-addressing hash table (net/conn_table.h):
  // the per-segment lookup is O(1) and allocation-free, which is what lets
  // one stack carry hundreds of concurrent flows.
  void tcp_bind(const ConnKey& key, TcpConnection* tp);
  void tcp_unbind(const ConnKey& key);
  // Listen demux: a FIFO of embryonic connections per (laddr, lport) — the
  // backlog. A SYN converts the front entry to a full-tuple binding;
  // additional armed sockets stand behind it.
  void tcp_listen(IpAddr laddr, std::uint16_t lport, TcpConnection* tp);
  void tcp_unlisten(IpAddr laddr, std::uint16_t lport, TcpConnection* tp);
  [[nodiscard]] TcpConnection* tcp_lookup(const ConnKey& key) const;
  [[nodiscard]] TcpConnection* tcp_lookup_listen(IpAddr laddr, std::uint16_t lport) const;
  // Pick a free local port for an outgoing connection to (faddr, fport).
  // O(1) in the common case: a per-port use count (maintained by
  // tcp_bind/tcp_unbind) finds an entirely unused port without scanning the
  // connection table; only when every port carries at least one binding does
  // the full-tuple fallback probe the table per candidate. Returns 0 (never
  // a valid ephemeral port) when every tuple toward (faddr, fport) is in use
  // — counted as eph_port_exhausted; callers surface it as an
  // EADDRNOTAVAIL-style connect failure.
  [[nodiscard]] std::uint16_t alloc_ephemeral_port(IpAddr laddr, IpAddr faddr,
                                                   std::uint16_t fport);

  // Listen-service registry (held for the lifetime of a socket::Listener):
  // while a service is registered, a SYN that finds no armed embryonic
  // socket means the backlog is exhausted — counted as listen_overflows and
  // recovered by the client's SYN retransmission — rather than "no such
  // port". Refcounted so wildcard and specific listeners compose.
  void listen_service_register(IpAddr laddr, std::uint16_t lport);
  void listen_service_unregister(IpAddr laddr, std::uint16_t lport);
  [[nodiscard]] bool listen_service_exists(IpAddr laddr, std::uint16_t lport) const;

  // Called by Ip after reassembly: dispatch to TCP/UDP/raw. `pkt` starts at
  // the transport header. Takes ownership.
  sim::Task<void> transport_input(KernCtx ctx, std::uint8_t proto, mbuf::Mbuf* pkt,
                                  const IpHeader& ih);

  // Stateless header-only TCP segment (RST/ACK/cookie SYN|ACK) sent on
  // behalf of no connection — BSD's tcp_respond. Software checksum; `mss`
  // is carried only when `flags` has SYN.
  sim::Task<void> tcp_respond(KernCtx ctx, IpAddr src, IpAddr dst,
                              std::uint16_t sport, std::uint16_t dport,
                              std::uint32_t seq, std::uint32_t ack,
                              std::uint8_t flags, std::uint16_t win,
                              std::uint16_t mss);

  // --- compact TIME-WAIT ----------------------------------------------------

  // A connection finishing its active close parks a 2*MSL record here and
  // frees the full TcpConnection (buffers, timers, socket) immediately: a
  // TIME-WAIT tuple costs ~32 bytes plus a wheel timer instead of a live
  // connection object. Late segments for the tuple are answered with a bare
  // ACK; a fresh SYN above rcv_nxt recycles the tuple early (BSD-style).
  void timewait_enter(const ConnKey& key, std::uint32_t rcv_nxt,
                      std::uint32_t snd_nxt, sim::Duration linger);
  [[nodiscard]] std::size_t timewait_count() const noexcept { return tw_live_; }

  // Keep an orphaned TCP connection alive while protocol coroutines still in
  // flight may hold pointers to it (§5's asynchronous DMA makes this
  // unavoidable; kernels refcount PCBs). A linger timer reaps the zombie
  // once every coroutine has long since completed, so connection churn does
  // not grow the stack's footprint without bound.
  void adopt_zombie(std::unique_ptr<TcpConnection> tp);
  [[nodiscard]] std::size_t zombie_count() const noexcept { return zombies_.size(); }

  // Raw-protocol taps (ICMP-like in-kernel applications, §5). Handler takes
  // ownership of the record.
  using RawHandler = std::function<void(mbuf::Mbuf*, const IpHeader&)>;
  void set_raw_handler(std::uint8_t proto, RawHandler h);

  struct Stats {
    std::uint64_t tcp_in = 0;
    std::uint64_t udp_in = 0;
    std::uint64_t raw_in = 0;
    std::uint64_t no_proto = 0;
    std::uint64_t no_port = 0;
    // Segments whose transport checksum failed at demux-miss time: a
    // corrupted port field would otherwise masquerade as "no such port".
    std::uint64_t bad_checksum = 0;
    // SYNs that arrived for a registered listen service whose backlog of
    // embryonic sockets was exhausted (recovered by SYN retransmission).
    std::uint64_t listen_overflows = 0;
    // Outgoing connects that found no free (laddr, lport, faddr, fport)
    // tuple — the EADDRNOTAVAIL condition population churn can reach.
    std::uint64_t eph_port_exhausted = 0;
    // SYN-cookie path: cookies minted for backlog-overflow SYNs, ACKs that
    // validated and reconstructed a connection, ACKs whose cookie failed
    // (stale/forged), and valid cookies that found no embryonic socket to
    // adopt the connection (client data retransmission recovers).
    std::uint64_t syn_cookies_sent = 0;
    std::uint64_t syn_cookies_accepted = 0;
    std::uint64_t syn_cookies_rejected = 0;
    std::uint64_t syn_cookie_overflows = 0;
    // SYNs deferred (dropped uncounted as overflows) by the overload
    // admission gate; the client's SYN retransmission is the retry.
    std::uint64_t syn_admission_deferred = 0;
    // Compact TIME-WAIT records: tuples parked, late segments ACKed on their
    // behalf, tuples recycled early by a fresh SYN, and 2*MSL expiries.
    std::uint64_t timewait_enters = 0;
    std::uint64_t timewait_acks = 0;
    std::uint64_t timewait_recycles = 0;
    std::uint64_t timewait_expiries = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  using ConnMap = ConnTable<ConnKey, TcpConnection*>;
  // Demux-table internals (probe lengths, tombstones, ...) for the exporter.
  [[nodiscard]] const ConnMap& tcp_demux() const noexcept { return tcp_conns_; }

  // Live connections for the stats exporter, in deterministic (key-sorted)
  // order — hash-table iteration order means nothing.
  [[nodiscard]] std::vector<std::pair<ConnKey, TcpConnection*>> tcp_connections()
      const {
    return tcp_conns_.sorted_snapshot();
  }

 private:
  // Compact TIME-WAIT record: everything needed to answer (or recycle on) a
  // late segment for a closed tuple. Slab-allocated; the deque keeps record
  // addresses stable for the index.
  struct TimeWaitRecord {
    ConnKey key;
    std::uint32_t rcv_nxt = 0;
    std::uint32_t snd_nxt = 0;
    std::uint32_t slot = 0;       // own slab index
    bool live = false;
    sim::TimerHandle timer;
  };

  // True when the segment's transport checksum verifies (or is vouched for
  // by rx hardware / descriptor data the host can't read).
  [[nodiscard]] bool demux_checksum_ok(const mbuf::Mbuf* pkt,
                                       const IpHeader& ih) const;
  [[nodiscard]] TimeWaitRecord* timewait_lookup(const ConnKey& key) const {
    return tw_index_.find(key);
  }
  void timewait_release(TimeWaitRecord* tw);  // cancel + unindex + freelist

  HostEnv env_;
  RouteTable routes_;
  std::vector<Ifnet*> ifnets_;
  std::unique_ptr<Ip> ip_;
  std::unique_ptr<Udp> udp_;
  ConnMap tcp_conns_;
  std::map<std::pair<IpAddr, std::uint16_t>, std::deque<TcpConnection*>>
      tcp_listeners_;
  std::map<std::pair<IpAddr, std::uint16_t>, int> listen_services_;
  std::map<std::uint8_t, RawHandler> raw_handlers_;
  // list: zombie reapers erase by iterator in O(1) without invalidating
  // peers' iterators.
  std::list<std::pair<std::unique_ptr<TcpConnection>, sim::TimerHandle>> zombies_;
  std::deque<TimeWaitRecord> tw_slab_;
  std::vector<std::uint32_t> tw_free_;
  ConnTable<ConnKey, TimeWaitRecord*> tw_index_;
  std::size_t tw_live_ = 0;
  // SYN cookies: when the embryonic backlog for a live listen service is
  // exhausted, a clean SYN is answered with a stateless cookie SYN|ACK
  // instead of being dropped; the handshake-completing ACK reconstructs the
  // connection.
  SynCookieJar cookie_jar_;
  // Per-port count of live full-tuple bindings (ephemeral allocator).
  std::vector<std::uint32_t> lport_use_ = std::vector<std::uint32_t>(65536, 0);
  std::uint16_t next_ephemeral_ = 10000;
  std::uint32_t next_flow_id_ = 0;
  Stats stats_;
};

}  // namespace nectar::net
