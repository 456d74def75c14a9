#include "net/netstack.h"

#include <stdexcept>

#include "checksum/internet_checksum.h"
#include "mbuf/mbuf_ops.h"
#include "net/ip.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "overload/overload.h"
#include "sim/timer_wheel.h"

namespace nectar::net {

NetStack::NetStack(HostEnv env) : env_(env) {
  ip_ = std::make_unique<Ip>(*this);
  udp_ = std::make_unique<Udp>(*this);
}

NetStack::~NetStack() {
  // Outstanding TIME-WAIT / zombie-reaper timers capture `this`; the wheel
  // outlives the stack, so disarm them.
  for (auto& tw : tw_slab_) tw.timer.cancel();
  for (auto& [tp, timer] : zombies_) timer.cancel();
}

void NetStack::add_ifnet(Ifnet* ifp) {
  ifp->set_stack(this);
  ifnets_.push_back(ifp);
}

IpAddr NetStack::source_addr_for(IpAddr dst) const {
  auto r = routes_.lookup(dst);
  return r ? r->ifp->addr() : 0;
}

Ifnet& NetStack::outboard_ifnet(const mbuf::Wcab& w) const {
  for (Ifnet* ifp : ifnets_) {
    if (ifp->outboard_owner() == w.owner) return *ifp;
  }
  throw std::logic_error("netstack: orphan WCAB data (no owning device)");
}

void NetStack::tcp_bind(const ConnKey& key, TcpConnection* tp) {
  if (!tcp_conns_.insert(key, tp))
    throw std::invalid_argument("netstack: tcp tuple in use");
  ++lport_use_[key.lport];
  // First binding names the flow: the id rides every packet the connection
  // sends so the CAB's DMA arbiter can queue per flow. The arbitration class
  // weight travels with the id — broadcast to every interface, since the
  // route is not pinned yet.
  if (tp->flow_id() == 0) {
    tp->set_flow_id(++next_flow_id_);
    if (tp->params().arb_weight != 1) {
      for (Ifnet* ifp : ifnets_)
        ifp->set_flow_weight(tp->flow_id(), tp->params().arb_weight);
    }
  }
}

void NetStack::tcp_unbind(const ConnKey& key) {
  if (tcp_conns_.erase(key) && lport_use_[key.lport] > 0) {
    --lport_use_[key.lport];
  }
}

void NetStack::tcp_listen(IpAddr laddr, std::uint16_t lport, TcpConnection* tp) {
  tcp_listeners_[std::make_pair(laddr, lport)].push_back(tp);
}

void NetStack::tcp_unlisten(IpAddr laddr, std::uint16_t lport, TcpConnection* tp) {
  const auto it = tcp_listeners_.find(std::make_pair(laddr, lport));
  if (it == tcp_listeners_.end()) return;
  std::erase(it->second, tp);
  if (it->second.empty()) tcp_listeners_.erase(it);
}

TcpConnection* NetStack::tcp_lookup(const ConnKey& key) const {
  return tcp_conns_.find(key);
}

TcpConnection* NetStack::tcp_lookup_listen(IpAddr laddr, std::uint16_t lport) const {
  auto it = tcp_listeners_.find(std::make_pair(laddr, lport));
  if (it != tcp_listeners_.end()) return it->second.front();
  // Wildcard listen (laddr 0).
  it = tcp_listeners_.find(std::make_pair(IpAddr{0}, lport));
  return it != tcp_listeners_.end() ? it->second.front() : nullptr;
}

void NetStack::listen_service_register(IpAddr laddr, std::uint16_t lport) {
  ++listen_services_[std::make_pair(laddr, lport)];
}

void NetStack::listen_service_unregister(IpAddr laddr, std::uint16_t lport) {
  const auto it = listen_services_.find(std::make_pair(laddr, lport));
  if (it == listen_services_.end()) return;
  if (--it->second <= 0) listen_services_.erase(it);
}

bool NetStack::listen_service_exists(IpAddr laddr, std::uint16_t lport) const {
  // A service is anything a SYN could reach: an accept-loop registration
  // (shim listeners) or a live listening connection (raw sockets).
  return listen_services_.contains(std::make_pair(laddr, lport)) ||
         listen_services_.contains(std::make_pair(IpAddr{0}, lport)) ||
         tcp_listeners_.contains(std::make_pair(laddr, lport)) ||
         tcp_listeners_.contains(std::make_pair(IpAddr{0}, lport));
}

std::uint16_t NetStack::alloc_ephemeral_port(IpAddr laddr, IpAddr faddr,
                                             std::uint16_t fport) {
  constexpr int kRange = 65536 - 10000;  // candidate ports per sweep
  // Fast pass: a port with no binding at all is free for any tuple.
  for (int tries = 0; tries < kRange; ++tries) {
    const std::uint16_t p = next_ephemeral_++;
    if (next_ephemeral_ < 10000) next_ephemeral_ = 10000;
    if (lport_use_[p] == 0) return p;
  }
  // Every port carries bindings (>55k connections): fall back to full-tuple
  // vacancy — multiple server endpoints let the total keep growing.
  for (int tries = 0; tries < kRange; ++tries) {
    const std::uint16_t p = next_ephemeral_++;
    if (next_ephemeral_ < 10000) next_ephemeral_ = 10000;
    const ConnKey key{laddr, p, faddr, fport};
    if (!tcp_conns_.contains(key) && !tw_index_.contains(key)) return p;
  }
  // True exhaustion: every (laddr, p, faddr, fport) tuple is taken. Under
  // population churn this is an operating condition, not a program error —
  // report it (0 is never a valid ephemeral port) and let the caller fail
  // the one connect with an EADDRNOTAVAIL-style error.
  ++stats_.eph_port_exhausted;
  return 0;
}

void NetStack::adopt_zombie(std::unique_ptr<TcpConnection> tp) {
  // Longest plausible straggler: a retransmission timer backed off to
  // kTcpRtoMax. One linger period later nothing can still reference the
  // object.
  constexpr sim::Duration kZombieLinger = 31 * sim::kSecond;
  zombies_.emplace_back(std::move(tp), sim::TimerHandle{});
  const auto it = std::prev(zombies_.end());
  it->second = env_.wheel.schedule_after(kZombieLinger,
                                         [this, it] { zombies_.erase(it); });
}

// --- compact TIME-WAIT ------------------------------------------------------

void NetStack::timewait_enter(const ConnKey& key, std::uint32_t rcv_nxt,
                              std::uint32_t snd_nxt, sim::Duration linger) {
  // A recycled tuple can re-enter TIME-WAIT while an old record still
  // lingers; the new incarnation's state wins.
  if (TimeWaitRecord* old = tw_index_.find(key)) timewait_release(old);
  std::uint32_t idx;
  if (!tw_free_.empty()) {
    idx = tw_free_.back();
    tw_free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(tw_slab_.size());
    tw_slab_.emplace_back();
    tw_slab_.back().slot = idx;
  }
  TimeWaitRecord& tw = tw_slab_[idx];
  tw.key = key;
  tw.rcv_nxt = rcv_nxt;
  tw.snd_nxt = snd_nxt;
  tw.live = true;
  tw.timer = env_.wheel.schedule_after(linger, [this, idx] {
    TimeWaitRecord& rec = tw_slab_[idx];
    if (!rec.live) return;
    ++stats_.timewait_expiries;
    timewait_release(&rec);
  });
  tw_index_.insert(key, &tw);
  ++tw_live_;
  ++stats_.timewait_enters;
}

void NetStack::timewait_release(TimeWaitRecord* tw) {
  tw->timer.cancel();
  tw->live = false;
  tw_index_.erase(tw->key);
  tw_free_.push_back(tw->slot);
  --tw_live_;
}

void NetStack::set_raw_handler(std::uint8_t proto, RawHandler h) {
  if (!h) {
    raw_handlers_.erase(proto);
  } else {
    raw_handlers_[proto] = std::move(h);
  }
}

bool NetStack::demux_checksum_ok(const mbuf::Mbuf* pkt,
                                 const IpHeader& ih) const {
  const auto seg_len = static_cast<std::uint16_t>(pkt->pkthdr.len);
  const std::uint32_t pseudo =
      transport_pseudo_sum(ih.src, ih.dst, kProtoTcp, seg_len);
  bool any_descriptor = false;
  for (const mbuf::Mbuf* m = pkt; m != nullptr; m = m->next) {
    if (m->is_descriptor()) any_descriptor = true;
  }
  if (pkt->pkthdr.rx_hw_sum_valid) {
    return checksum::fold(pseudo + pkt->pkthdr.rx_hw_sum) == 0xffff;
  }
  if (any_descriptor) return true;  // outboard bytes: nothing to read here
  return checksum::fold(pseudo +
                        mbuf::in_cksum_range(pkt, 0, pkt->pkthdr.len)) == 0xffff;
}

sim::Task<void> NetStack::tcp_respond(KernCtx ctx, IpAddr src, IpAddr dst,
                                      std::uint16_t sport, std::uint16_t dport,
                                      std::uint32_t seq, std::uint32_t ack,
                                      std::uint8_t flags, std::uint16_t win,
                                      std::uint16_t mss) {
  co_await env_.cpu.run(sim::usec(env_.costs.tcp_output_us), ctx.acct, ctx.prio);
  TcpHeader th;
  th.src_port = sport;
  th.dst_port = dport;
  th.seq = seq;
  th.flags = flags;
  if (flags & kTcpAck) th.ack = ack;
  th.win = win;
  // Cookie SYN|ACKs carry the (class-rounded) MSS but never window scaling:
  // a scale would need cookie bits the MAC can't spare, so the reconstructed
  // connection runs unscaled.
  if (flags & kTcpSyn) th.mss = mss;
  const std::size_t hlen = kTcpHdrLen + tcp_options_len(th);
  mbuf::Mbuf* h = env_.pool.get_hdr();
  h->align_end(hlen);
  std::byte hdr_bytes[64];
  std::span<std::byte> hb{hdr_bytes, hlen};
  th.checksum = 0;
  write_tcp_header(hb, th);
  const std::uint32_t sum =
      transport_pseudo_sum(src, dst, kProtoTcp, static_cast<std::uint16_t>(hlen)) +
      checksum::ones_sum(hb);
  th.checksum = checksum::finish(sum);
  write_tcp_header(hb, th);
  h->append(hb);
  h->pkthdr.len = static_cast<int>(hlen);
  co_await ip_->output(ctx, h, src, dst, kProtoTcp, /*dont_fragment=*/true);
}

sim::Task<void> NetStack::transport_input(KernCtx ctx, std::uint8_t proto,
                                          mbuf::Mbuf* pkt, const IpHeader& ih) {
  switch (proto) {
    case kProtoTcp: {
      if (pkt->pkthdr.len < static_cast<int>(kTcpHdrLen)) {
        env_.pool.free_chain(pkt);
        co_return;
      }
      pkt = mbuf::m_pullup(pkt, static_cast<int>(kTcpHdrLen));
      // A header that does not parse (e.g. a corrupted data-offset nibble)
      // is charged to the checksum, same as tcp_input's malformed-segment
      // guard — it must not escape the demux as an exception.
      TcpHeader th;
      try {
        th = read_tcp_header(pkt->span());
      } catch (const std::exception&) {
        ++stats_.bad_checksum;
        env_.pool.free_chain(pkt);
        co_return;
      }
      const ConnKey key{ih.dst, th.dst_port, ih.src, th.src_port};
      TcpConnection* tp = tcp_lookup(key);

      // Compact TIME-WAIT interception: the tuple's connection object is
      // gone but its 2*MSL obligations aren't. Checksum first — a corrupted
      // segment must not recycle or re-ACK anything.
      if (tp == nullptr) {
        if (TimeWaitRecord* tw = timewait_lookup(key)) {
          if (!demux_checksum_ok(pkt, ih)) {
            ++stats_.bad_checksum;
            env_.pool.free_chain(pkt);
            co_return;
          }
          if ((th.flags & kTcpRst) != 0) {
            // RFC 1337: RSTs don't cut TIME-WAIT short.
            env_.pool.free_chain(pkt);
            co_return;
          }
          if ((th.flags & kTcpSyn) != 0 && (th.flags & kTcpAck) == 0 &&
              seq_gt(th.seq, tw->rcv_nxt)) {
            // A fresh SYN above the old window recycles the tuple (BSD): drop
            // the record and let the SYN take the normal listen path below.
            ++stats_.timewait_recycles;
            timewait_release(tw);
          } else {
            // Anything else (late FIN retransmission, stray data) re-earns
            // the final ACK the record exists to send.
            ++stats_.timewait_acks;
            const std::uint32_t snd_nxt = tw->snd_nxt;
            const std::uint32_t rcv_nxt = tw->rcv_nxt;
            env_.pool.free_chain(pkt);
            co_await tcp_respond(ctx, ih.dst, ih.src, th.dst_port, th.src_port,
                                 snd_nxt, rcv_nxt, kTcpAck, /*win=*/0, 0);
            co_return;
          }
        }
      }

      if (tp == nullptr) {
        // A pure ACK with no bound tuple and no SYN_RCVD socket may complete
        // a cookie handshake: validate before the listener fallback would
        // silently eat it. Checksum precedes the cookie check — a corrupted
        // ACK field must be charged to the checksum, not "rejected cookie".
        const bool pure_ack = (th.flags & kTcpAck) != 0 &&
                              (th.flags & (kTcpSyn | kTcpRst)) == 0;
        if (pure_ack && listen_service_exists(ih.dst, th.dst_port)) {
          if (!demux_checksum_ok(pkt, ih)) {
            ++stats_.bad_checksum;
            env_.pool.free_chain(pkt);
            co_return;
          }
          const SynCookieJar::Decoded dec =
              cookie_jar_.decode(ih.dst, th.dst_port, ih.src, th.src_port,
                                 th.ack - 1, env_.sim.now());
          if (dec.valid) {
            if (TcpConnection* lp = tcp_lookup_listen(ih.dst, th.dst_port)) {
              // Reconstruct the connection the cookie stands for and feed it
              // this ACK (which may piggyback data).
            ++stats_.syn_cookies_accepted;
              ++stats_.tcp_in;
              lp->cookie_establish(ih, th, dec.mss);
              co_await lp->input(ctx, pkt, ih);
            } else {
              // Valid cookie, but accept's backlog is still exhausted: the
              // client's data retransmission retries the completion later.
              ++stats_.syn_cookie_overflows;
              env_.pool.free_chain(pkt);
            }
          } else {
            ++stats_.syn_cookies_rejected;
            env_.pool.free_chain(pkt);
          }
          co_return;
        }
        // Overload admission gate: a fresh SYN is the one segment that
        // commits new connection state, so under resource pressure it is
        // deferred — dropped before the listen lookup, with the client's SYN
        // retransmission as the retry. Checksum first so a corrupted SYN is
        // charged to the checksum, not to admission.
        if (auto* ovl = env_.overload;
            ovl != nullptr && (th.flags & kTcpSyn) != 0 &&
            (th.flags & kTcpAck) == 0 &&
            listen_service_exists(ih.dst, th.dst_port) && !ovl->admit_syn()) {
          if (!demux_checksum_ok(pkt, ih)) {
            ++stats_.bad_checksum;
          } else {
            ++stats_.syn_admission_deferred;
          }
          env_.pool.free_chain(pkt);
          co_return;
        }
        tp = tcp_lookup_listen(ih.dst, th.dst_port);
      }
      if (tp == nullptr) {
        // Checksum before concluding "no such port" (BSD verifies before the
        // PCB lookup): a bit flip in a port field must be charged to the
        // checksum, not mistaken for a connection-less segment.
        if (!demux_checksum_ok(pkt, ih)) {
          ++stats_.bad_checksum;
        } else if ((th.flags & kTcpSyn) != 0 && (th.flags & kTcpAck) == 0 &&
                   listen_service_exists(ih.dst, th.dst_port)) {
          // A clean SYN for a live listen service whose embryonic-socket
          // backlog is empty: the accept path is overflowing. Answer
          // statelessly: the cookie ISS remembers the handshake so this
          // stack doesn't have to. MSS defaults to the classic 536 when the
          // SYN carried none.
          ++stats_.listen_overflows;
          ++stats_.syn_cookies_sent;
          const std::uint16_t peer_mss = th.mss != 0 ? th.mss : 536;
          const std::uint32_t cookie =
              cookie_jar_.encode(ih.dst, th.dst_port, ih.src, th.src_port,
                                 peer_mss, env_.sim.now());
          const std::uint32_t ack = th.seq + 1;
          const std::uint16_t mss_echo =
              SynCookieJar::kMssTable[SynCookieJar::mss_class(peer_mss)];
          env_.pool.free_chain(pkt);
          co_await tcp_respond(ctx, ih.dst, ih.src, th.dst_port, th.src_port,
                               cookie, ack, kTcpSyn | kTcpAck,
                               /*win=*/0xffff, mss_echo);
          co_return;
        } else {
          ++stats_.no_port;
        }
        env_.pool.free_chain(pkt);
        co_return;
      }
      ++stats_.tcp_in;
      co_await tp->input(ctx, pkt, ih);
      co_return;
    }
    case kProtoUdp:
      ++stats_.udp_in;
      co_await udp_->input(ctx, pkt, ih);
      co_return;
    default: {
      auto it = raw_handlers_.find(proto);
      if (it != raw_handlers_.end()) {
        ++stats_.raw_in;
        it->second(pkt, ih);
        co_return;
      }
      ++stats_.no_proto;
      env_.pool.free_chain(pkt);
      co_return;
    }
  }
}

// Ifnet base implementation of the single-copy extension: only overridden by
// single-copy drivers.
sim::Task<void> Ifnet::copy_out(KernCtx, const mbuf::Wcab&, std::vector<mem::HostSeg>,
                                mbuf::DmaSync*) {
  throw std::logic_error("Ifnet(" + name() + "): copy_out on non-single-copy device");
}

sim::Task<void> Ifnet::copy_in(KernCtx, mem::Uio, std::size_t,
                               std::function<void(mbuf::Wcab)>, std::size_t) {
  throw std::logic_error("Ifnet(" + name() + "): copy_in on non-single-copy device");
}

}  // namespace nectar::net
