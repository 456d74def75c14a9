// TCP input: checksum verification (outboard or software), ACK processing,
// in-order delivery with reassembly, and the connection state machine.
#include <cassert>

#include "net/tcp.h"
#include "telemetry/telemetry.h"

namespace nectar::net {

using mbuf::Mbuf;

namespace {
std::uint8_t scale_for(std::size_t bufsize) {
  std::uint8_t s = 0;
  while (s < 14 && (0xffffULL << s) < bufsize) ++s;
  return s;
}
}  // namespace

sim::Task<bool> TcpConnection::verify_checksum(KernCtx ctx, Mbuf* pkt,
                                               const IpHeader& ih,
                                               std::size_t seg_len) {
  auto& env = stack_.env();
  // A coalesced record (receive offload): the driver verified every merged
  // wire segment's hardware checksum before building it, and the merged
  // record has no single wire checksum of its own to re-derive.
  if (pkt->pkthdr.rx_csum_verified) {
    ++stats_.hw_csum_rx;
    co_return true;
  }
  // A record containing descriptor mbufs cannot be read by the host; the
  // hardware sum is the only option there regardless of policy.
  bool any_descriptor = false;
  for (const Mbuf* m = pkt; m != nullptr; m = m->next) {
    if (m->is_descriptor()) any_descriptor = true;
  }
  const std::uint32_t pseudo = transport_pseudo_sum(
      ih.src, ih.dst, kProtoTcp, static_cast<std::uint16_t>(seg_len));
  if (pkt->pkthdr.rx_hw_sum_valid && (par_.csum_offload || any_descriptor)) {
    // §4.3: "The checksum calculation routine of TCP/UDP adjusts the checksum
    // calculated by the CAB by adding ... the fields of the ... pseudo-header,
    // and then compares it" — one constant-cost add, no data touched.
    ++stats_.hw_csum_rx;
    co_return checksum::fold(pseudo + pkt->pkthdr.rx_hw_sum) == 0xffff;
  }
  ++stats_.sw_csum_rx;
  co_await env.cpu.run(sim::transfer_time(static_cast<std::int64_t>(seg_len),
                                          stack_.costs().cksum_bw_bps),
                       ctx.acct, ctx.prio);
  const std::uint32_t sum =
      pseudo + mbuf::in_cksum_range(pkt, 0, static_cast<int>(seg_len));
  co_return checksum::fold(sum) == 0xffff;
}

sim::Task<void> TcpConnection::input_locked(KernCtx ctx, Mbuf* pkt,
                                            const IpHeader& ih) {
  auto& env = stack_.env();
  const auto seg_len = static_cast<std::size_t>(pkt->pkthdr.len);

  // Pull the header (plus options) contiguous; malformed segments drop.
  TcpHeader th;
  std::size_t hlen;
  try {
    if (seg_len < kTcpHdrLen) throw std::runtime_error("short segment");
    pkt = mbuf::m_pullup(pkt, static_cast<int>(kTcpHdrLen));
    th = read_tcp_header(pkt->span());
    hlen = static_cast<std::size_t>(th.data_off_words) * 4;
    if (hlen > seg_len) throw std::runtime_error("bad data offset");
    if (hlen > kTcpHdrLen) {
      pkt = mbuf::m_pullup(pkt, static_cast<int>(hlen));
      th = read_tcp_header(pkt->span());
    }
  } catch (const std::exception&) {
    ++stats_.bad_checksum;
    env.pool.free_chain(pkt);
    co_return;
  }
  const std::size_t data_len = seg_len - hlen;
  const bool fin = (th.flags & kTcpFin) != 0;

  ++stats_.segs_in;
  const bool is_data = data_len > 0 || (th.flags & (kTcpSyn | kTcpFin));
  co_await env.cpu.run(
      sim::usec(is_data ? stack_.costs().tcp_input_us : stack_.costs().tcp_ack_us),
      ctx.acct, ctx.prio);
  if (!is_data) ++stats_.acks_in;

  if (!co_await verify_checksum(ctx, pkt, ih, seg_len)) {
    ++stats_.bad_checksum;
    env.pool.free_chain(pkt);
    co_return;
  }

  if (th.flags & kTcpRst) {
    env.pool.free_chain(pkt);
    enter_state(TcpState::kClosed);
    teardown();
    cb_->notify_readable();  // readers observe the reset as EOF
    cb_->notify_writable();
    co_return;
  }

  // ECN receiver half (RFC 3168 shape): a CE-marked data segment latches the
  // echo — every ACK carries ECE until the sender's CWR confirms it reduced.
  // Only checksum-verified segments get here, so corruption can't latch.
  if (ih.ecn == kEcnCe && data_len > 0) {
    ++stats_.ecn_ce_rcvd;
    ecn_echo_ = true;
  }
  if ((th.flags & kTcpCwr) != 0) ecn_echo_ = false;

  switch (state_) {
    case TcpState::kListen: {
      if (!(th.flags & kTcpSyn) || (th.flags & kTcpAck)) {
        env.pool.free_chain(pkt);
        co_return;
      }
      // Complete the tuple and move to the full-connection demux.
      complete_tuple(ih, th);
      if (th.mss != 0) mss_ = std::min(mss_, th.mss);
      if (th.has_ws && par_.window_scaling) {
        snd_scale_ = th.ws;
        rcv_scale_ = scale_for(par_.rcvbuf);
      } else {
        snd_scale_ = rcv_scale_ = 0;
      }
      irs_ = th.seq;
      rcv_nxt_ = th.seq + 1;
      iss_ = (th.seq ^ 0x5ca1ab1eu) | 1;
      snd_una_ = snd_nxt_ = snd_max_ = iss_;
      cwnd_ = mss_;
      snd_wnd_ = th.win;  // unscaled in SYN
      enter_state(TcpState::kSynReceived);
      env.pool.free_chain(pkt);
      co_await send_control(ctx, iss_, kTcpSyn | kTcpAck);
      snd_nxt_ = snd_max_ = iss_ + 1;
      start_rexmt_timer();
      co_return;
    }

    case TcpState::kSynSent: {
      if (!(th.flags & kTcpSyn)) {
        env.pool.free_chain(pkt);
        co_return;
      }
      irs_ = th.seq;
      rcv_nxt_ = th.seq + 1;
      if (th.mss != 0) mss_ = std::min(mss_, th.mss);
      if (th.has_ws && par_.window_scaling) {
        snd_scale_ = th.ws;
      } else {
        snd_scale_ = rcv_scale_ = 0;
      }
      if (th.flags & kTcpAck) {
        if (th.ack != iss_ + 1) {  // bogus
          env.pool.free_chain(pkt);
          co_return;
        }
        snd_una_ = th.ack;
        stop_rexmt_timer();
        snd_wnd_ = th.win;  // SYN segments carry unscaled windows
        enter_state(TcpState::kEstablished);
        env.pool.free_chain(pkt);
        co_await send_control(ctx, snd_nxt_, kTcpAck);
      } else {
        // Simultaneous open.
        enter_state(TcpState::kSynReceived);
        env.pool.free_chain(pkt);
        co_await send_control(ctx, iss_, kTcpSyn | kTcpAck);
      }
      co_return;
    }

    case TcpState::kClosed:
      env.pool.free_chain(pkt);
      co_return;

    default:
      break;
  }

  // SYN_RCVD: the ACK of our SYN completes establishment; fall through to
  // normal processing for any piggybacked data.
  if (state_ == TcpState::kSynReceived && (th.flags & kTcpAck) &&
      th.ack == iss_ + 1) {
    snd_una_ = th.ack;
    snd_wnd_ = static_cast<std::uint32_t>(th.win) << snd_scale_;
    stop_rexmt_timer();
    enter_state(TcpState::kEstablished);
  }

  if (th.flags & kTcpAck) co_await process_ack(ctx, th);

  if (data_len > 0 || fin) {
    mbuf::m_adj(pkt, static_cast<int>(hlen));  // strip TCP header
    co_await accept_data(ctx, pkt, th, data_len, fin);
  } else {
    env.pool.free_chain(pkt);
    // A zero-length segment outside the window is a window probe: answer
    // with an ACK carrying the current window (RFC 793 unacceptable-segment
    // rule).
    if (th.seq != rcv_nxt_ && state_ == TcpState::kEstablished)
      co_await send_control(ctx, snd_nxt_, kTcpAck);
  }
}

sim::Task<void> TcpConnection::process_ack(KernCtx ctx, const TcpHeader& th) {
  if (state_ == TcpState::kClosed) co_return;  // orphaned while suspended

  // ECN sender half: an ECE-bearing ACK halves the effective window, at
  // most once per window of data — ACKs fenced below ecn_cwr_seq_ report
  // the same congestion event. CWR rides the next data segment out.
  if ((th.flags & kTcpEce) != 0) {
    ++stats_.ecn_ece_rcvd;
    if (!ecn_cut_ever_ || seq_gt(th.ack, ecn_cwr_seq_)) {
      ecn_cut_ever_ = true;
      ecn_cwr_seq_ = snd_max_;
      ++stats_.ecn_cwnd_cuts;
      ssthresh_ = std::max<std::uint32_t>(2u * mss_, cwnd_ / 2);
      cwnd_ = ssthresh_;
      cwr_pending_ = true;
    }
  }

  // Window update from the most recent acceptable segment.
  const std::uint32_t wnd = static_cast<std::uint32_t>(th.win) << snd_scale_;

  if (!seq_gt(th.ack, snd_una_)) {
    // Duplicate or old ACK — possibly a pure window update from a receiver
    // whose application drained its buffer. A grown window must restart the
    // sender: nothing else will (this is the receiver-driven update that
    // pairs with TcpConnection::window_update on the other side).
    const std::uint32_t old_wnd = snd_wnd_;
    if (th.ack == snd_una_ && snd_una_ != snd_max_ && wnd == snd_wnd_) {
      ++stats_.dup_acks;
      ++dupacks_;
      if (dupacks_ == 3) {
        ++stats_.fast_rexmt;
        ssthresh_ = std::max<std::uint32_t>(2u * mss_, (snd_max_ - snd_una_) / 2);
        cwnd_ = ssthresh_ + 3u * mss_;
        const std::uint32_t saved_nxt = snd_nxt_;
        snd_nxt_ = snd_una_;
        Sockbuf& sb = cb_->snd();
        const std::uint64_t pos = seq_to_pos(snd_una_);
        const auto sb_avail = static_cast<std::size_t>(sb.end_pos() - pos);
        std::size_t rlen = std::min<std::size_t>(mss_, sb_avail);
        if (rlen > 0) {
          if (sb.type_at(pos) == mbuf::MbufType::kWcab) {
            // An outboard packet retransmits whole — even when it spans
            // several wire MTUs (large-segment offload): the adaptor re-cuts
            // it, and the content rule forbids mixing it with adjacent data.
            rlen = sb.mbuf_run(pos, sb_avail);
          } else {
            rlen = sb.homogeneous_run(pos, rlen);
          }
        }
        co_await send_segment(ctx, snd_nxt_, rlen, kTcpAck);
        ++stats_.rexmt_segs;
        snd_nxt_ = saved_nxt;
      }
    }
    snd_wnd_ = wnd;
    // Persist is cancelled only by an actual transmission (output()): a
    // probe answer whose window is nonzero but still too small to send a
    // whole outboard packet must keep the probe clock running.
    if (snd_wnd_ > old_wnd) co_await output(ctx);
    co_return;
  }

  // New data acknowledged.
  const std::uint32_t acked = th.ack - snd_una_;
  Sockbuf& sb = cb_->snd();
  std::uint64_t ack_pos = una_pos_ + acked;
  if (fin_sent_ && ack_pos > sb.end_pos()) ack_pos = sb.end_pos();  // FIN phantom
  const auto drop = static_cast<std::size_t>(ack_pos - sb.base_pos());
  if (drop > 0) sb.drop(drop);
  snd_una_ = th.ack;
  una_pos_ = ack_pos;
  if (seq_gt(snd_una_, snd_nxt_)) snd_nxt_ = snd_una_;

  if (rtt_timing_ && seq_geq(th.ack, rtt_seq_)) {
    const sim::Duration measured = stack_.env().sim.now() - rtt_start_;
    update_rtt(measured);
    if (auto* tel = stack_.env().telemetry)
      tel->record_flow("rtt_ns", flow_id_, static_cast<std::uint64_t>(measured));
    rtt_timing_ = false;
  }
  rexmt_backoff_ = 0;
  dupacks_ = 0;

  // Congestion window growth (slow start / congestion avoidance).
  if (cwnd_ < ssthresh_) {
    cwnd_ += mss_;
  } else {
    cwnd_ += std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(mss_) * mss_ / cwnd_));
  }
  if (cwnd_ > par_.sndbuf) cwnd_ = static_cast<std::uint32_t>(par_.sndbuf);

  snd_wnd_ = wnd;

  stop_rexmt_timer();
  if (snd_una_ != snd_max_) start_rexmt_timer();

  // ACK of our FIN?
  if (fin_sent_ && th.ack == snd_max_) {
    switch (state_) {
      case TcpState::kFinWait1: enter_state(TcpState::kFinWait2); break;
      case TcpState::kClosing: enter_state(TcpState::kTimeWait); break;
      case TcpState::kLastAck:
        enter_state(TcpState::kClosed);
        teardown();
        break;
      default: break;
    }
  }

  cb_->notify_writable();
  co_await output(ctx);  // the opened window may allow more sends
}

sim::Task<void> TcpConnection::accept_data(KernCtx ctx, Mbuf* pkt,
                                           const TcpHeader& th,
                                           std::size_t data_len, bool fin) {
  auto& env = stack_.env();
  // Close the sender's one-way segment span (keyed by the untrimmed th.seq).
  // A duplicate delivery finds no open span — an orphan end, counted by the
  // registry, never an error.
  if (data_len > 0) {
    if (auto* tel = env.telemetry) {
      if (auto d = tel->span_end(
              telemetry::Stage::kSegment,
              telemetry::segment_key(key_.laddr, key_.lport, key_.faddr,
                                     key_.fport, th.seq)))
        tel->record_flow("seg_latency_ns", flow_id_,
                         static_cast<std::uint64_t>(*d));
    }
  }
  if (state_ == TcpState::kClosed) {  // orphaned while suspended
    env.pool.free_chain(pkt);
    co_return;
  }
  std::uint32_t seq = th.seq;
  std::size_t len = data_len;

  // Trim data we already have.
  if (seq_lt(seq, rcv_nxt_)) {
    const std::uint32_t dup = rcv_nxt_ - seq;
    if (dup >= len + (fin ? 1u : 0u)) {
      // Entirely duplicate: re-ACK so the peer resynchronizes (this is also
      // the response that answers zero-window probes).
      ++stats_.dup_segs_in;
      env.pool.free_chain(pkt);
      co_await send_control(ctx, snd_nxt_, kTcpAck);
      co_return;
    }
    mbuf::m_adj(pkt, static_cast<int>(dup));
    seq += dup;
    len -= dup;
  }

  if (seq != rcv_nxt_) {
    // Out of order: hold for reassembly (bounded by the advertised window),
    // and send an immediate duplicate ACK.
    ++stats_.ooo_segs;
    if (ooo_.contains(seq)) {
      env.pool.free_chain(pkt);
    } else {
      ooo_.emplace(seq, pkt);
      if (fin) ooo_fin_.emplace(seq, true);
    }
    co_await send_control(ctx, snd_nxt_, kTcpAck);
    co_return;
  }

  // In-order: deliver, then drain the reassembly queue.
  bool got_fin = false;
  Mbuf* rec = pkt;
  std::uint32_t rec_seq = seq;
  std::size_t rec_len = len;
  bool rec_fin = fin;
  for (;;) {
    if (rec_len > 0) {
      if (cb_->rcv().space() < rec_len) {
        // Beyond what we advertised; drop (the peer will retransmit).
        env.pool.free_chain(rec);
        break;
      }
      stats_.bytes_in += rec_len;
      rec->clear_flags(mbuf::kMPktHdr);
      cb_->rcv().append(rec);
    } else {
      env.pool.free_chain(rec);
    }
    rcv_nxt_ = rec_seq + static_cast<std::uint32_t>(rec_len);
    if (rec_fin) {
      got_fin = true;
      rcv_nxt_ += 1;
      break;
    }
    auto it = ooo_.find(rcv_nxt_);
    if (it == ooo_.end()) break;
    rec = it->second;
    rec_seq = it->first;
    rec_len = static_cast<std::size_t>(mbuf::m_length(rec));
    rec_fin = ooo_fin_.contains(rec_seq);
    ooo_fin_.erase(rec_seq);
    ooo_.erase(it);
  }

  if (got_fin && !fin_rcvd_) {
    fin_rcvd_ = true;
    drop_ooo_queue();
    switch (state_) {
      case TcpState::kEstablished: enter_state(TcpState::kCloseWait); break;
      case TcpState::kFinWait1: enter_state(TcpState::kClosing); break;
      case TcpState::kFinWait2: enter_state(TcpState::kTimeWait); break;
      default: break;
    }
  }

  cb_->notify_readable();

  // ACK policy: immediate every Nth segment or on FIN, else delayed. A
  // coalesced record (receive offload) stands in for several wire segments:
  // count its MSS-equivalents, so merging never slows the peer's ack clock
  // (and with it cwnd growth) below what the unmerged stream would see.
  unacked_segs_ += data_len > 0
                       ? static_cast<int>((data_len + mss_ - 1) / mss_)
                       : 1;
  ack_due_ = true;
  if (got_fin || unacked_segs_ >= kTcpAckEvery) {
    ack_due_ = false;
    unacked_segs_ = 0;
    delack_timer_.cancel();
    co_await send_control(ctx, snd_nxt_, kTcpAck);
  } else if (!delack_timer_.armed()) {
    delack_timer_ = proto_timer(kTcpDelack, [this] { delack_fire(); });
  }
}

void TcpConnection::complete_tuple(const IpHeader& ih, const TcpHeader& th) {
  stack_.tcp_unlisten(key_.laddr, key_.lport, this);
  listening_ = false;
  key_.laddr = ih.dst;
  key_.faddr = ih.src;
  key_.fport = th.src_port;
  stack_.tcp_bind(key_, this);
  bound_ = true;
  cache_route();
  mss_ = static_cast<std::uint16_t>(
      (route_if_ != nullptr ? route_if_->mtu() : 1500) - kIpHdrLen - kTcpHdrLen);
}

void TcpConnection::cookie_establish(const IpHeader& ih, const TcpHeader& th,
                                     std::uint16_t peer_mss) {
  assert(state_ == TcpState::kListen);
  // Same tuple completion as the kListen SYN conversion...
  complete_tuple(ih, th);
  mss_ = std::min(mss_, peer_mss);
  // ...but every handshake variable comes from the cookie ACK instead of a
  // remembered SYN: the peer acked cookie+1 and its first data byte is
  // th.seq. Cookies carry no window-scale bits, so both directions run
  // unscaled.
  snd_scale_ = rcv_scale_ = 0;
  irs_ = th.seq - 1;
  rcv_nxt_ = th.seq;
  rcv_adv_ = th.seq;
  iss_ = th.ack - 1;
  snd_una_ = snd_nxt_ = snd_max_ = th.ack;
  cwnd_ = mss_;
  snd_wnd_ = th.win;
  enter_state(TcpState::kEstablished);
}

}  // namespace nectar::net
