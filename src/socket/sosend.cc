// sosend: the transmit half of the user socket API.
#include <cassert>

#include "overload/overload.h"
#include "socket/socket.h"
#include "telemetry/telemetry.h"

namespace nectar::socket {

using mbuf::Mbuf;
using net::KernCtx;

net::Ifnet* Socket::single_copy_ifp(net::IpAddr dst) {
  auto route = stack_.routes().lookup(dst);
  return route && route->ifp->single_copy() ? route->ifp : nullptr;
}

bool Socket::single_copy_eligible(const mem::Uio& data, net::IpAddr dst,
                                  std::size_t len) {
  if (opts_.policy == CopyPolicy::kNeverSingleCopy) return false;
  if (single_copy_ifp(dst) == nullptr) return false;
  if (!data.word_aligned()) {
    // §4.5: the CAB DMA engines require word-aligned host addresses; the
    // traditional path handles unaligned accesses.
    ++stats_.unaligned_fallbacks;
    return false;
  }
  if (opts_.policy == CopyPolicy::kAlwaysSingleCopy) return true;
  return len >= opts_.single_copy_threshold;
}

// Single-copy transmit staging (§2.2): pin+map one packet's worth in
// application context, then copy it outboard immediately — "decisions about
// partitioning of user data into packets must be made before the data is
// transferred out of user space". The completion appends an M_WCAB mbuf to
// the send buffer and kicks TCP; the actual (re)transmission is always a
// header-rewrite SDMA plus MDMA against this staged packet.
sim::Task<void> Socket::append_single_copy(ProcCtx& p, KernCtx ctx,
                                           const mem::Uio& chunk) {
  auto& env = stack_.env();
  net::Ifnet* drv = single_copy_ifp(tp_->key().faddr);
  if (drv == nullptr)
    throw std::logic_error("sosend: single-copy append without a CAB route");
  const std::size_t header_space = drv->tx_header_space();
  const std::size_t mss = tp_->mss();

  const std::size_t total = chunk.total_len();
  for (std::size_t off = 0; off < total;) {
    // Large-segment offload: stage up to tx_tso_segs() wire MTUs as one
    // descriptor — one pin pass, one staging SDMA, one send-buffer mbuf, and
    // later one MDMA doorbell; the adaptor cuts it into wire segments.
    // Re-read per packet: degradation can drop the fan-out to 1 mid-write.
    std::size_t segs = std::max<std::size_t>(1, drv->tx_tso_segs());
    // Autosizing: never fan out wider than the peer's advertised window can
    // cover. SYN segments carry unscaled 16-bit windows, so right after the
    // handshake snd_wnd caps at 64K; a multi-MTU descriptor larger than that
    // could only leave via a persist probe (WCAB packets send whole).
    if (segs > 1) {
      const std::size_t wnd_segs = std::max<std::size_t>(1, tp_->snd_wnd() / mss);
      segs = std::min(segs, wnd_segs);
    }
    const std::size_t plen = std::min(mss * segs, total - off);
    mem::Uio pdata = chunk.slice(off, plen);
    // Pin + map in app context, one packet at a time (§4.4.1, §7.3). The
    // exact ranges are recorded so release is page-for-page symmetric.
    for (const auto& v : pdata.iov)
      co_await env.pin_cache.acquire(p.as, v.base, v.len, ctx.acct, ctx.prio);
    pinned_tx_.push_back(pdata);

    staged_tx_ += plen;
    tx_sync_.add(static_cast<int>(plen));
    const std::uint64_t id = stage_base_ + stage_q_.size();
    // sosend span: staging posted -> WCAB appended to the send buffer (the
    // in-order prefix rule means a slot can close well after its DMA).
    std::uint64_t tel_key = 0;
    if (auto* tel = env.telemetry) {
      tel_key = tel->next_key();
      tel->span_begin(telemetry::Stage::kSosend, env.tel_pid, tel_key,
                      tp_->flow_id());
    }
    stage_q_.push_back(StagedSlot{plen, false, {}, tel_key});
    Socket* self = this;
    co_await drv->copy_in(ctx, std::move(pdata), header_space,
                          [self, id](mbuf::Wcab w) { self->stage_complete(id, w); },
                          /*seg_stride=*/segs > 1 ? mss : 0);
    off += plen;
  }
}

// Staging SDMA completion. Completions can arrive out of staging order (the
// driver retries a failed transfer behind packets posted after it), but the
// send buffer is a byte stream: park the WCAB in its slot and append only the
// in-order prefix.
void Socket::stage_complete(std::uint64_t id, mbuf::Wcab w) {
  auto& e = stack_.env();
  StagedSlot& slot = stage_q_[static_cast<std::size_t>(id - stage_base_)];
  slot.ready = true;
  slot.w = w;
  bool appended = false;
  while (!stage_q_.empty() && stage_q_.front().ready) {
    StagedSlot s = stage_q_.front();
    stage_q_.pop_front();
    ++stage_base_;
    mbuf::UioWcabHdr hdr;
    hdr.sync = &tx_sync_;
    Mbuf* wm = e.pool.get_wcab(s.w, s.plen, hdr, false);
    snd_.append(wm);
    staged_tx_ -= s.plen;
    tx_sync_.done(static_cast<int>(s.plen));
    if (s.tel_key != 0) {
      if (auto* tel = e.telemetry)
        tel->span_end(telemetry::Stage::kSosend, s.tel_key);
    }
    appended = true;
  }
  if (appended) {
    // End-of-DMA context: hand the new packet(s) to TCP.
    net::KernCtx ictx{e.intr_acct, sim::Priority::Kernel};
    sim::spawn(tp_->send_ready(ictx));
  }
}

// The end of a write. Copy semantics (§4.4.2): a single-copy write returns
// only after every byte is outboard. The final SDMA's end-of-DMA interrupt
// wakes the writer (charged as interrupt work plus the reschedule), which
// then releases what staging pinned.
sim::Task<std::size_t> Socket::write_done(ProcCtx& p, KernCtx ctx, bool sc,
                                          std::size_t total) {
  if (sc) {
    auto& env = stack_.env();
    co_await tx_sync_.drain();
    co_await env.cpu.run(sim::usec(stack_.costs().intr_us), env.intr_acct,
                         sim::Priority::Interrupt);
    co_await env.cpu.run(sim::usec(stack_.costs().wakeup_us), ctx.acct, ctx.prio);
    co_await release_pins(p, ctx, pinned_tx_);
  }
  stats_.bytes_sent += total;
  co_return total;
}

sim::Task<void> Socket::pin_quanta(ProcCtx& p, KernCtx ctx, const mem::Uio& u,
                                   std::vector<mem::Uio>& pinned) {
  constexpr std::size_t kQuantum = 32 * 1024;
  for (const auto& v : u.iov) {
    for (std::size_t off = 0; off < v.len; off += kQuantum) {
      const std::size_t n = std::min(kQuantum, v.len - off);
      co_await stack_.env().pin_cache.acquire(p.as, v.base + off, n, ctx.acct,
                                              ctx.prio);
      pinned.push_back(mem::Uio{u.space, {mem::UioVec{v.base + off, n}}});
    }
  }
}

// Release exactly the ranges that were pinned (asymmetric quanta would
// corrupt the per-page pin counts).
sim::Task<void> Socket::release_pins(ProcCtx& p, KernCtx ctx,
                                     std::vector<mem::Uio>& pinned) {
  std::vector<mem::Uio> ranges;
  ranges.swap(pinned);
  for (const auto& u : ranges) {
    for (const auto& v : u.iov)
      co_await stack_.env().pin_cache.release(p.as, v.base, v.len, ctx.acct,
                                              ctx.prio);
  }
}

sim::Task<void> Socket::append_copy(ProcCtx& p, KernCtx ctx, const mem::Uio& chunk,
                                    Mbuf** out_chain) {
  (void)p;
  auto& env = stack_.env();
  const std::size_t len = chunk.total_len();
  // The traditional path: user -> kernel buffer copy, at copy bandwidth.
  co_await env.cpu.run(
      sim::transfer_time(static_cast<std::int64_t>(len), stack_.costs().copy_bw_bps),
      ctx.acct, ctx.prio);

  Mbuf* head = nullptr;
  Mbuf** link = &head;
  Mbuf* cur = nullptr;
  for (const auto& v : chunk.iov) {
    auto src = chunk.space->read_view(v.base, v.len);
    std::size_t off = 0;
    while (off < v.len) {
      if (cur == nullptr || cur->trailing_space() == 0) {
        cur = env.pool.get_cluster(false);
        *link = cur;
        link = &cur->next;
      }
      const std::size_t take = std::min(v.len - off, cur->trailing_space());
      cur->append(src.subspan(off, take));
      off += take;
    }
  }
  *out_chain = head;
  co_return;
}

sim::Task<std::size_t> Socket::send(ProcCtx& p, mem::Uio data) {
  assert(proto_ == Proto::kTcp);
  auto& env = stack_.env();
  KernCtx ctx{p.sys_acct, p.prio, tp_->flow_id()};
  co_await env.cpu.run(sim::usec(stack_.costs().syscall_us), ctx.acct, ctx.prio);
  ++stats_.writes;

  const std::size_t total = data.total_len();
  bool sc = single_copy_eligible(data, tp_->key().faddr, total);

  // §4.5 transmit fix-up: "if a write starts at an address that is a 16 bit
  // boundary (but not a 32 bit boundary), we can send a first packet of 16
  // bits, which will have to be copied, but the remainder of the data can be
  // DMAed since it is now word aligned."
  std::size_t fixup = 0;
  if (!sc && opts_.tx_align_fixup &&
      opts_.policy != CopyPolicy::kNeverSingleCopy && data.iov.size() == 1 &&
      data.iov[0].base % 4 != 0 && total >= opts_.single_copy_threshold) {
    if (single_copy_ifp(tp_->key().faddr) != nullptr) {
      fixup = 4 - static_cast<std::size_t>(data.iov[0].base % 4);
      sc = true;  // the remainder goes single-copy
      ++stats_.align_fixups;
    }
  }
  if (sc) ++stats_.single_copy_writes;
  else ++stats_.copy_writes;

  std::size_t done = 0;
  if (fixup > 0) {
    // The short unaligned prefix travels the copy path as its own packet.
    Mbuf* prefix = nullptr;
    co_await append_copy(p, ctx, data.slice(0, fixup), &prefix);
    while (snd_.space() <= staged_tx_) {
      if (tp_->state() == net::TcpState::kClosed) co_return done;
      co_await writable_.wait();
    }
    snd_.append(prefix);
    co_await tp_->send_ready(ctx);
    done = fixup;
  }
  while (done < total) {
    // Effective space counts data already staged outboard but not yet
    // appended (its completion will consume send-buffer space).
    while (snd_.space() <= staged_tx_) {
      if (tp_->state() == net::TcpState::kClosed) co_return done;
      co_await writable_.wait();
    }
    std::size_t chunk_len = std::min(total - done, snd_.space() - staged_tx_);
    if (sc && chunk_len < total - done) {
      // Never cut a single-copy write off a word boundary: the next chunk's
      // base must stay 32-bit aligned for the SDMA (§4.5). The final chunk
      // may be any length — nothing follows it.
      chunk_len &= ~std::size_t{3};
      if (chunk_len == 0) {
        if (tp_->state() == net::TcpState::kClosed) co_return done;
        co_await writable_.wait();
        continue;
      }
    }
    co_await env.cpu.run(sim::usec(stack_.costs().sosend_chunk_us), ctx.acct,
                         ctx.prio);
    mem::Uio chunk = data.slice(done, chunk_len);
    // The interface can lose single-copy capability mid-write (graceful
    // degradation drops kCapSingleCopy while the adaptor is unhealthy), so
    // re-check per chunk: a chunk that finds the capability gone rides the
    // traditional copy path, while `sc` still runs the tail drain/unpin for
    // whatever earlier chunks staged outboard.
    bool sc_chunk = sc && single_copy_ifp(tp_->key().faddr) != nullptr;
    // Overload descriptor gate: while NetworkMemory or the DMA queues sit
    // above their watermarks, new chunks ride the copy path instead of
    // staging more outboard data — the sockbuf then fills at TCP's pace and
    // the space-wait above becomes sendbuf pushback on the writer.
    if (sc_chunk && env.overload != nullptr &&
        !env.overload->admit_single_copy()) {
      sc_chunk = false;
      ++stats_.overload_copy_fallbacks;
    }
    if (sc_chunk) {
      co_await append_single_copy(p, ctx, chunk);
    } else {
      Mbuf* chain = nullptr;
      co_await append_copy(p, ctx, chunk, &chain);
      snd_.append(chain);
      co_await tp_->send_ready(ctx);
    }
    done += chunk_len;
  }
  co_return co_await write_done(p, ctx, sc, total);
}

sim::Task<std::size_t> Socket::sendto(ProcCtx& p, mem::Uio data, net::IpAddr dst,
                                      std::uint16_t dport) {
  assert(proto_ == Proto::kUdp);
  auto& env = stack_.env();
  KernCtx ctx{p.sys_acct, p.prio};
  co_await env.cpu.run(sim::usec(stack_.costs().syscall_us), ctx.acct, ctx.prio);
  co_await env.cpu.run(sim::usec(stack_.costs().sosend_chunk_us), ctx.acct, ctx.prio);
  ++stats_.writes;

  const std::size_t total = data.total_len();
  if (net::kUdpHdrLen + total > 0xffff - net::kIpHdrLen)
    throw std::invalid_argument("sendto: datagram exceeds the IPv4 maximum");
  const net::IpAddr src = stack_.source_addr_for(dst);
  const bool sc = single_copy_eligible(data, dst, total);

  Mbuf* chain = nullptr;
  if (sc) {
    ++stats_.single_copy_writes;
    co_await pin_quanta(p, ctx, data, pinned_tx_);
    tx_sync_.add(static_cast<int>(total));
    mbuf::UioWcabHdr hdr;
    hdr.sync = &tx_sync_;
    chain = env.pool.get_uio(data, total, hdr, false);
  } else {
    ++stats_.copy_writes;
    co_await append_copy(p, ctx, data, &chain);
  }

  co_await stack_.udp().output(ctx, chain, src, uport_, dst, dport,
                               opts_.udp_checksum);
  co_return co_await write_done(p, ctx, sc, total);
}

}  // namespace nectar::socket
