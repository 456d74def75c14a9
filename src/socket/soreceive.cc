// soreceive: the receive half of the user socket API.
//
// Regular mbuf data is copied to the user buffer by the CPU (charged at copy
// bandwidth). M_WCAB data is DMAed straight from CAB network memory to the
// (pinned) user buffer via the driver's copy-out routine — the single copy —
// with an unaligned-destination fallback that stages through a kernel buffer
// (§4.5: "this flexibility does not exist on receive", so the fallback pays
// an extra CPU copy).
#include <cassert>
#include <cstring>
#include <vector>

#include "socket/socket.h"
#include "telemetry/telemetry.h"

namespace nectar::socket {

using mbuf::Mbuf;
using net::KernCtx;

namespace {

// Copy a kernel span into user memory described by a uio (real bytes only;
// simulated cost is charged by the caller).
void copy_to_user(const mem::Uio& dst, std::span<const std::byte> src) {
  std::size_t pos = 0;
  for (const auto& v : dst.iov) {
    if (pos >= src.size()) break;
    const std::size_t n = std::min(v.len, src.size() - pos);
    auto out = dst.space->write_view(v.base, n);
    std::memcpy(out.data(), src.data() + pos, n);
    pos += n;
  }
}

}  // namespace

// Deliver `take` bytes from the front of `sb` into `dst` (user memory).
sim::Task<std::size_t> Socket::deliver_bytes(ProcCtx& p, KernCtx ctx,
                                             net::Sockbuf& sb, mem::Uio dst,
                                             std::size_t take) {
  auto& env = stack_.env();
  std::size_t delivered = 0;
  while (delivered < take) {
    Mbuf* m = sb.head();
    assert(m != nullptr);
    const auto mlen = static_cast<std::size_t>(m->len());
    const std::size_t avail = std::min(mlen, take - delivered);
    if (avail == 0)
      throw std::logic_error("soreceive: empty mbuf in receive stream");
    mem::Uio sub = dst.slice(delivered, avail);

    if (m->type() == mbuf::MbufType::kData) {
      co_await env.cpu.run(sim::transfer_time(static_cast<std::int64_t>(avail),
                                              stack_.costs().copy_bw_bps),
                           ctx.acct, ctx.prio);
      copy_to_user(sub, m->span().first(avail));
      sb.drop(avail);
    } else if (m->type() == mbuf::MbufType::kWcab) {
      const mbuf::Wcab w = m->wcab();  // snapshot before drop mutates it
      net::Ifnet& drv = stack_.outboard_ifnet(w);
      stats_.wcab_bytes_received += avail;

      if (sub.word_aligned() && opts_.policy != CopyPolicy::kNeverSingleCopy) {
        // Single-copy: pin+map the user pages (app context), then DMA.
        co_await pin_quanta(p, ctx, sub, pinned_rx_);
        std::vector<mem::HostSeg> segs;
        sub.append_segs(segs);
        co_await drv.copy_out(ctx, w, std::move(segs), &rx_sync_);
        sb.drop(avail);  // the driver holds the buffer until the DMA executes
      } else {
        // Unaligned destination: stage through a kernel buffer, then a CPU
        // copy — the receive side cannot realign (§4.5).
        std::vector<std::byte> staging(avail);
        std::vector<mem::HostSeg> segs(1, mem::HostSeg{0, staging});
        mbuf::DmaSync local(env.sim);
        co_await drv.copy_out(ctx, w, std::move(segs), &local);
        co_await local.drain();
        co_await env.cpu.run(sim::transfer_time(static_cast<std::int64_t>(avail),
                                                stack_.costs().copy_bw_bps),
                             ctx.acct, ctx.prio);
        copy_to_user(sub, staging);
        sb.drop(avail);
      }
    } else {
      throw std::logic_error("soreceive: M_UIO in a receive buffer");
    }
    delivered += avail;
  }
  co_return delivered;
}

// The end of a read. Copy semantics (§4.4.2): the read returns once the
// incoming data is in place, so the reader waits for the last copy-out's
// end-of-DMA interrupt, which reschedules it; then it releases this read's
// pins (the lazy cache keeps them; eager mode unpins).
sim::Task<void> Socket::read_done(ProcCtx& p, KernCtx ctx, std::size_t got) {
  auto& env = stack_.env();
  if (rx_sync_.outstanding() > 0) {
    co_await rx_sync_.drain();
    co_await env.cpu.run(sim::usec(stack_.costs().intr_us), env.intr_acct,
                         sim::Priority::Interrupt);
    co_await env.cpu.run(sim::usec(stack_.costs().wakeup_us), ctx.acct, ctx.prio);
  }
  co_await release_pins(p, ctx, pinned_rx_);
  stats_.bytes_received += got;
}

sim::Task<std::size_t> Socket::recv(ProcCtx& p, mem::Uio dst) {
  assert(proto_ == Proto::kTcp);
  auto& env = stack_.env();
  KernCtx ctx{p.sys_acct, p.prio, tp_->flow_id()};
  co_await env.cpu.run(sim::usec(stack_.costs().syscall_us), ctx.acct, ctx.prio);
  ++stats_.reads;

  while (rcv_.empty()) {
    if (tp_->fin_received() || tp_->state() == net::TcpState::kClosed) co_return 0;
    co_await readable_.wait();
  }

  const std::size_t take = std::min(dst.total_len(), rcv_.cc());
  // soreceive span: data available -> bytes in place in the user buffer
  // (copy-out DMA drain and unpin included; the blocking wait above is not).
  std::uint64_t tel_key = 0;
  if (auto* tel = env.telemetry) {
    tel_key = tel->next_key();
    tel->span_begin(telemetry::Stage::kSoreceive, env.tel_pid, tel_key,
                    tp_->flow_id());
  }
  co_await env.cpu.run(sim::usec(stack_.costs().soreceive_chunk_us), ctx.acct,
                       ctx.prio);
  const std::size_t got = co_await deliver_bytes(p, ctx, rcv_, dst, take);
  co_await read_done(p, ctx, got);
  if (tel_key != 0) {
    if (auto* tel = env.telemetry)
      tel->span_end(telemetry::Stage::kSoreceive, tel_key);
  }
  co_await tp_->window_update(ctx);
  co_return got;
}

sim::Task<Socket::RecvFromResult> Socket::recvfrom(ProcCtx& p, mem::Uio dst) {
  assert(proto_ == Proto::kUdp);
  auto& env = stack_.env();
  KernCtx ctx{p.sys_acct, p.prio};
  co_await env.cpu.run(sim::usec(stack_.costs().syscall_us), ctx.acct, ctx.prio);
  ++stats_.reads;

  while (dgrams_.empty()) co_await readable_.wait();
  Datagram d = dgrams_.front();
  dgrams_.pop_front();

  co_await env.cpu.run(sim::usec(stack_.costs().soreceive_chunk_us), ctx.acct,
                       ctx.prio);

  // Stage the record through a private sockbuf so datagram delivery reuses
  // the stream delivery machinery (mixed regular/WCAB chains included).
  net::Sockbuf tmp(SIZE_MAX);
  tmp.set_pool(&env.pool);
  for (Mbuf* m = d.data; m != nullptr; m = m->next) m->clear_flags(mbuf::kMPktHdr);
  tmp.append(d.data);
  const std::size_t take = std::min(dst.total_len(), tmp.cc());
  const std::size_t got = co_await deliver_bytes(p, ctx, tmp, dst, take);
  // Any tail beyond the user buffer is discarded (datagram semantics);
  // Sockbuf's destructor frees it.
  co_await read_done(p, ctx, got);
  co_return RecvFromResult{got, d.src, d.sport};
}

}  // namespace nectar::socket
