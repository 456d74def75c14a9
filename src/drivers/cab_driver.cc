#include "drivers/cab_driver.h"

#include "checksum/wire.h"
#include "net/ip.h"
#include "telemetry/telemetry.h"

#include <cassert>
#include <cstdio>
#include <iterator>
#include <stdexcept>

namespace nectar::drivers {

using mbuf::Mbuf;
using net::KernCtx;

namespace {

// Recovery tuning: how the driver watches the adaptor and how hard it tries
// to bring it back (all deterministic — no wall clock, no randomness).
constexpr sim::Duration kWatchdogPeriod = sim::msec(10);
constexpr sim::Duration kResetDuration = sim::msec(5);    // board reinit time
constexpr sim::Duration kBackoffInitial = sim::msec(10);  // first retry after a failed reset
constexpr sim::Duration kBackoffCap = sim::msec(160);     // exponential backoff ceiling
constexpr sim::Duration kDmaRetryDelay = sim::usec(500);  // copy-in/out repost spacing
constexpr int kDmaRetryLimit = 20000;                     // per copy-out job
// Degraded receive window: autodma covers this many bytes so packets arrive
// fully host-resident and the software checksum can read them.
constexpr std::size_t kDegradedAutodmaBytes = 64 * 1024;

// Parsed view of a receive descriptor's auto-DMAed head, for the driver's
// coalescing (GRO) decisions. `tcp` marks a plain unfragmented IPv4 TCP
// segment whose frame length is self-consistent; only those may merge.
struct GroSeg {
  bool tcp = false;
  bool verified = false;  // hardware checksum checks out for this segment
  std::uint32_t src = 0, dst = 0;
  std::uint32_t seq = 0, ack = 0;
  std::uint16_t sport = 0, dport = 0, win = 0;
  std::uint8_t flags = 0;
  std::size_t thl = 0;      // transport header length
  std::size_t payload = 0;  // transport payload bytes
};

GroSeg parse_gro(const cab::RecvDesc& d) {
  GroSeg s;
  constexpr std::size_t ip_off = hippi::kHeaderSize;
  constexpr std::size_t tcp_off = ip_off + 20;
  const std::byte* b = d.head.data();
  if (d.head.size() < tcp_off + 20) return s;
  if (wire::load_be16(b + 8) != hippi::kTypeIp) return s;
  if (std::to_integer<std::uint8_t>(b[ip_off]) != 0x45) return s;  // v4, no options
  if ((wire::load_be16(b + ip_off + 6) & 0x3fff) != 0) return s;   // no fragments
  if (std::to_integer<std::uint8_t>(b[ip_off + 9]) != 6) return s;  // TCP only
  const std::size_t ip_total = wire::load_be16(b + ip_off + 2);
  if (d.total_len != ip_off + ip_total) return s;  // truncated / padded frame
  const std::size_t thl =
      static_cast<std::size_t>(std::to_integer<std::uint8_t>(b[tcp_off + 12]) >> 4) * 4;
  if (thl < 20 || 20 + thl > ip_total || d.head.size() < tcp_off + thl) return s;
  s.tcp = true;
  s.src = wire::load_be32(b + ip_off + 12);
  s.dst = wire::load_be32(b + ip_off + 16);
  s.sport = wire::load_be16(b + tcp_off);
  s.dport = wire::load_be16(b + tcp_off + 2);
  s.seq = wire::load_be32(b + tcp_off + 4);
  s.ack = wire::load_be32(b + tcp_off + 8);
  s.flags = std::to_integer<std::uint8_t>(b[tcp_off + 13]);
  s.win = wire::load_be16(b + tcp_off + 14);
  s.thl = thl;
  s.payload = ip_total - 20 - thl;
  // The receive engine's sum covers everything past the HIPPI + IP headers
  // (rx skip = 20 words); folding it against the pseudo-header verifies the
  // segment without the host ever reading the data.
  const std::uint32_t pseudo = net::transport_pseudo_sum(
      s.src, s.dst, 6, static_cast<std::uint16_t>(ip_total - 20));
  s.verified = checksum::fold(pseudo + d.hw_sum) == 0xffff;
  return s;
}

constexpr std::uint8_t kTcpFlagAckOnly = 0x10;

}  // namespace

hippi::Addr CabDriver::resolve(net::IpAddr next_hop) const {
  auto it = neighbors_.find(next_hop);
  if (it == neighbors_.end())
    throw std::out_of_range("CabDriver: no HIPPI neighbour for next hop");
  return it->second;
}

mbuf::Wcab CabDriver::wcab(cab::Handle h, std::size_t data_off,
                           std::size_t valid) const {
  mbuf::Wcab w;
  w.owner = &dev_;
  w.handle = h;
  w.data_off = static_cast<std::uint32_t>(data_off);
  w.valid = static_cast<std::uint32_t>(valid);
  return w;
}

Mbuf* CabDriver::frame(Mbuf* pkt, net::IpAddr next_hop, cab::SdmaRequest& req) {
  hippi::FrameHeader fh;
  fh.dst = resolve(next_hop);
  fh.src = dev_.addr();
  fh.type = hippi::kTypeIp;
  fh.payload_len = static_cast<std::uint32_t>(pkt->pkthdr.len);
  Mbuf* m0 = mbuf::m_prepend(pkt, static_cast<int>(hippi::kHeaderSize));
  hippi::write_header({m0->data(), hippi::kHeaderSize}, fh);

  req.dir = cab::SdmaRequest::Dir::kToCab;
  req.flow = m0->pkthdr.flow;
  if (m0->pkthdr.csum_tx.offload) {
    req.csum_enable = true;
    // Transport offsets are relative to the IP header; add the link header.
    req.skip_words = static_cast<std::uint16_t>(m0->pkthdr.csum_tx.skip_words +
                                                hippi::kHeaderSize / 4);
    req.csum_offset = static_cast<std::uint16_t>(m0->pkthdr.csum_tx.csum_offset +
                                                 hippi::kHeaderSize);
  }
  return m0;
}

Mbuf* CabDriver::wrap_residue(const cab::RecvDesc& d) {
  if (!d.handle) {
    ++drv_stats.rx_small;
    return nullptr;
  }
  ++drv_stats.rx_wcab;
  const std::size_t resid = d.total_len - d.head.size();
  mbuf::UioWcabHdr hdr;
  // The M_WCAB mbuf adopts the allocation reference.
  return stack()->env().pool.get_wcab(wcab(*d.handle, d.head.size(), resid), resid,
                                      hdr, false);
}

sim::Task<void> CabDriver::output(KernCtx ctx, Mbuf* pkt, net::IpAddr next_hop) {
  auto& env = stack()->env();
  co_await env.cpu.run(sim::usec(stack()->costs().driver_issue_us), ctx.acct,
                       ctx.prio);
  if (recovery_enabled_) {
    arm_watchdog();
    if (state_ == AdaptorState::kResetting) {
      // The board is mid-reset: drop fast, like a driver whose tx ring is
      // torn down. The transport retransmits once the adaptor is back.
      ++rec_stats.tx_dropped_resetting;
      ++if_stats.oerrors;
      mbuf::m_uio_done(pkt);
      env.pool.free_chain(pkt);
      co_return;
    }
  }

  // Classify the data portion.
  bool has_wcab = false;
  for (Mbuf* m = pkt; m != nullptr; m = m->next) {
    if (m->type() == mbuf::MbufType::kWcab) has_wcab = true;
  }
  if (has_wcab) {
    co_await output_rewrite(ctx, pkt, next_hop);
    co_return;
  }

  // Fresh packet: HIPPI header + full SDMA into a new outboard buffer.
  cab::SdmaRequest req;
  Mbuf* m0 = frame(pkt, next_hop, req);
  const auto total = static_cast<std::size_t>(m0->pkthdr.len);
  auto handle = dev_.nm().alloc(total);
  if (!handle) {
    ++drv_stats.tx_no_memory;
    ++if_stats.oerrors;
    mbuf::m_uio_done(m0);
    env.pool.free_chain(m0);
    co_return;
  }
  req.handle = *handle;
  for (Mbuf* m = m0; m != nullptr; m = m->next) {
    switch (m->type()) {
      case mbuf::MbufType::kData:
        req.segs.push_back(cab::SdmaSeg{0, m->span()});
        break;
      case mbuf::MbufType::kUio: {
        const mem::Uio& u = m->uio();
        if (!u.word_aligned())
          throw std::logic_error(
              "CabDriver: misaligned M_UIO reached the driver (socket-layer bug)");
        u.append_segs(req.segs);
        break;
      }
      case mbuf::MbufType::kWcab:
        throw std::logic_error("CabDriver: WCAB in fresh-packet path");
    }
  }

  ++drv_stats.tx_fresh;
  ++if_stats.opackets;
  if_stats.obytes += total;
  // Degraded windows drop kCapSingleCopy, so traffic that would have been
  // staged as super-segments arrives here pre-cut by the host: count each
  // such wire segment as a forced host segmentation.
  if (offload_enabled_ && oc_.tso_max > 1 && degraded_ != 0)
    ++off_stats.tx_fallback_host_seg;

  cab::MdmaXmit::Request mr;
  mr.handle = *handle;
  mr.len = total;
  mr.flow = m0->pkthdr.flow;
  post_tx(std::move(req), m0, std::move(mr));
}

void CabDriver::post_tx(cab::SdmaRequest req, Mbuf* chain, cab::MdmaXmit::Request mr) {
  // The mbuf chain must stay alive until the SDMA engine reads it. Either
  // way the SDMA ends, the packet's M_UIO data is done with: the writer's
  // counter completes and its pages may be unpinned.
  req.on_complete = [this, chain,
                     mr = std::move(mr)](const cab::SdmaRequest& done) mutable {
    const cab::Handle h = mr.handle;
    mbuf::m_uio_done(chain);
    chain->pool().free_chain(chain);
    if (done.failed) {
      // Nothing went outboard: the packet is dropped (the transport
      // retransmits, and WCAB data stays intact outboard); release the
      // transmit's buffer reference.
      ++rec_stats.tx_dma_failed;
      ++if_stats.oerrors;
      dev_.nm().release(h);
      note_dma_failure();
      return;
    }
    // Media transfer chains directly off SDMA completion (§2.2). The MDMA
    // completion drops the transmit's buffer reference; no host interrupt is
    // needed (TCP's ACK confirms delivery).
    cab::CabDevice* dev = &dev_;
    mr.on_complete = [dev, h] { dev->nm().release(h); };
    dev->mdma_xmit().post(std::move(mr));
  };
  const cab::Handle h = req.handle;
  if (!dev_.sdma().post(std::move(req))) {
    ++if_stats.oerrors;
    dev_.nm().release(h);
    mbuf::m_uio_done(chain);
    stack()->env().pool.free_chain(chain);
  }
}

sim::Task<void> CabDriver::output_rewrite(KernCtx ctx, Mbuf* pkt,
                                          net::IpAddr next_hop) {
  (void)ctx;
  // Expect: header mbufs (regular) followed by exactly one WCAB mbuf. The
  // outboard payload normally starts right after the header block
  // (data_off == headers); after a partial acknowledgement of a multi-MTU
  // super-segment the front of the WCAB has been trimmed, so the headers are
  // rewritten at `payload_off` and only the tail goes back on the wire.
  // TCP's segment-boundary rule guarantees the cut never lands mid-header.
  std::size_t hdr_len = 0;
  Mbuf* wm = nullptr;
  for (Mbuf* m = pkt; m != nullptr; m = m->next) {
    if (m->type() == mbuf::MbufType::kData) {
      if (wm != nullptr)
        throw std::logic_error("CabDriver: data after WCAB in retransmit");
      hdr_len += static_cast<std::size_t>(m->len());
    } else if (m->type() == mbuf::MbufType::kWcab) {
      if (wm != nullptr)
        throw std::logic_error("CabDriver: multiple WCAB mbufs in one packet");
      wm = m;
    } else {
      throw std::logic_error("CabDriver: UIO mixed with WCAB in one packet");
    }
  }
  assert(wm != nullptr);
  const mbuf::Wcab w = wm->wcab();
  const std::size_t hdr_block = hdr_len + hippi::kHeaderSize;
  if (w.data_off < hdr_block) {
    std::fprintf(stderr, "CabDriver mismatch: data_off=%u hdr_len=%zu wm_len=%d valid=%u pkthdr_len=%d\n",
                 w.data_off, hdr_len, wm->len(), w.valid, pkt->pkthdr.len);
    throw std::logic_error("CabDriver: retransmit does not match outboard packet");
  }
  const std::size_t payload_off = w.data_off - hdr_block;

  cab::SdmaRequest req;
  Mbuf* m0 = frame(pkt, next_hop, req);
  if (!req.csum_enable)
    throw std::logic_error("CabDriver: WCAB retransmit requires outboard checksum");
  const std::size_t total = hdr_block + static_cast<std::size_t>(wm->len());
  req.handle = w.handle;
  req.cab_off = payload_off;
  req.header_rewrite = true;
  for (Mbuf* m = m0; m != nullptr; m = m->next) {
    if (m->type() == mbuf::MbufType::kData)
      req.segs.push_back(cab::SdmaSeg{0, m->span()});
  }

  ++drv_stats.tx_rewrite;
  ++if_stats.opackets;
  if_stats.obytes += total;

  cab::MdmaXmit::Request mr;
  mr.handle = w.handle;
  mr.off = payload_off;
  mr.len = total;
  mr.flow = m0->pkthdr.flow;
  // Large-segment offload: the MDMA engine fans the super-segment out into
  // wire MTUs; the transmit is still one doorbell and one SDMA/MDMA pair.
  if (m0->pkthdr.csum_tx.tso_seg_payload > 0) {
    mr.tso_hdr_len = hdr_block;  // link + IP + transport headers
    mr.tso_seg_payload = m0->pkthdr.csum_tx.tso_seg_payload;
    const std::size_t payload = static_cast<std::size_t>(wm->len());
    if (payload > mr.tso_seg_payload) {
      ++off_stats.tx_super_segs;
      off_stats.tx_wire_segs += (payload + mr.tso_seg_payload - 1) / mr.tso_seg_payload;
      off_stats.tx_tso_bytes += payload;
    }
  }
  // The packet's own WCAB reference goes with its mbuf chain; this one keeps
  // the buffer alive through SDMA + MDMA.
  dev_.outboard_retain(w.handle);
  post_tx(std::move(req), m0, std::move(mr));
  co_return;
}

sim::Task<void> CabDriver::copy_in(KernCtx ctx, mem::Uio data,
                                   std::size_t header_space,
                                   std::function<void(mbuf::Wcab)> done,
                                   std::size_t seg_stride) {
  auto& env = stack()->env();
  co_await env.cpu.run(sim::usec(stack()->costs().driver_issue_us), ctx.acct,
                       ctx.prio);
  if (recovery_enabled_) arm_watchdog();
  if (!data.word_aligned())
    throw std::logic_error("CabDriver::copy_in: misaligned user data");
  if (offload_enabled_ && oc_.tso_max > 1 && tx_tso_segs() == 1)
    ++off_stats.tx_fallback_host_seg;  // degraded: host-side segmentation

  const std::size_t len = data.total_len();
  std::optional<cab::Handle> handle;
  for (int tries = 0; tries < 10000; ++tries) {
    handle = dev_.nm().alloc(header_space + len);
    if (handle) break;
    // Outboard memory recycles as ACKs free retransmit buffers.
    ++drv_stats.tx_no_memory;
    co_await sim::delay(env.sim, sim::usec(500));
  }
  if (!handle) throw std::runtime_error("CabDriver::copy_in: outboard memory stuck");

  auto job = std::make_shared<CopyinJob>();
  if (auto* tel = env.telemetry) {
    job->tel_key = tel->next_key();
    tel->span_begin(telemetry::Stage::kDriverStage, env.tel_pid, job->tel_key,
                    ctx.flow);
  }
  job->req.dir = cab::SdmaRequest::Dir::kToCab;
  job->req.handle = *handle;
  job->req.cab_off = header_space;
  job->req.flow = ctx.flow;
  data.append_segs(job->req.segs);
  job->req.csum_enable = true;
  job->req.body_sum_only = true;
  job->req.skip_words = 0;
  job->req.seg_stride = static_cast<std::uint16_t>(seg_stride);
  job->done = std::move(done);
  job->handle = *handle;
  job->data_off = static_cast<std::uint32_t>(header_space);
  job->data_len = static_cast<std::uint32_t>(len);
  submit_copyin(std::move(job));
}

void CabDriver::submit_copyin(std::shared_ptr<CopyinJob> job) {
  // Command queue full, or a failed transfer: repost after a pause (queue
  // space frees as the engine drains or recovers).
  auto retry = [this, job] {
    ++rec_stats.copy_in_retries;
    stack()->env().sim.after(kDmaRetryDelay, [this, job] { submit_copyin(job); });
  };
  cab::SdmaRequest r = job->req;  // keep the master copy for reposting
  r.on_complete = [this, job, retry](const cab::SdmaRequest& done) {
    if (!done.failed) {
      if (!job->req.csum_enable) {
        // The data is outboard but the engine could not sum it: compute the
        // body sum in software from the (still pinned) host pages, so WCAB
        // header-rewrite transmissions keep working. Mirror the hardware's
        // slice checkpoints exactly when this is a multi-MTU staging, so a
        // later fan-out produces bit-identical per-segment checksums.
        std::vector<std::span<const std::byte>> pieces;
        for (const auto& seg : job->req.segs) pieces.emplace_back(seg.bytes);
        auto ss = checksum::slice_sums(pieces, job->req.seg_stride,
                                       [](std::span<const std::byte> b) {
                                         return checksum::ones_sum(b);
                                       });
        dev_.nm().set_body_sum(job->handle, ss.body);
        if (job->req.seg_stride > 0)
          dev_.nm().set_seg_sums(job->handle, job->data_off, job->req.seg_stride,
                                 job->data_len, std::move(ss.slices));
        ++rec_stats.copy_in_sw_csum;
      }
      if (job->tel_key != 0) {
        if (auto* tel = stack()->env().telemetry)
          tel->span_end(telemetry::Stage::kDriverStage, job->tel_key);
      }
      job->done(wcab(job->handle, job->data_off, job->data_len));
      return;
    }
    note_dma_failure();
    if (job->req.csum_enable && dev_.sdma().checksum().failed()) {
      // Parity abort: restage without the engine's checksum path.
      job->req.csum_enable = false;
      job->req.body_sum_only = false;
    }
    retry();
  };
  if (!dev_.sdma().post(std::move(r))) retry();
}

void CabDriver::handle_recv(cab::RecvDesc&& desc) {
  if (gro_active()) {
    gro_enqueue(std::move(desc));
    return;
  }
  if (offload_enabled_) ++off_stats.rx_gro_bypass;
  // Hardware completion context: hand off to an interrupt-priority coroutine.
  sim::spawn(recv_intr(std::move(desc)));
}

sim::Task<void> CabDriver::recv_intr(cab::RecvDesc desc) {
  auto& env = stack()->env();
  KernCtx ctx{env.intr_acct, sim::Priority::Interrupt};
  co_await env.cpu.run(sim::usec(stack()->costs().intr_us), ctx.acct, ctx.prio);
  if (recovery_enabled_) arm_watchdog();
  co_await deliver_desc(ctx, std::move(desc));
}

sim::Task<void> CabDriver::deliver_desc(KernCtx ctx, cab::RecvDesc desc) {
  auto& env = stack()->env();
  ++if_stats.ipackets;
  if_stats.ibytes += desc.total_len;

  // With a failed checksum unit the hardware sum is garbage; deliver packets
  // as plain host data and let the transport run its software checksum.
  const bool csum_degraded = (degraded_ & kDegradeCsum) != 0;

  // Wrap the auto-DMAed head (already host-resident; wrapping is free).
  Mbuf* head = env.pool.get_ext(desc.head.size(), /*pkthdr=*/true);
  head->append(std::span<const std::byte>{desc.head.data(), desc.head.size()});
  head->pkthdr.len = static_cast<int>(desc.total_len);
  head->pkthdr.rx_hw_sum = desc.hw_sum;
  head->pkthdr.rx_hw_sum_valid = !csum_degraded;

  if (desc.handle && csum_degraded) {
    // Degraded mode caught a packet with outboard residue (arrived before the
    // autodma window grew): bounce the residue into host memory so the
    // software checksum can read the whole packet, then drop the outboard
    // buffer. This is the host bounce-buffer path of the paper's baseline.
    const std::size_t resid_len = desc.total_len - desc.head.size();
    std::vector<std::byte> resid(resid_len);
    cab::SdmaRequest req;
    req.dir = cab::SdmaRequest::Dir::kFromCab;
    req.handle = *desc.handle;
    req.cab_off = desc.head.size();
    req.segs.push_back(cab::SdmaSeg{0, std::span<std::byte>(resid)});
    bool failed = false;
    mbuf::DmaSync bounce_sync(env.sim);
    bounce_sync.add();
    req.on_complete = [&failed, &bounce_sync](const cab::SdmaRequest& done) {
      failed = done.failed;
      bounce_sync.done();
    };
    if (!dev_.sdma().post(std::move(req)))
      failed = true;
    else
      co_await bounce_sync.drain();
    dev_.nm().release(*desc.handle);
    if (failed) {
      ++rec_stats.rx_bounce_failed;
      env.pool.free_chain(head);
      co_return;
    }
    ++rec_stats.rx_bounced;
    ++drv_stats.rx_small;  // delivered fully host-resident
    Mbuf* rm = env.pool.get_ext(resid.size(), /*pkthdr=*/false);
    rm->append(std::span<const std::byte>{resid.data(), resid.size()});
    head->next = rm;
  } else {
    head->next = wrap_residue(desc);
  }

  // Validate and strip HIPPI framing.
  const hippi::FrameHeader fh = hippi::read_header(head->span());
  if (fh.type != hippi::kTypeIp) {
    env.pool.free_chain(head);
    co_return;
  }
  mbuf::m_adj(head, static_cast<int>(hippi::kHeaderSize));
  co_await stack()->ip().input(ctx, head, this);
}

// --- receive coalescing (GRO) ------------------------------------------------

void CabDriver::enable_offload(const OffloadConfig& oc) {
  oc_ = oc;
  if (oc_.tso_max < 1) oc_.tso_max = 1;
  offload_enabled_ = true;
}

void CabDriver::gro_enqueue(cab::RecvDesc&& desc) {
  auto& env = stack()->env();
  GroEntry e;
  e.desc = std::move(desc);
  if (auto* tel = env.telemetry) {
    e.tel_key = tel->next_key();
    tel->span_begin(telemetry::Stage::kGroHold, env.tel_pid, e.tel_key);
  }
  gro_q_.push_back(std::move(e));
  ++off_stats.rx_batched_descs;
  if (gro_q_.size() >= kGroBudget) {
    ++off_stats.rx_flush_budget;
    gro_flush();
  } else if (!gro_timer_armed_) {
    gro_timer_armed_ = true;
    gro_timer_ = env.sim.timer_after(kGroFlushWindow, [this] {
      gro_timer_armed_ = false;
      if (gro_q_.empty()) return;
      ++off_stats.rx_flush_timer;
      gro_flush();
    });
  }
}

void CabDriver::gro_flush() {
  if (gro_timer_armed_) {
    gro_timer_.cancel();
    gro_timer_armed_ = false;
  }
  std::vector<GroEntry> batch(std::make_move_iterator(gro_q_.begin()),
                              std::make_move_iterator(gro_q_.end()));
  gro_q_.clear();
  ++off_stats.rx_batches;
  gro_pending_.push_back(std::move(batch));
  if (!gro_draining_) {
    gro_draining_ = true;
    sim::spawn(gro_drain());
  }
}

sim::Task<void> CabDriver::gro_drain() {
  while (!gro_pending_.empty()) {
    std::vector<GroEntry> batch = std::move(gro_pending_.front());
    gro_pending_.pop_front();
    co_await recv_batch_intr(std::move(batch));
  }
  gro_draining_ = false;
}

sim::Task<void> CabDriver::recv_batch_intr(std::vector<GroEntry> batch) {
  auto& env = stack()->env();
  KernCtx ctx{env.intr_acct, sim::Priority::Interrupt};
  // The doorbell/interrupt batching win: one interrupt entry/exit + device
  // ack for the whole batch, instead of one per descriptor.
  co_await env.cpu.run(sim::usec(stack()->costs().intr_us), ctx.acct, ctx.prio);
  if (recovery_enabled_) arm_watchdog();

  std::vector<cab::RecvDesc> descs;
  std::vector<GroSeg> segs;
  descs.reserve(batch.size());
  segs.reserve(batch.size());
  for (auto& e : batch) {
    if (e.tel_key != 0) {
      if (auto* tel = env.telemetry)
        tel->span_end(telemetry::Stage::kGroHold, e.tel_key);
    }
    segs.push_back(parse_gro(e.desc));
    if (segs.back().verified) ++off_stats.rx_csum_verified;
    descs.push_back(std::move(e.desc));
  }

  // Walk the batch in arrival order, merging maximal runs of in-sequence
  // same-flow data segments. A sequence hole (loss/reorder), a failed
  // per-segment checksum, any flag beyond plain ACK (PSH/FIN/SYN/RST), or an
  // ack/window change ends the run; the offender is delivered on its own,
  // exactly as the non-coalescing path would.
  std::size_t i = 0;
  while (i < descs.size()) {
    std::size_t j = i + 1;
    const GroSeg a = segs[i];
    if (a.tcp && a.verified && a.payload > 0 && a.flags == kTcpFlagAckOnly) {
      std::uint32_t next_seq = a.seq + static_cast<std::uint32_t>(a.payload);
      std::size_t run_payload = a.payload;
      while (j < descs.size()) {
        const GroSeg& b = segs[j];
        if (!(b.tcp && b.verified && b.payload > 0 &&
              b.flags == kTcpFlagAckOnly && b.src == a.src && b.dst == a.dst &&
              b.sport == a.sport && b.dport == a.dport && b.thl == a.thl &&
              b.seq == next_seq && b.ack == a.ack && b.win == a.win &&
              run_payload + b.payload <= kGroMaxBytes))
          break;
        next_seq += static_cast<std::uint32_t>(b.payload);
        run_payload += b.payload;
        ++j;
      }
      if (j < descs.size()) ++off_stats.rx_flush_barrier;
      if (j > i + 1) {
        std::vector<cab::RecvDesc> group(
            std::make_move_iterator(descs.begin() + static_cast<std::ptrdiff_t>(i)),
            std::make_move_iterator(descs.begin() + static_cast<std::ptrdiff_t>(j)));
        off_stats.rx_merged_segs += (j - i) - 1;
        off_stats.rx_merged_bytes += run_payload - a.payload;
        co_await deliver_merged(ctx, std::move(group), a.thl, run_payload);
        i = j;
        continue;
      }
    }
    co_await deliver_desc(ctx, std::move(descs[i]));
    ++i;
  }
}

// Build one mbuf record out of a run of in-sequence segments: the first
// segment's headers (IP length rewritten for the merged total, checksum
// incrementally adjusted per RFC 1624) followed by every segment's payload —
// host-resident head bytes wrapped for free, outboard residue as M_WCAB.
sim::Task<void> CabDriver::deliver_merged(KernCtx ctx,
                                          std::vector<cab::RecvDesc> descs,
                                          std::size_t thl,
                                          std::size_t total_payload) {
  auto& env = stack()->env();
  constexpr std::size_t ip_off = hippi::kHeaderSize;
  const std::size_t hdrs = ip_off + 20 + thl;

  cab::RecvDesc& first = descs.front();
  std::byte* fb = first.head.data();
  const std::uint16_t old_total = wire::load_be16(fb + ip_off + 2);
  const auto new_total = static_cast<std::uint16_t>(20 + thl + total_payload);
  const std::uint16_t old_csum = wire::load_be16(fb + ip_off + 10);
  wire::store_be16(fb + ip_off + 2, new_total);
  wire::store_be16(fb + ip_off + 10, checksum::adjust(old_csum, old_total, new_total));

  Mbuf* head = env.pool.get_ext(first.head.size(), /*pkthdr=*/true);
  head->append(std::span<const std::byte>{first.head.data(), first.head.size()});
  head->pkthdr.len = static_cast<int>(ip_off + new_total);
  head->pkthdr.rx_hw_sum = 0;
  head->pkthdr.rx_hw_sum_valid = false;
  head->pkthdr.rx_csum_verified = true;  // every segment checked above

  Mbuf* tail = head;
  auto attach = [&tail](Mbuf* m) {
    if (m == nullptr) return;
    tail->next = m;
    tail = m;
  };

  ++if_stats.ipackets;  // wire packets, not records
  if_stats.ibytes += first.total_len;
  attach(wrap_residue(first));
  for (std::size_t k = 1; k < descs.size(); ++k) {
    cab::RecvDesc& d = descs[k];
    ++if_stats.ipackets;
    if_stats.ibytes += d.total_len;
    const std::size_t head_payload = d.head.size() - hdrs;
    if (head_payload > 0) {
      Mbuf* dm = env.pool.get_ext(head_payload, /*pkthdr=*/false);
      dm->append(std::span<const std::byte>{d.head.data() + hdrs, head_payload});
      attach(dm);
    }
    attach(wrap_residue(d));
  }

  mbuf::m_adj(head, static_cast<int>(hippi::kHeaderSize));
  co_await stack()->ip().input(ctx, head, this);
}

sim::Task<void> CabDriver::copy_out(KernCtx ctx, const mbuf::Wcab& w,
                                    std::vector<mem::HostSeg> dst,
                                    mbuf::DmaSync* sync) {
  auto& env = stack()->env();
  co_await env.cpu.run(sim::usec(stack()->costs().driver_issue_us), ctx.acct,
                       ctx.prio);
  if (recovery_enabled_) arm_watchdog();
  ++drv_stats.copyouts;

  auto job = std::make_shared<CopyJob>();
  job->req.dir = cab::SdmaRequest::Dir::kFromCab;
  job->req.handle = w.handle;
  job->req.cab_off = w.data_off;
  job->req.flow = ctx.flow;
  job->req.segs = std::move(dst);
  // Keep the outboard buffer alive until the DMA executes — the caller is
  // free to drop its mbuf reference immediately.
  dev_.outboard_retain(w.handle);
  job->handle = w.handle;
  job->sync = sync;
  if (sync != nullptr) sync->add();
  submit_copyout(std::move(job));
}

// --- fault recovery & graceful degradation ----------------------------------

void CabDriver::enable_recovery() {
  recovery_enabled_ = true;
  healthy_caps_ = caps();
  healthy_autodma_words_ = dev_.mdma_recv().autodma_words();
  wd_last_alloc_failures_ = dev_.nm().alloc_failures();
  arm_watchdog();
}

void CabDriver::notify_fault() {
  if (!recovery_enabled_) return;
  check_health();
  arm_watchdog();
}

void CabDriver::arm_watchdog() {
  if (!recovery_enabled_ || wd_armed_ || state_ == AdaptorState::kResetting)
    return;
  wd_armed_ = true;
  wd_timer_ = stack()->env().sim.timer_after(kWatchdogPeriod,
                                             [this] { watchdog_fire(); });
}

void CabDriver::watchdog_fire() {
  wd_armed_ = false;
  ++rec_stats.watchdog_fires;
  if (state_ == AdaptorState::kResetting) return;  // the reset timer owns this

  // Status-register read: a stalled control program needs a board reset.
  if (dev_.fw_stalled()) {
    start_reset();
    return;
  }

  // No-progress check: an engine with queued work whose completion counters
  // did not move over a whole period is wedged even if the status looks fine.
  const auto& ss = dev_.sdma().stats();
  const auto& ms = dev_.mdma_xmit().stats();
  const std::uint64_t mdma_done = ms.packets + ms.errors + ms.aborted;
  const bool sdma_busy = !dev_.sdma().idle();
  const bool mdma_busy = !dev_.mdma_xmit().idle();
  if (wd_progress_valid_ && ((sdma_busy && ss.requests == wd_last_sdma_reqs_) ||
                             (mdma_busy && mdma_done == wd_last_mdma_pkts_))) {
    start_reset();
    return;
  }
  wd_last_sdma_reqs_ = ss.requests;
  wd_last_mdma_pkts_ = mdma_done;
  wd_progress_valid_ = sdma_busy || mdma_busy;

  // Memory-pressure heuristic: allocation failures with most of the pool gone
  // and no exhaustion fault asserted smells like a firmware buffer leak; a
  // reset reclaims whatever no live packet owns.
  const std::uint64_t af = dev_.nm().alloc_failures();
  if (af > wd_last_alloc_failures_ && !dev_.nm().force_exhausted() &&
      dev_.nm().free_bytes() * 8 < dev_.nm().total_bytes()) {
    wd_last_alloc_failures_ = af;
    start_reset();
    return;
  }
  wd_last_alloc_failures_ = af;

  check_health();

  // Stay armed while anything needs watching; otherwise self-disarm so an
  // idle simulation can drain its event queue.
  if (degraded_ != 0 || sdma_busy || mdma_busy ||
      dev_.nm().force_exhausted() || dev_.sdma().checksum().failed())
    arm_watchdog();
}

void CabDriver::check_health() {
  if (!recovery_enabled_ || state_ == AdaptorState::kResetting) return;
  if (dev_.fw_stalled()) {
    start_reset();
    return;
  }
  if (dev_.sdma().checksum().failed())
    enter_degraded(kDegradeCsum);
  else
    exit_degraded(kDegradeCsum);
  if (dev_.nm().force_exhausted())
    enter_degraded(kDegradeNoMem);
  else
    exit_degraded(kDegradeNoMem);
}

void CabDriver::start_reset() {
  if (state_ == AdaptorState::kResetting) return;
  state_ = AdaptorState::kResetting;
  reset_attempts_ = 0;
  wd_timer_.cancel();
  wd_armed_ = false;
  ++rec_stats.resets;
  // Quiesce, then fail out everything in flight. Network memory contents and
  // refcounts survive — a reset reinitializes the engines, not the packet
  // store — so outboard WCAB data stays valid for retransmission.
  dev_.set_stalled(true);
  dev_.abort_all();
  stack()->env().sim.after(kResetDuration, [this] { finish_reset(); });
}

void CabDriver::finish_reset() {
  if (dev_.fw_stalled()) {
    // The board did not come back: retry with exponential backoff, bounded at
    // the cap (so a long outage retries steadily instead of ever-slower).
    ++rec_stats.reset_failures;
    ++reset_attempts_;
    sim::Duration backoff = kBackoffInitial;
    for (int i = 1; i < reset_attempts_ && backoff < kBackoffCap; ++i)
      backoff *= 2;
    if (backoff > kBackoffCap) backoff = kBackoffCap;
    ++rec_stats.resets;
    stack()->env().sim.after(backoff, [this] {
      dev_.abort_all();
      stack()->env().sim.after(kResetDuration, [this] { finish_reset(); });
    });
    return;
  }
  // Board is back: unwedge the engines, reclaim leaked pages, re-evaluate
  // degraded modes (a persistent checksum/memory fault keeps us degraded).
  dev_.set_stalled(false);
  rec_stats.leaked_reclaimed += dev_.nm().reclaim_leaked();
  state_ = AdaptorState::kUp;
  reset_attempts_ = 0;
  ++rec_stats.reset_completes;
  check_health();
  arm_watchdog();
}

void CabDriver::enter_degraded(unsigned reason) {
  if ((degraded_ & reason) != 0) return;
  degraded_ |= reason;
  if ((reason & kDegradeCsum) != 0) {
    ++rec_stats.degrade_enter_csum;
    // Grow the autodma window past the MTU: packets arrive fully
    // host-resident, so the software checksum (and the application) never
    // needs outboard reads.
    healthy_autodma_words_ = dev_.mdma_recv().autodma_words();
    dev_.mdma_recv().set_autodma_words(
        static_cast<std::uint32_t>(kDegradedAutodmaBytes / 4));
  }
  if ((reason & kDegradeNoMem) != 0) ++rec_stats.degrade_enter_nomem;
  apply_caps();
}

void CabDriver::exit_degraded(unsigned reason) {
  if ((degraded_ & reason) == 0) return;
  degraded_ &= ~reason;
  if ((reason & kDegradeCsum) != 0) {
    ++rec_stats.degrade_exit_csum;
    dev_.mdma_recv().set_autodma_words(healthy_autodma_words_);
  }
  if ((reason & kDegradeNoMem) != 0) ++rec_stats.degrade_exit_nomem;
  apply_caps();
}

void CabDriver::apply_caps() {
  unsigned c = healthy_caps_;
  // Either degradation routes new writes through the host bounce path: no
  // new pinned user pages, and checksums move to the software loop.
  if (degraded_ != 0) c &= ~(net::kCapSingleCopy | net::kCapHwChecksum);
  set_caps(c);
}

void CabDriver::submit_copyout(std::shared_ptr<CopyJob> job) {
  cab::SdmaRequest r = job->req;  // keep the master copy for reposting
  r.on_complete = [this, job](const cab::SdmaRequest& done) {
    if (!done.failed) {
      dev_.outboard_release(job->handle);
      if (job->sync != nullptr) job->sync->done();
      return;
    }
    note_dma_failure();
    retry_copyout(job);
  };
  if (!dev_.sdma().post(std::move(r))) retry_copyout(job);
}

void CabDriver::retry_copyout(std::shared_ptr<CopyJob> job) {
  if (++job->attempts > kDmaRetryLimit) {
    // Give up loudly: the reader's wait must not hang forever, but the bytes
    // never arrived — the counter is the alarm.
    ++rec_stats.copyouts_failed;
    dev_.outboard_release(job->handle);
    if (job->sync != nullptr) job->sync->done();
    return;
  }
  ++rec_stats.copyout_retries;
  stack()->env().sim.after(kDmaRetryDelay,
                           [this, job] { submit_copyout(job); });
}

}  // namespace nectar::drivers
