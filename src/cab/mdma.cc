#include "cab/mdma.h"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "checksum/wire.h"

namespace nectar::cab {

void MdmaXmit::start(Request r) {
  if (r.tso_seg_payload > 0 && r.len > r.tso_hdr_len &&
      r.len - r.tso_hdr_len > r.tso_seg_payload) {
    start_tso(std::move(r));
    return;
  }
  // Snapshot the bytes at transmit time (a retransmission may rewrite the
  // header while an earlier copy is still "on the wire").
  auto pkt = std::make_shared<hippi::Packet>();
  auto src = nm_.bytes(r.handle, r.off, r.len);
  pkt->bytes.assign(src.begin(), src.end());
  const std::size_t len = r.len;
  transmit(std::move(pkt), std::make_shared<Request>(std::move(r)), len, true, false);
}

void MdmaXmit::transmit(std::shared_ptr<hippi::Packet> pkt, std::shared_ptr<Request> req,
                        std::size_t cum_bytes, bool last, bool fanout) {
  const sim::Duration at =
      cfg_.setup + sim::transfer_time(static_cast<std::int64_t>(cum_bytes),
                                      cfg_.line_rate_bps);
  if (last) stats_.busy_time += at;
  const bool fail = take_error();
  sim_.after(at, [this, pkt, req, fail, last, fanout, epoch = epoch()] {
    // A packet a reset aborted mid-serialization is cut short on the wire.
    if (current(epoch)) {
      if (fail) {
        ++stats_.errors;
      } else {
        ++stats_.packets;
        if (fanout) ++stats_.tso_wire_segs;
        stats_.bytes += pkt->size();
        fabric_->submit(std::move(*pkt));
      }
    }
    if (!last) return;
    if (fanout) spans_.end(telemetry::Stage::kTsoFanout, spans_.key(req->id));
    finish(*req, epoch);
  });
}

// Large-segment fan-out. The host posted one multi-MTU packet; the engine
// cuts its payload into wire segments, replicating the header block per
// segment with length/sequence fixups and per-segment checksums built from
// the slice sums the SDMA saved at staging time (ChecksumEngine::combine
// machinery — no second pass over the data). The whole burst costs one
// engine setup: that amortization, not the media time, is the offload win.
void MdmaXmit::start_tso(Request r) {
  const std::size_t hl = r.tso_hdr_len;
  const std::size_t seg_payload = r.tso_seg_payload;
  const std::size_t payload = r.len - hl;
  const std::size_t nsegs = (payload + seg_payload - 1) / seg_payload;
  const std::size_t ip_off = hippi::kHeaderSize;
  const std::size_t tcp_off = ip_off + 20;
  if (hl < tcp_off + 20)
    throw std::logic_error("MdmaXmit: TSO header block too short");
  const std::size_t thl = hl - tcp_off;  // transport header length

  ++stats_.tso_requests;
  spans_.begin(telemetry::Stage::kTsoFanout, spans_.key(r.id), r.flow);

  // Snapshot the super-segment once (same rule as the single-packet path).
  auto src = nm_.bytes(r.handle, r.off, r.len);
  const std::size_t body_at = r.off + hl;  // buffer offset of the payload

  // Pseudo-header template from the replicated IP header.
  checksum::PseudoHeader ph;
  ph.src = wire::load_be32(src.data() + ip_off + 12);
  ph.dst = wire::load_be32(src.data() + ip_off + 16);
  ph.proto = std::to_integer<std::uint8_t>(src[ip_off + 9]);
  const std::uint32_t base_seq = wire::load_be32(src.data() + tcp_off + 4);
  const std::byte tmpl_flags = src[tcp_off + 13];

  auto req = std::make_shared<Request>(std::move(r));
  std::size_t cum_bytes = 0;
  for (std::size_t i = 0; i < nsegs; ++i) {
    const std::size_t slice = std::min(seg_payload, payload - i * seg_payload);
    const bool last = i + 1 == nsegs;
    const std::size_t ip_total = 20 + thl + slice;

    auto pkt = std::make_shared<hippi::Packet>();
    pkt->bytes.resize(hl + slice);
    std::byte* b = pkt->bytes.data();
    std::memcpy(b, src.data(), hl);
    std::memcpy(b + hl, src.data() + hl + i * seg_payload, slice);

    // Link: the HIPPI length word tracks the IP datagram it carries.
    wire::store_be32(b + 12, static_cast<std::uint32_t>(ip_total));
    // IP: per-segment total length, fresh header checksum.
    wire::store_be16(b + ip_off + 2, static_cast<std::uint16_t>(ip_total));
    wire::store_be16(b + ip_off + 10, 0);
    wire::store_be16(b + ip_off + 10,
                     checksum::finish(checksum::ones_sum(
                         std::span<const std::byte>(b + ip_off, 20))));
    // TCP: advance the sequence number, carry FIN/PSH only on the last
    // segment, recompute the checksum from pseudo + header + saved slice sum.
    wire::store_be32(b + tcp_off + 4,
                     base_seq + static_cast<std::uint32_t>(i * seg_payload));
    if (!last) b[tcp_off + 13] = tmpl_flags & std::byte{0xf6};  // ~(FIN|PSH)
    wire::store_be16(b + tcp_off + 16, 0);
    ph.length = static_cast<std::uint16_t>(thl + slice);
    std::uint32_t sum = checksum::pseudo_sum(ph);
    sum += csum_.header_sum(std::span<const std::byte>(b + tcp_off, thl));
    std::uint32_t body;
    if (auto saved = nm_.seg_slice_sum(req->handle, body_at + i * seg_payload, slice)) {
      body = *saved;
    } else {
      // No saved slice sum: a fresh pass through the summation unit (which,
      // when failed, yields a deterministically bad checksum — the receiver
      // drops the segment and the transport retries after recovery).
      body = csum_.sum_from(std::span<const std::byte>(b + hl, slice), 0);
    }
    sum = checksum::combine(sum, body, thl);
    wire::store_be16(b + tcp_off + 16, checksum::finish(sum));

    cum_bytes += hl + slice;
    transmit(std::move(pkt), req, cum_bytes, last, true);
  }
}

void MdmaRecv::hippi_receive(hippi::Packet&& p) {
  if (stalled_) {
    ++stats_.drops_stalled;
    return;
  }
  const std::size_t len = p.bytes.size();
  auto h = nm_.alloc(len);
  if (!h) {
    ++stats_.drops_no_memory;
    return;
  }
  ++stats_.packets;
  stats_.bytes += len;
  const std::uint64_t span_key = spans_.begin_next(telemetry::Stage::kRecvDma);

  // Data lands in network memory as it comes off the media; the checksum is
  // computed during that transfer (so it is available with the packet).
  auto dst = nm_.bytes(*h, 0, len);
  std::memcpy(dst.data(), p.bytes.data(), len);
  const std::uint32_t hw_sum = sdma_.checksum().sum_from(dst, rx_skip_words_);

  const std::size_t head_len = std::min<std::size_t>(autodma_bytes(), len);
  const bool fits = head_len == len;
  if (fits) ++stats_.fully_autodma;

  // Auto-DMA the first L words to the host through the shared SDMA engine
  // (all host<->CAB traffic shares the TURBOchannel).
  auto desc = std::make_shared<RecvDesc>();
  desc->total_len = len;
  desc->hw_sum = hw_sum;
  desc->head.resize(head_len);
  desc->handle = fits ? std::nullopt : std::optional<Handle>(*h);

  SdmaRequest req;
  req.dir = SdmaRequest::Dir::kFromCab;
  req.handle = *h;
  req.cab_off = 0;
  req.segs.push_back(SdmaSeg{0, std::span<std::byte>(desc->head)});
  req.interrupt_on_done = true;
  const Handle handle = *h;
  const bool release_after = fits;
  req.on_complete = [this, desc, handle, release_after,
                     span_key](const SdmaRequest& done) {
    spans_.end(telemetry::Stage::kRecvDma, span_key);
    if (done.failed) {
      // The head never reached host memory; the host is never notified, so
      // the packet is lost end-to-end. Release the outboard buffer in both
      // cases — a residual handle with no descriptor would leak forever.
      ++stats_.drops_autodma_failed;
      nm_.release(handle);
      return;
    }
    if (release_after) nm_.release(handle);
    if (deliver_) deliver_(std::move(*desc));
  };
  // Auto-DMA must not fail: the engine queue is sized for it, but if the
  // host has wedged the queue, drop the packet (as real hardware would).
  if (!sdma_.post(std::move(req))) {
    ++stats_.drops_no_memory;
    spans_.end(telemetry::Stage::kRecvDma, span_key);
    nm_.release(*h);
  }
}

}  // namespace nectar::cab
