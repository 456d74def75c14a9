#include "cab/sdma.h"

#include <cstring>
#include <stdexcept>

#include "checksum/wire.h"

namespace nectar::cab {

bool SdmaEngine::post(SdmaRequest r) {
  if (queue_space() == 0) return false;
  for (const auto& seg : r.segs) {
    if (seg.vaddr % 4 != 0)
      throw std::logic_error(
          "SdmaEngine: misaligned host address (driver must use the copy path)");
    if (seg.bytes.empty())
      throw std::logic_error("SdmaEngine: empty segment");
  }
  enqueue(std::move(r));
  return true;
}

void SdmaEngine::start(SdmaRequest r) {
  std::size_t total = 0;
  for (const auto& seg : r.segs) total += seg.bytes.size();
  const sim::Duration t = cfg_.setup + sim::transfer_time(
                                           static_cast<std::int64_t>(total),
                                           cfg_.bandwidth_bps);
  stats_.busy_time += t;
  auto shared = std::make_shared<SdmaRequest>(std::move(r));
  sim_.after(t, [this, shared, epoch = epoch()] {
    if (current(epoch)) execute(*shared);
    finish(*shared, epoch);
  });
}

void SdmaEngine::complete(SdmaRequest& r, bool aborted) {
  ++stats_.requests;
  if (aborted) r.failed = true;
  if (r.on_complete) r.on_complete(r);
}

void SdmaEngine::execute(SdmaRequest& r) {
  if (take_error()) {
    r.failed = true;
    ++stats_.errors;
    return;
  }
  // A failed checksum unit aborts (parity check) any transfer that needs a
  // fresh body sum; header rewrites only use the combine adder and proceed.
  if (r.csum_enable && !r.header_rewrite && csum_.failed()) {
    r.failed = true;
    ++stats_.errors;
    return;
  }
  std::size_t total = 0;
  for (const auto& seg : r.segs) total += seg.bytes.size();
  const bool to_cab = r.dir == SdmaRequest::Dir::kToCab;
  (to_cab ? stats_.bytes_to_cab : stats_.bytes_from_cab) += total;
  auto outboard = nm_.bytes(r.handle, r.cab_off, total);
  std::size_t pos = 0;
  for (const auto& seg : r.segs) {
    if (to_cab)
      std::memcpy(outboard.data() + pos, seg.bytes.data(), seg.bytes.size());
    else
      std::memcpy(seg.bytes.data(), outboard.data() + pos, seg.bytes.size());
    pos += seg.bytes.size();
  }

  if (to_cab) {
    if (r.csum_enable && r.body_sum_only) {
      // Staging: the packet body flows outboard before its headers exist;
      // save its checksum for the header SDMA that follows (§4.3). For
      // large-segment staging also save one sum per stride-size slice so the
      // MDMA fan-out can checksum each wire segment — same bytes through the
      // summation unit either way, just checkpointed at slice boundaries.
      if (r.seg_stride > 0) {
        const std::span<const std::byte> stream = outboard;
        auto ss = checksum::slice_sums({&stream, 1}, r.seg_stride,
                                       [this](std::span<const std::byte> b) {
                                         return csum_.sum_from(b, 0);
                                       });
        nm_.set_seg_sums(r.handle, r.cab_off, r.seg_stride, outboard.size(),
                         std::move(ss.slices));
        nm_.set_body_sum(r.handle, ss.body);
      } else {
        nm_.set_body_sum(r.handle, csum_.sum_from(outboard, r.skip_words));
      }
      return;
    }
    if (r.csum_enable) {
      // The request stream begins at cab_off == 0 for a fully-formed packet
      // (§2.2), so skip_words counts from the start of the transfer. A
      // header rewrite may land mid-buffer (cab_off > 0): a tail
      // retransmission of a partially-acknowledged super-segment, whose body
      // sum comes from the saved slice sums rather than the whole-packet sum.
      std::uint32_t body;
      if (r.header_rewrite) {
        if (r.cab_off == 0) {
          auto saved = nm_.body_sum(r.handle);
          if (!saved)
            throw std::logic_error("SdmaEngine: header rewrite without saved body sum");
          body = *saved;
        } else {
          const std::size_t payload_at = r.cab_off + total;
          auto tail = nm_.tail_sum(r.handle, payload_at);
          if (tail) {
            body = *tail;
          } else if (!csum_.failed()) {
            body = csum_.sum_from(
                nm_.bytes(r.handle, payload_at, nm_.packet_len(r.handle) - payload_at),
                0);
          } else {
            // No saved slice covers this tail and the summation unit is down:
            // parity abort, the driver re-posts after recovery.
            r.failed = true;
            ++stats_.errors;
            return;
          }
        }
      } else {
        body = csum_.sum_from(outboard, r.skip_words);
        nm_.set_body_sum(r.handle, body);
      }
      auto field = nm_.bytes(r.handle, r.cab_off + r.csum_offset, 2);
      const std::uint16_t seed = wire::load_be16(field.data());
      wire::store_be16(field.data(), ChecksumEngine::finish_with_seed(seed, body));
    }
  }
}

}  // namespace nectar::cab
