#include "cab/sdma.h"

#include <cstring>
#include <stdexcept>

#include "checksum/wire.h"
#include "telemetry/telemetry.h"

namespace nectar::cab {

void SdmaEngine::set_telemetry(telemetry::Telemetry* tel, int pid) {
  tel_ = tel;
  tel_pid_ = pid;
  tel_ns_ = tel ? tel->alloc_key_namespace() : 0;
}

bool SdmaEngine::post(SdmaRequest r) {
  if (queue_space() == 0) return false;
  for (const auto& seg : r.segs) {
    if (seg.vaddr % 4 != 0)
      throw std::logic_error(
          "SdmaEngine: misaligned host address (driver must use the copy path)");
    if (seg.bytes.empty())
      throw std::logic_error("SdmaEngine: empty segment");
  }
  r.id = next_id_++;
  if (tel_ != nullptr)
    tel_->span_begin(telemetry::Stage::kSdmaQueue, tel_pid_, tkey(r.id), r.flow);
  q_.push(std::move(r));
  kick();
  return true;
}

void SdmaEngine::kick() {
  if (busy_ || stalled_ || q_.empty()) return;
  busy_ = true;
  SdmaRequest r = q_.pop();
  if (tel_ != nullptr) {
    tel_->span_end(telemetry::Stage::kSdmaQueue, tkey(r.id));
    tel_->span_begin(telemetry::Stage::kSdmaXfer, tel_pid_, tkey(r.id), r.flow);
  }

  std::size_t total = 0;
  for (const auto& seg : r.segs) total += seg.bytes.size();
  const sim::Duration t = cfg_.setup + sim::transfer_time(
                                           static_cast<std::int64_t>(total),
                                           cfg_.bandwidth_bps);
  stats_.busy_time += t;

  auto shared = std::make_shared<SdmaRequest>(std::move(r));
  const std::uint64_t epoch = epoch_;
  sim_.after(t, [this, shared, epoch] {
    if (epoch != epoch_) {
      // abort_all ran while this transfer was on the bus: the engine has been
      // reinitialized, so report failure and leave busy_/queue state alone —
      // abort_all already reset them.
      shared->failed = true;
      ++stats_.requests;
      ++stats_.aborted;
      if (tel_ != nullptr) tel_->span_end(telemetry::Stage::kSdmaXfer, tkey(shared->id));
      if (shared->on_complete) shared->on_complete(*shared);
      return;
    }
    execute(*shared);
    busy_ = false;
    if (tel_ != nullptr) tel_->span_end(telemetry::Stage::kSdmaXfer, tkey(shared->id));
    if (shared->on_complete) shared->on_complete(*shared);
    kick();
  });
}

void SdmaEngine::abort_all() {
  ++epoch_;  // disowns the in-flight transfer, if any
  busy_ = false;
  // Drain first: a failure callback may post a fresh request, which belongs
  // to the new epoch and must not be swept up in this abort.
  std::vector<SdmaRequest> dropped;
  while (!q_.empty()) dropped.push_back(q_.pop());
  for (auto& r : dropped) {
    r.failed = true;
    ++stats_.requests;
    ++stats_.aborted;
    if (tel_ != nullptr) tel_->span_end(telemetry::Stage::kSdmaQueue, tkey(r.id));
    if (r.on_complete) r.on_complete(r);
  }
}

void SdmaEngine::execute(SdmaRequest& r) {
  ++stats_.requests;
  if (inject_errors_ > 0) {
    --inject_errors_;
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
