// DmaEngine: the lifecycle the CAB's two queued DMA engines share — SDMA
// across the TURBOchannel and MDMA transmit onto the HIPPI media (§2.1,
// §2.2). Both run one command-queue discipline:
//
//  * post: a request gets an id and waits in the arbitration queue;
//  * serve: the engine works one request at a time, in arbiter order;
//  * complete: the end of a transfer is checked against the reset epoch, so a
//    transfer that abort_all disowned fails at its original end time instead
//    of finishing into a reinitialized engine.
//
// Each request carries two spans keyed by its id: queue wait (posted ->
// popped) and transfer (popped -> completion or abort).
//
// Engine derives from DmaEngine<Engine, Req, Stats> and supplies
//   void start(Req r);                    // time the transfer, end it with finish()
//   void complete(Req& r, bool aborted);  // fire r's completion callback
// Req carries `flow`, `id` and `on_complete`; Stats carries `aborted`.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cab/arbiter.h"
#include "sim/event_queue.h"
#include "telemetry/span_source.h"

namespace nectar::cab {

template <class Engine, class Req, class Stats>
class DmaEngine {
 public:
  // Scheduled completions hold the engine's address.
  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool idle() const noexcept { return !busy_ && q_.empty(); }
  [[nodiscard]] const ArbQueue<Req>& arb() const noexcept { return q_; }
  void set_flow_weight(std::uint32_t flow, std::uint32_t weight) {
    q_.set_flow_weight(flow, weight);
  }

  // Opt-in span tracing under a private key namespace.
  void set_telemetry(telemetry::Telemetry* tel, int pid) { spans_.attach(tel, pid); }

  // --- fault injection / reset ----------------------------------------------

  // Stall: the engine stops starting new requests (an in-flight transfer
  // still completes — it was already on the bus). Unstalling kicks the queue.
  void set_stalled(bool s) {
    stalled_ = s;
    if (!s) kick();
  }
  [[nodiscard]] bool stalled() const noexcept { return stalled_; }

  // The next `n` transfers fail; the engine decides when a transfer takes
  // one and what failing means.
  void inject_errors(std::uint32_t n) noexcept { inject_errors_ += n; }

  // Adaptor reset: fail everything queued and disown the in-flight transfer
  // (its completion still fires, as a failure, at its original end time).
  // Network memory contents are untouched — reset reinitializes the engines,
  // not the packet store.
  void abort_all() {
    ++epoch_;
    busy_ = false;
    // Drain first: a failure callback may post a fresh request, which belongs
    // to the new epoch and must not be swept up in this abort.
    std::vector<Req> dropped;
    while (!q_.empty()) dropped.push_back(q_.pop());
    for (auto& r : dropped) {
      ++stats_.aborted;
      spans_.end(queue_span_, spans_.key(r.id));
      engine().complete(r, true);
    }
  }

 protected:
  DmaEngine(sim::Simulator& sim, ArbPolicy arb, telemetry::Stage queue_span,
            telemetry::Stage xfer_span)
      : sim_(sim), q_(arb), queue_span_(queue_span), xfer_span_(xfer_span) {}

  // Queue `r` under a fresh id; start it at once if the engine is free.
  void enqueue(Req r) {
    r.id = next_id_++;
    spans_.begin(queue_span_, spans_.key(r.id), r.flow);
    q_.push(std::move(r));
    kick();
  }

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  // The reset epoch a transfer starts in; it is still current() at the
  // transfer's end unless abort_all ran in between.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool current(std::uint64_t epoch) const noexcept { return epoch == epoch_; }

  // True (and one injected error used up) when the transfer must fail.
  bool take_error() noexcept {
    if (inject_errors_ == 0) return false;
    --inject_errors_;
    return true;
  }

  // The end of `r`'s transfer, started in `epoch`: frees the engine (or, for
  // a transfer abort_all disowned, counts the abort), ends the transfer span,
  // fires the completion and starts the next request.
  void finish(Req& r, std::uint64_t epoch) {
    const bool aborted = !current(epoch);
    if (aborted)
      ++stats_.aborted;
    else
      busy_ = false;
    spans_.end(xfer_span_, spans_.key(r.id));
    engine().complete(r, aborted);
    if (!aborted) kick();
  }

  sim::Simulator& sim_;
  telemetry::SpanSource spans_;
  Stats stats_;

 private:
  Engine& engine() noexcept { return static_cast<Engine&>(*this); }

  void kick() {
    if (busy_ || stalled_ || q_.empty()) return;
    busy_ = true;
    Req r = q_.pop();
    spans_.end(queue_span_, spans_.key(r.id));
    spans_.begin(xfer_span_, spans_.key(r.id), r.flow);
    engine().start(std::move(r));
  }

  ArbQueue<Req> q_;
  telemetry::Stage queue_span_;
  telemetry::Stage xfer_span_;
  bool busy_ = false;
  bool stalled_ = false;
  std::uint32_t inject_errors_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_id_ = 1;
};

}  // namespace nectar::cab
