// ArbQueue: the CAB's DMA request arbiter.
//
// The SDMA engine and the MDMA transmit engine are single resources that
// every connection on the host shares (§2.1: one TURBOchannel, one media
// transmitter). With one flow a plain FIFO is the hardware's command queue;
// with many flows the service discipline decides who makes progress. Three
// policies:
//
//  * kFifo — strict arrival order, the seed behaviour. One bulk flow that
//    keeps the queue full starves nobody outright (the queue is bounded and
//    the driver backs off), but bursts serialize behind each other.
//  * kRoundRobin — one request per flow per turn, in flow-id order. A flow
//    that posts many requests waits for every other backlogged flow between
//    its own; this is what keeps the Jain index high at 64+ flows.
//  * kWeightedFair — credit-based weighted round robin. Each flow carries an
//    integer weight (default 1, set_flow_weight); between credit recharges a
//    continuously-backlogged flow is served exactly `weight` times, so over
//    any window in which a set of flows stays backlogged the service shares
//    match the weight ratios to within one recharge round (max weight
//    requests) — the provable bound the property test asserts. Flows whose
//    queue drains forfeit their remaining credit (DRR-style), so a flow
//    cannot bank service by oscillating between idle and backlogged.
//
// All policies are deterministic: ties break by arrival order (kFifo) or
// flow id (kRoundRobin/kWeightedFair); nothing consults wall-clock or
// hashes.
//
// R must expose a `std::uint32_t flow` member (0 = unattributed; flow 0 is
// just another queue, so control traffic is arbitrated too).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string_view>

namespace nectar::cab {

enum class ArbPolicy { kFifo, kRoundRobin, kWeightedFair };

// The single name<->enum map. Every config string and every stats dump goes
// through these two functions, so a typo'd policy name is a hard error at
// the parse site instead of a silent fifo fallback.
inline constexpr struct {
  ArbPolicy policy;
  const char* name;
} kArbPolicyNames[] = {
    {ArbPolicy::kFifo, "fifo"},
    {ArbPolicy::kRoundRobin, "round_robin"},
    {ArbPolicy::kWeightedFair, "weighted_fair"},
};

[[nodiscard]] constexpr const char* arb_policy_name(ArbPolicy p) noexcept {
  for (const auto& e : kArbPolicyNames) {
    if (e.policy == p) return e.name;
  }
  return "fifo";  // unreachable for in-range enum values
}

[[nodiscard]] constexpr std::optional<ArbPolicy> arb_policy_from_name(
    std::string_view name) noexcept {
  for (const auto& e : kArbPolicyNames) {
    if (name == e.name) return e.policy;
  }
  return std::nullopt;
}

template <typename R>
class ArbQueue {
 public:
  explicit ArbQueue(ArbPolicy p = ArbPolicy::kFifo) : policy_(p) {}

  [[nodiscard]] ArbPolicy policy() const noexcept { return policy_; }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(R r) {
    const std::uint32_t flow = r.flow;
    auto& fq = flows_[flow];
    fq.push_back(Item{next_seq_++, std::move(r)});
    ++size_;
    ++stats_.pushes;
    stats_.max_depth = std::max(stats_.max_depth, size_);
    stats_.max_flows = std::max<std::uint64_t>(stats_.max_flows, flows_.size());
    FlowStats& fs = flow_stats_[flow];
    ++fs.pushes;
    fs.max_depth = std::max<std::uint64_t>(fs.max_depth, fq.size());
  }

  // Remove and return the next request under the current policy. Precondition:
  // !empty().
  R pop() {
    typename FlowMap::iterator it;
    switch (policy_) {
      case ArbPolicy::kRoundRobin: it = pick_round_robin(); break;
      case ArbPolicy::kWeightedFair: it = pick_weighted(); break;
      default: it = pick_fifo(); break;
    }
    R r = std::move(it->second.front().req);
    it->second.pop_front();
    last_flow_ = it->first;
    ++flow_stats_[it->first].pops;
    if (it->second.empty()) {
      credits_.erase(it->first);  // drained flows forfeit residual credit
      flows_.erase(it);
    }
    --size_;
    ++stats_.pops;
    return r;
  }

  // Weighted-fair class weight for `flow` (>= 1; requests beyond the weight
  // wait for the next credit recharge). Ignored by kFifo/kRoundRobin.
  void set_flow_weight(std::uint32_t flow, std::uint32_t weight) {
    weights_[flow] = std::max<std::uint32_t>(weight, 1);
  }
  [[nodiscard]] std::uint32_t flow_weight(std::uint32_t flow) const noexcept {
    auto it = weights_.find(flow);
    return it == weights_.end() ? 1 : it->second;
  }

  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t max_depth = 0;  // high-water of queued requests
    std::uint64_t max_flows = 0;  // high-water of flows queued at once
    std::uint64_t credit_recharges = 0;  // kWeightedFair rounds completed
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Per-flow service accounting, keyed by flow id (deterministic order).
  // Entries persist after a flow drains so post-run stats cover every flow
  // that ever queued here.
  struct FlowStats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t max_depth = 0;  // high-water of this flow's own queue
  };
  [[nodiscard]] const std::map<std::uint32_t, FlowStats>& flow_stats() const noexcept {
    return flow_stats_;
  }
  // Requests of `flow` queued right now.
  [[nodiscard]] std::size_t flow_depth(std::uint32_t flow) const noexcept {
    auto it = flows_.find(flow);
    return it == flows_.end() ? 0 : it->second.size();
  }

 private:
  struct Item {
    std::uint64_t seq;  // global arrival order
    R req;
  };
  using FlowMap = std::map<std::uint32_t, std::deque<Item>>;

  // Oldest request overall. O(flows queued); the command queue is bounded
  // (depth 64), so this stays trivially small.
  typename FlowMap::iterator pick_fifo() {
    auto best = flows_.begin();
    for (auto it = std::next(flows_.begin()); it != flows_.end(); ++it) {
      if (it->second.front().seq < best->second.front().seq) best = it;
    }
    return best;
  }

  // Next backlogged flow after the last one served, wrapping in flow-id order.
  typename FlowMap::iterator pick_round_robin() {
    auto it = flows_.upper_bound(last_flow_);
    if (it == flows_.end()) it = flows_.begin();
    return it;
  }

  // Credit-based weighted round robin. Serve the first backlogged flow after
  // the last one served (wrapping, flow-id order) that still holds credit;
  // when every backlogged flow's credit is spent, recharge each to its
  // weight and take the next flow in rotation. A flow that joins mid-round
  // starts at zero credit and waits for the recharge, so arrival timing
  // cannot buy extra service.
  typename FlowMap::iterator pick_weighted() {
    for (int pass = 0; pass < 2; ++pass) {
      auto it = flows_.upper_bound(last_flow_);
      for (std::size_t n = 0; n < flows_.size(); ++n) {
        if (it == flows_.end()) it = flows_.begin();
        auto c = credits_.find(it->first);
        if (c != credits_.end() && c->second > 0) {
          --c->second;
          return it;
        }
        ++it;
      }
      // All backlogged flows are out of credit: recharge and rescan.
      for (const auto& [flow, q] : flows_) credits_[flow] = flow_weight(flow);
      ++stats_.credit_recharges;
    }
    return flows_.begin();  // unreachable: recharge gives every flow credit
  }

  ArbPolicy policy_;
  FlowMap flows_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint32_t last_flow_ = 0;
  Stats stats_;
  std::map<std::uint32_t, FlowStats> flow_stats_;
  std::map<std::uint32_t, std::uint32_t> weights_;  // absent = weight 1
  std::map<std::uint32_t, std::uint64_t> credits_;  // backlogged flows only
};

}  // namespace nectar::cab
