#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "sim/timer_wheel.h"

namespace nectar::net {

using mbuf::Mbuf;

const char* tcp_state_name(TcpState s) noexcept {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

namespace {
// Deterministic ISS from the connection key: reproducible runs without a
// shared counter.
std::uint32_t derive_iss(const ConnKey& k) {
  std::uint64_t x = (static_cast<std::uint64_t>(k.laddr) << 32) ^ k.faddr;
  x ^= (static_cast<std::uint64_t>(k.lport) << 16) ^ k.fport;
  x *= 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return static_cast<std::uint32_t>(x) | 1;
}

std::uint8_t scale_for(std::size_t bufsize) {
  std::uint8_t s = 0;
  while (s < 14 && (0xffffULL << s) < bufsize) ++s;
  return s;
}
}  // namespace

TcpConnection::TcpConnection(NetStack& stack, TcpCallbacks& cb, TcpParams params)
    : stack_(stack), cb_(&cb), par_(params), state_cond_(stack.env().sim) {
  cb_->snd().set_hiwat(par_.sndbuf);
  cb_->rcv().set_hiwat(par_.rcvbuf);
}

TcpConnection::~TcpConnection() { teardown(); }

void TcpConnection::teardown() {
  rexmt_timer_.cancel();
  delack_timer_.cancel();
  drop_ooo_queue();
  if (bound_) {
    stack_.tcp_unbind(key_);
    bound_ = false;
  }
  if (listening_) {
    stack_.tcp_unlisten(key_.laddr, key_.lport, this);
    listening_ = false;
  }
}

void TcpConnection::drop_ooo_queue() {
  for (auto& [seq, rec] : ooo_) stack_.env().pool.free_chain(rec);
  ooo_.clear();
  ooo_fin_.clear();
}

sim::TimerHandle TcpConnection::proto_timer(sim::Duration d, sim::SmallFn fn) {
  return stack_.env().wheel.schedule_after(d, std::move(fn));
}

void TcpConnection::enter_state(TcpState s) {
  if (state_ == s) return;
  state_ = s;
  if (s == TcpState::kEstablished) ever_established_ = true;
  state_cond_.notify_all();
  cb_->notify_state();
}

void TcpConnection::cache_route() {
  auto r = stack_.routes().lookup(key_.faddr);
  route_if_ = r ? r->ifp : nullptr;
}

std::uint64_t TcpConnection::seq_to_pos(std::uint32_t seq) const noexcept {
  return una_pos_ + (seq - snd_una_);
}

// ---------------------------------------------------------------- open/close

sim::Task<bool> TcpConnection::connect(KernCtx ctx, IpAddr faddr,
                                       std::uint16_t fport, std::uint16_t lport) {
  assert(state_ == TcpState::kClosed);
  key_.faddr = faddr;
  key_.fport = fport;
  key_.laddr = stack_.source_addr_for(faddr);
  key_.lport = lport != 0
                   ? lport
                   : stack_.alloc_ephemeral_port(key_.laddr, faddr, fport);
  if (key_.lport == 0) {
    // Ephemeral ports exhausted (already counted by the allocator): fail
    // this connect without binding; the connection stays CLOSED and
    // reusable once churn frees tuples.
    co_return false;
  }
  stack_.tcp_bind(key_, this);
  bound_ = true;

  cache_route();
  if (route_if_ == nullptr) {
    enter_state(TcpState::kClosed);
    co_return false;
  }
  mss_ = static_cast<std::uint16_t>(route_if_->mtu() - kIpHdrLen - kTcpHdrLen);
  iss_ = derive_iss(key_);
  snd_una_ = snd_nxt_ = snd_max_ = iss_;
  cwnd_ = mss_;
  rcv_scale_ = par_.window_scaling ? scale_for(par_.rcvbuf) : 0;

  enter_state(TcpState::kSynSent);
  co_await send_control(ctx, snd_nxt_, kTcpSyn);
  snd_nxt_ = snd_max_ = iss_ + 1;
  start_rexmt_timer();

  while (state_ == TcpState::kSynSent) co_await state_cond_.wait();
  co_return established();
}

void TcpConnection::listen(std::uint16_t lport, IpAddr laddr) {
  assert(state_ == TcpState::kClosed);
  key_.laddr = laddr;
  key_.lport = lport;
  stack_.tcp_listen(laddr, lport, this);
  listening_ = true;
  enter_state(TcpState::kListen);
}

sim::Task<bool> TcpConnection::wait_established() {
  // Wait on the *ever-established* latch, not the current state: a peer that
  // connects, sends, and FINs while the acceptor is busy elsewhere moves the
  // connection on to CLOSE_WAIT before anyone observes ESTABLISHED. The
  // connection is still perfectly acceptable — its data is in rcv().
  while (!ever_established_ && state_ != TcpState::kClosed)
    co_await state_cond_.wait();
  co_return ever_established_;
}

sim::Task<void> TcpConnection::close(KernCtx ctx) {
  switch (state_) {
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
    case TcpState::kSynReceived:
      fin_queued_ = true;
      co_await output(ctx);
      break;
    case TcpState::kSynSent:
    case TcpState::kListen:
      enter_state(TcpState::kClosed);
      teardown();
      break;
    default:
      break;  // already closing
  }
}

sim::Task<void> TcpConnection::wait_closed() {
  while (state_ != TcpState::kClosed && state_ != TcpState::kTimeWait)
    co_await state_cond_.wait();
}

namespace {
// Inert callbacks for orphaned connections: zero-capacity buffers (so any
// straggling delivery takes the drop path) and no-op notifications.
class ZombieCallbacks final : public TcpCallbacks {
 public:
  explicit ZombieCallbacks(mbuf::MbufPool* pool) : snd_(0), rcv_(0) {
    snd_.set_pool(pool);
    rcv_.set_pool(pool);
  }
  Sockbuf& snd() override { return snd_; }
  Sockbuf& rcv() override { return rcv_; }
  void notify_readable() override {}
  void notify_writable() override {}
  void notify_state() override {}

 private:
  Sockbuf snd_;
  Sockbuf rcv_;
};
}  // namespace

void TcpConnection::orphan() {
  enter_state(TcpState::kClosed);
  teardown();
  zombie_cb_ = std::make_unique<ZombieCallbacks>(&stack_.env().pool);
  cb_ = zombie_cb_.get();
}

void TcpConnection::abort() {
  // Best-effort RST, then instant teardown.
  if (bound_ && route_if_ != nullptr && state_ != TcpState::kClosed) {
    KernCtx ctx{stack_.env().intr_acct, sim::Priority::Kernel};
    sim::spawn(send_control(ctx, snd_nxt_, kTcpRst));
  }
  enter_state(TcpState::kClosed);
  teardown();
}

// --------------------------------------------------------------------- hooks

sim::Task<void> TcpConnection::send_ready(KernCtx ctx) { co_await output(ctx); }

sim::Task<void> TcpConnection::window_update(KernCtx ctx) {
  // Advertise a bigger window if it opened meaningfully (2 segments) or
  // re-opened from zero (the receiver-driven update that unblocks a sender
  // against a closed window).
  const std::uint32_t cur_edge = rcv_adv_;
  const std::uint32_t new_edge =
      rcv_nxt_ + static_cast<std::uint32_t>(cb_->rcv().space());
  if (seq_gt(new_edge, cur_edge) &&
      (new_edge - cur_edge >= 2u * mss_ ||
       new_edge - cur_edge >= par_.rcvbuf / 2 || cur_edge == rcv_nxt_)) {
    co_await send_control(ctx, snd_nxt_, kTcpAck);
  }
}

// -------------------------------------------------------------------- timers

void TcpConnection::start_rexmt_timer() {
  if (rexmt_timer_.armed()) return;
  rexmt_timer_ = proto_timer(std::min(rto() << rexmt_backoff_, kTcpRtoMax),
                             [this] { rexmt_fire(); });
}

void TcpConnection::stop_rexmt_timer() {
  rexmt_timer_.cancel();
  rexmt_backoff_ = 0;
}

void TcpConnection::rexmt_fire() {
  ++stats_.rexmt_timeouts;
  if (rexmt_backoff_ < 12) ++rexmt_backoff_;
  rtt_timing_ = false;  // Karn: no samples from retransmitted data

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    KernCtx ctx{stack_.env().intr_acct, sim::Priority::Kernel};
    if (rexmt_backoff_ > 6) {  // give up on the handshake
      enter_state(TcpState::kClosed);
      teardown();
      return;
    }
    const std::uint8_t flags =
        state_ == TcpState::kSynSent ? kTcpSyn : (kTcpSyn | kTcpAck);
    sim::spawn(send_control(ctx, iss_, flags));
    start_rexmt_timer();
    return;
  }

  // A stale timer with nothing outstanding (e.g. armed just as the final ACK
  // arrived) is a no-op.
  if (snd_una_ == snd_max_) return;

  // Classic timeout reaction: collapse to go-back-N from snd_una.
  const std::uint32_t flight = snd_max_ - snd_una_;
  ssthresh_ = std::max<std::uint32_t>(2u * mss_, flight / 2);
  cwnd_ = mss_;
  dupacks_ = 0;
  snd_nxt_ = snd_una_;
  KernCtx ctx{stack_.env().intr_acct, sim::Priority::Kernel};
  sim::spawn(output(ctx));
}

void TcpConnection::delack_fire() {
  if (!ack_due_) return;
  KernCtx ctx{stack_.env().intr_acct, sim::Priority::Kernel};
  ack_due_ = false;
  unacked_segs_ = 0;
  sim::spawn(send_control(ctx, snd_nxt_, kTcpAck));
}

void TcpConnection::update_rtt(sim::Duration measured) {
  const double m = sim::to_usec(measured);
  if (srtt_us_ == 0.0) {
    srtt_us_ = m;
    rttvar_us_ = m / 2;
  } else {
    const double err = m - srtt_us_;
    srtt_us_ += err / 8.0;
    rttvar_us_ += (std::abs(err) - rttvar_us_) / 4.0;
  }
}

sim::Duration TcpConnection::rto() const noexcept {
  const auto raw = sim::usec(srtt_us_ + 4.0 * rttvar_us_);
  if (srtt_us_ == 0.0) return kTcpRtoInit;
  return std::clamp(raw, kTcpRtoMin, kTcpRtoMax);
}

sim::Task<void> TcpConnection::input(KernCtx ctx, Mbuf* pkt, const IpHeader& ih) {
  co_await input_locked(ctx, pkt, ih);
  // Compact TIME-WAIT: the final ACK (sent inside input_locked) is on its
  // way; park the 2*MSL obligation as a ~32-byte stack record and free this
  // connection's buffers and demux slot right now. Late segments and tuple
  // recycling are handled by NetStack against the record.
  if (state_ == TcpState::kTimeWait) {
    stack_.timewait_enter(key_, rcv_nxt_, snd_nxt_, 2 * kTcpMsl);
    enter_state(TcpState::kClosed);
    teardown();
  }
}

void TcpConnection::debug_dump(const char* tag) const {
  std::fprintf(stderr,
               "[tcp %s] state=%s una=%u nxt=%u max=%u wnd=%u cwnd=%u "
               "sb_cc=%zu rb_cc=%zu rexmt=%d persist=%d delack=%d "
               "in_out=%d fin_q=%d fin_s=%d ooo=%zu una_pos=%llu sb_base=%llu "
               "sb_end=%llu\n",
               tag, tcp_state_name(state_), snd_una_, snd_nxt_, snd_max_,
               snd_wnd_, cwnd_, cb_->snd().cc(), cb_->rcv().cc(),
               rexmt_timer_.armed() ? 1 : 0,
               persist_timer_.armed() ? 1 : 0, delack_timer_.armed() ? 1 : 0,
               in_output_ ? 1 : 0, fin_queued_ ? 1 : 0, fin_sent_ ? 1 : 0,
               ooo_.size(), (unsigned long long)una_pos_,
               (unsigned long long)cb_->snd().base_pos(),
               (unsigned long long)cb_->snd().end_pos());
}

}  // namespace nectar::net
