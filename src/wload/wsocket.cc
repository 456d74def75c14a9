#include "wload/wsocket.h"

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <span>

namespace nectar::wload {

// A blocked wpoll or wclose linger. It samples readiness where a loop of
// kShimPollQuantum sleeps from the start of the wait would: on every grid
// tick before the deadline, and at the deadline. Instead of running each
// tick it sleeps until a watched fd reports a change, then resumes on the
// first tick that would have seen the change. Readiness only changes inside
// an event that reports it, so every tick skipped would have seen nothing
// new.
class Shim::Waiter {
 public:
  // timeout < 0: no deadline.
  Waiter(Shim& sh, sim::Duration timeout)
      : sh_(sh),
        sim_(sh.sim()),
        start_(sim_.now()),
        deadline_(timeout < 0 ? kNever : start_ + timeout) {}
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  // Leaves every fd it watches, on every return path.
  ~Waiter() {
    tick_.cancel();
    expiry_.cancel();
    for (const WPollFd& p : polled_) {
      if (Fd* e = sh_.slot(p.fd); e != nullptr && e->poller == this) e->poller = nullptr;
    }
    if (closing_ != nullptr) closing_->closer = nullptr;
  }

  // Be woken by changes on every fd of a wpoll set.
  void watch(std::span<const WPollFd> fds) {
    polled_ = fds;
    for (const WPollFd& p : fds) {
      Fd* e = sh_.slot(p.fd);
      if (e == nullptr) continue;
      assert(e->poller == nullptr || e->poller == this);
      e->poller = this;
    }
  }
  // Be woken by changes on the fd a wclose lingers on.
  void watch_close(Fd& e) {
    assert(e.closer == nullptr);
    e.closer = this;
    closing_ = &e;
  }

  [[nodiscard]] bool expired() const noexcept { return sim_.now() >= deadline_; }

  // A watched fd's readiness may have changed in the running event.
  void changed() {
    if (tick_.armed()) return;
    const sim::Time t = next_tick();
    if (t >= deadline_) return;  // expiry_ samples the deadline
    tick_ = sim_.timer_at(t, [this] { h_.resume(); });
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    h_ = h;
    if (deadline_ != kNever && !expiry_.armed())
      expiry_ = sim_.timer_at(deadline_, [this] { h_.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  static constexpr sim::Time kNever = INT64_MAX;

  // The first grid tick that sees a change made now. The event queue runs
  // same-time events in scheduling order, and tick k would have been
  // scheduled when tick k - 1 ran, so a change exactly on tick k >= 1 is seen
  // by it when the event making it was scheduled before tick k - 1's time.
  // One made by an event scheduled at exactly that time counts as after.
  [[nodiscard]] sim::Time next_tick() const {
    const sim::Time now = sim_.now();
    const sim::Duration since = now - start_;
    if (since > 0 && since % kShimPollQuantum == 0 &&
        sim_.current_inserted() < now - kShimPollQuantum)
      return now;
    return start_ + (since / kShimPollQuantum + 1) * kShimPollQuantum;
  }

  Shim& sh_;
  sim::Simulator& sim_;
  sim::Time start_;
  sim::Time deadline_;
  std::coroutine_handle<> h_;
  sim::TimerHandle tick_;    // resume on the grid after a change
  sim::TimerHandle expiry_;  // resume at the deadline
  std::span<const WPollFd> polled_;
  Fd* closing_ = nullptr;
};

void Shim::Fd::ready_changed() {
  if (poller != nullptr) poller->changed();
  if (closer != nullptr) closer->changed();
}

const char* werr_name(int e) noexcept {
  switch (e) {
    case W_EBADF: return "EBADF";
    case W_EINVAL: return "EINVAL";
    case W_EMFILE: return "EMFILE";
    case W_EADDRNOTAVAIL: return "EADDRNOTAVAIL";
    case W_ECONNABORTED: return "ECONNABORTED";
    case W_ENOTCONN: return "ENOTCONN";
    case W_ECONNREFUSED: return "ECONNREFUSED";
  }
  return e < 0 ? "E?" : "OK";
}

Shim::Shim(core::Host& host, Options opts)
    : host_(host),
      opts_(std::move(opts)),
      proc_(&host.create_process(opts_.process_name)),
      fds_(kShimMaxFds) {}

Shim::Fd* Shim::slot(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size()) return nullptr;
  return &fds_[static_cast<std::size_t>(fd)];
}

Shim::Fd* Shim::at(int fd) {
  Fd* e = slot(fd);
  return e != nullptr && e->used ? e : nullptr;
}

int Shim::open_slot() {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (!fds_[i].used) {
      fds_[i].used = true;
      fds_[i].bound_port = 0;
      ++open_;
      return static_cast<int>(i);
    }
  }
  return W_EMFILE;
}

int Shim::wsocket() {
  const int fd = open_slot();
  if (fd >= 0) ++stats_.sockets;
  return fd;
}

int Shim::install(std::unique_ptr<socket::Socket> s) {
  const int fd = open_slot();
  if (fd < 0) return fd;  // the socket is dropped; its teardown is the zombie path
  Fd& e = fds_[static_cast<std::size_t>(fd)];
  s->set_ready_hook(&e);
  e.sock = std::move(s);
  return fd;
}

int Shim::wbind(int fd, std::uint16_t port) {
  Fd* e = at(fd);
  if (e == nullptr) return W_EBADF;
  if (e->sock || e->lst) return W_EINVAL;  // already connected/listening
  e->bound_port = port;
  return 0;
}

int Shim::wlisten(int fd, int backlog) {
  Fd* e = at(fd);
  if (e == nullptr) return W_EBADF;
  if (e->sock || e->lst) return W_EINVAL;
  if (e->bound_port == 0) return W_EINVAL;  // wbind first (no port 0 service)
  e->lst = std::make_unique<socket::Listener>(host_.stack(), e->bound_port,
                                              opts_.socket, backlog);
  e->lst->set_ready_hook(e);
  return 0;
}

sim::Task<int> Shim::waccept(int fd) {
  Fd* e = at(fd);
  if (e == nullptr) co_return W_EBADF;
  if (!e->lst) co_return W_EINVAL;
  std::unique_ptr<socket::Socket> s = co_await e->lst->accept();
  ++stats_.accepts;
  if (!s) co_return W_ECONNABORTED;
  co_return install(std::move(s));
}

sim::Task<int> Shim::wconnect(int fd, net::IpAddr addr, std::uint16_t port) {
  Fd* e = at(fd);
  if (e == nullptr) co_return W_EBADF;
  if (e->sock || e->lst) co_return W_EINVAL;
  ++stats_.connects;

  // Resolve the local port up front so "no tuple left" is distinguishable
  // from a peer that refused. The allocator only advances its rotor, so two
  // shim processes pre-allocating concurrently still get distinct ports.
  std::uint16_t lport = e->bound_port;
  auto& stack = host_.stack();
  if (lport == 0) {
    lport = stack.alloc_ephemeral_port(stack.source_addr_for(addr), addr, port);
    if (lport == 0) {
      ++stats_.connect_eaddrnotavail;
      co_return W_EADDRNOTAVAIL;
    }
  }

  auto s = std::make_unique<socket::Socket>(stack, socket::Socket::Proto::kTcp,
                                            opts_.socket);
  auto ctx = proc_->ctx();
  const bool ok = co_await s->connect(ctx, addr, port, lport);
  if (!ok) {
    ++stats_.connect_refused;
    co_return W_ECONNREFUSED;
  }
  s->set_ready_hook(e);
  e->sock = std::move(s);
  e->ready_changed();  // an unconnected fd was never ready
  co_return 0;
}

sim::Task<long> Shim::wsend(int fd, mem::Uio data) {
  Fd* e = at(fd);
  if (e == nullptr) co_return W_EBADF;
  if (!e->sock) co_return W_ENOTCONN;
  auto ctx = proc_->ctx();
  const std::size_t n = co_await e->sock->send(ctx, std::move(data));
  stats_.bytes_sent += n;
  co_return static_cast<long>(n);
}

sim::Task<long> Shim::wrecv(int fd, mem::Uio dst) {
  Fd* e = at(fd);
  if (e == nullptr) co_return W_EBADF;
  if (!e->sock) co_return W_ENOTCONN;
  auto ctx = proc_->ctx();
  const std::size_t n = co_await e->sock->recv(ctx, std::move(dst));
  stats_.bytes_received += n;
  co_return static_cast<long>(n);
}

sim::Task<int> Shim::wclose(int fd) {
  Fd* e = at(fd);
  if (e == nullptr) co_return W_EBADF;
  if (e->sock) {
    auto ctx = proc_->ctx();
    co_await e->sock->close(ctx);
    // Linger until the peer has ACKed everything wsend accepted: releasing
    // the Socket orphans the connection onto zero-capacity buffers, so an
    // un-ACKed send-buffer tail would otherwise be silently dropped — a
    // passive reader (a wpoll multiplexer busy with other fds) would then
    // wait forever for bytes that no longer exist.
    Waiter w(*this, kShimCloseLinger);
    w.watch_close(*e);
    while (!e->sock->tx_drained() && !w.expired()) co_await w;
  }
  // Destroying the Socket/Listener releases the slot; in-flight protocol
  // work (FIN exchange tail) continues on the stack's zombie list. A wpoll
  // still waiting on this fd number reports WPOLLNVAL at its next tick.
  e->used = false;
  e->sock.reset();
  e->lst.reset();
  --open_;
  e->ready_changed();
  co_return 0;
}

short Shim::readiness(const WPollFd& p) {
  Fd* e = at(p.fd);
  if (e == nullptr) return WPOLLNVAL;
  short r = 0;
  if (e->lst) {
    if ((p.events & WPOLLIN) != 0 && e->lst->accept_ready()) r |= WPOLLIN;
    return r;
  }
  if (!e->sock) return 0;  // open but unconnected: never ready
  const auto& tp = e->sock->tcp();
  if (tp.fin_received() || tp.state() == net::TcpState::kClosed) r |= WPOLLHUP;
  if ((p.events & WPOLLIN) != 0 && e->sock->recv_ready()) r |= WPOLLIN;
  if ((p.events & WPOLLOUT) != 0 && e->sock->send_ready()) r |= WPOLLOUT;
  return r;
}

sim::Task<int> Shim::wpoll(WPollFd* fds, std::size_t nfds, sim::Duration timeout) {
  ++stats_.polls;
  Waiter w(*this, timeout);
  for (;;) {
    int ready = 0;
    for (std::size_t i = 0; i < nfds; ++i) {
      fds[i].revents = fds[i].fd < 0 ? 0 : readiness(fds[i]);
      if (fds[i].revents != 0) ++ready;
    }
    if (ready > 0) co_return ready;
    if (timeout == 0) co_return 0;
    if (w.expired()) {
      ++stats_.poll_timeouts;
      co_return 0;
    }
    w.watch({fds, nfds});
    co_await w;
  }
}

}  // namespace nectar::wload
