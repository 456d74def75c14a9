#include "wload/wsocket.h"

#include <algorithm>

namespace nectar::wload {

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

Shim::Fd* Shim::at(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size()) return nullptr;
  Fd& e = fds_[static_cast<std::size_t>(fd)];
  return e.used ? &e : nullptr;
}

int Shim::wsocket() {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (!fds_[i].used) {
      fds_[i] = Fd{};
      fds_[i].used = true;
      ++open_;
      ++stats_.sockets;
      return static_cast<int>(i);
    }
  }
  return W_EMFILE;
}

int Shim::install(std::unique_ptr<socket::Socket> s) {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (!fds_[i].used) {
      fds_[i] = Fd{};
      fds_[i].used = true;
      fds_[i].sock = std::move(s);
      ++open_;
      return static_cast<int>(i);
    }
  }
  return W_EMFILE;  // the socket is dropped; its teardown is the zombie path
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
  e->sock = std::move(s);
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
    const sim::Time give_up = host_.sim().now() + kShimCloseLinger;
    while (!e->sock->tx_drained() && host_.sim().now() < give_up)
      co_await sim::delay(host_.sim(), kShimPollQuantum);
  }
  // Destroying the Socket/Listener releases the slot; in-flight protocol
  // work (FIN exchange tail) continues on the stack's zombie list.
  *e = Fd{};
  --open_;
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
  const sim::Time deadline =
      timeout < 0 ? 0 : host_.sim().now() + timeout;  // 0 unused when infinite
  for (;;) {
    int ready = 0;
    for (std::size_t i = 0; i < nfds; ++i) {
      fds[i].revents = fds[i].fd < 0 ? 0 : readiness(fds[i]);
      if (fds[i].revents != 0) ++ready;
    }
    if (ready > 0) co_return ready;
    if (timeout == 0) co_return 0;
    if (timeout > 0 && host_.sim().now() >= deadline) {
      ++stats_.poll_timeouts;
      co_return 0;
    }
    sim::Duration step = kShimPollQuantum;
    if (timeout > 0) step = std::min(step, deadline - host_.sim().now());
    co_await sim::delay(host_.sim(), step);
  }
}

}  // namespace nectar::wload
