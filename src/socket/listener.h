// Listener: multi-connection accept on top of the single-connection
// TcpConnection primitive.
//
// A Listener keeps `backlog` embryonic sockets in LISTEN state. The demux
// hands an incoming SYN to the oldest one (NetStack's per-port listen FIFO);
// accept() waits for that socket to establish and arms a replacement, so the
// backlog depth is restored after every accept. A SYN arriving while every
// embryonic socket is consumed — an accept storm deeper than the backlog —
// is counted by the stack as a listen_overflow (the listen-service registry
// below tells it the port is live) and recovered by the client's SYN
// retransmission.
#pragma once

#include <deque>

#include "socket/socket.h"

namespace nectar::socket {

class Listener {
 public:
  Listener(net::NetStack& stack, std::uint16_t port, SocketOptions opts = {},
           int backlog = 1)
      : stack_(stack), port_(port), opts_(opts),
        backlog_(backlog < 1 ? 1 : static_cast<std::size_t>(backlog)) {
    // Registered for the Listener's lifetime: lets the stack tell "SYN for a
    // dead port" (no_port) from "SYN for a live service whose backlog is
    // exhausted" (listen_overflows).
    stack_.listen_service_register(0, port_);
    while (pending_.size() < backlog_) rearm();
  }
  ~Listener() { stack_.listen_service_unregister(0, port_); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Await the next established connection. Returns nullptr if the listener
  // socket closed without establishing. Embryonic sockets establish in FIFO
  // order (the demux always feeds the oldest), so waiting on the front is
  // waiting on the next connection.
  sim::Task<std::unique_ptr<Socket>> accept() {
    std::unique_ptr<Socket> sock = std::move(pending_.front());
    pending_.pop_front();
    sock->set_ready_hook(nullptr);
    if (hook_ != nullptr) hook_->ready_changed();  // a new oldest socket
    const bool ok = co_await sock->tcp().wait_established();
    rearm();
    if (!ok) co_return nullptr;
    co_return sock;
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::size_t backlog() const noexcept { return backlog_; }

  // True when accept() would return without blocking: the oldest embryonic
  // socket has completed (or given up on) its handshake. Readiness probe for
  // the wload shim's wpoll.
  [[nodiscard]] bool accept_ready() const noexcept {
    if (pending_.empty()) return false;
    const auto& tp = pending_.front()->tcp();
    return tp.ever_established() || tp.state() == net::TcpState::kClosed;
  }

  // accept_ready() changes only when an embryonic socket's state does, so
  // the hook is forwarded to every one of them (and to each replacement).
  void set_ready_hook(ReadyHook* h) noexcept {
    hook_ = h;
    for (auto& s : pending_) s->set_ready_hook(h);
  }

 private:
  void rearm() {
    auto s = std::make_unique<Socket>(stack_, Socket::Proto::kTcp, opts_);
    s->listen(port_);
    s->set_ready_hook(hook_);
    pending_.push_back(std::move(s));
  }

  net::NetStack& stack_;
  std::uint16_t port_;
  SocketOptions opts_;
  std::size_t backlog_;
  std::deque<std::unique_ptr<Socket>> pending_;
  ReadyHook* hook_ = nullptr;
};

}  // namespace nectar::socket
