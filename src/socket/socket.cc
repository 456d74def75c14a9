#include "socket/socket.h"

#include <cassert>

namespace nectar::socket {

using mbuf::Mbuf;
using net::KernCtx;

Socket::Socket(net::NetStack& stack, Proto proto, SocketOptions opts)
    : stack_(stack),
      proto_(proto),
      opts_(opts),
      snd_(opts.tcp.sndbuf),
      rcv_(opts.tcp.rcvbuf),
      readable_(stack.env().sim),
      writable_(stack.env().sim),
      tx_sync_(stack.env().sim),
      rx_sync_(stack.env().sim) {
  snd_.set_pool(&stack.env().pool);
  rcv_.set_pool(&stack.env().pool);
  if (proto_ == Proto::kTcp) {
    tp_ = std::make_unique<net::TcpConnection>(stack_, *this, opts_.tcp);
  }
}

Socket::~Socket() {
  ready_changed();  // a waiter must not sleep on a socket that is gone
  if (uport_ != 0) stack_.udp().unbind(uport_);
  for (auto& d : dgrams_) stack_.env().pool.free_chain(d.data);
  if (tp_) {
    // Protocol activity may still be in flight (delayed ACKs, the tail of a
    // FIN exchange): detach the connection and let the stack keep it alive.
    tp_->orphan();
    stack_.adopt_zombie(std::move(tp_));
  }
}

sim::Task<bool> Socket::connect(ProcCtx& p, net::IpAddr addr, std::uint16_t port,
                                std::uint16_t lport) {
  KernCtx ctx{p.sys_acct, p.prio};
  co_await stack_.env().cpu.run(sim::usec(stack_.costs().syscall_us), ctx.acct,
                                ctx.prio);
  co_return co_await tp_->connect(ctx, addr, port, lport);
}

void Socket::listen(std::uint16_t port) { tp_->listen(port); }

sim::Task<bool> Socket::accept(ProcCtx& p) {
  (void)p;
  co_return co_await tp_->wait_established();
}

sim::Task<void> Socket::close(ProcCtx& p) {
  KernCtx ctx{p.sys_acct, p.prio};
  co_await stack_.env().cpu.run(sim::usec(stack_.costs().syscall_us), ctx.acct,
                                ctx.prio);
  co_await tp_->close(ctx);
}

void Socket::bind(std::uint16_t port) {
  stack_.udp().bind(port, this);
  uport_ = port;
}

void Socket::udp_deliver(Mbuf* data, net::IpAddr src, std::uint16_t sport) {
  dgrams_.push_back(Datagram{data, src, sport});
  readable_.notify_all();
  ready_changed();
}

// ------------------------------------------------------- in-kernel (share)

sim::Task<void> Socket::send_mbufs(KernCtx ctx, Mbuf* chain) {
  assert(proto_ == Proto::kTcp);
  const auto len = static_cast<std::size_t>(mbuf::m_length(chain));
  // Share semantics: the chain IS the buffer; block for space, no copy.
  while (snd_.space() < len) co_await writable_.wait();
  for (Mbuf* m = chain; m != nullptr; m = m->next) m->clear_flags(mbuf::kMPktHdr);
  snd_.append(chain);
  stats_.bytes_sent += len;
  co_await tp_->send_ready(ctx);
}

sim::Task<Mbuf*> Socket::recv_mbufs(KernCtx ctx, std::size_t max_bytes) {
  assert(proto_ == Proto::kTcp);
  while (rcv_.empty()) {
    if (tp_->fin_received() || tp_->state() == net::TcpState::kClosed)
      co_return nullptr;
    co_await readable_.wait();
  }
  // Detach whole mbufs from the front up to max_bytes (at least one).
  Mbuf* head = nullptr;
  Mbuf** link = &head;
  std::size_t taken = 0;
  while (!rcv_.empty()) {
    Mbuf* m = rcv_.head();
    const auto mlen = static_cast<std::size_t>(m->len());
    if (taken != 0 && taken + mlen > max_bytes) break;
    // copy_range shares descriptors / clusters; then drop the original.
    Mbuf* shared = rcv_.copy_range(rcv_.base_pos(), mlen);
    rcv_.drop(mlen);
    *link = shared;
    while (*link != nullptr) link = &(*link)->next;
    taken += mlen;
  }
  stats_.bytes_received += taken;
  co_await tp_->window_update(ctx);
  co_return head;
}

sim::Task<void> Socket::sendto_mbufs(KernCtx ctx, Mbuf* chain, net::IpAddr dst,
                                     std::uint16_t dport) {
  assert(proto_ == Proto::kUdp);
  const net::IpAddr src = stack_.source_addr_for(dst);
  co_await stack_.udp().output(ctx, chain, src, uport_, dst, dport,
                               opts_.udp_checksum);
}

sim::Task<Socket::KernelDatagram> Socket::recvfrom_mbufs(KernCtx ctx) {
  (void)ctx;
  while (dgrams_.empty()) co_await readable_.wait();
  Datagram d = dgrams_.front();
  dgrams_.pop_front();
  co_return KernelDatagram{d.data, d.src, d.sport};
}

}  // namespace nectar::socket
